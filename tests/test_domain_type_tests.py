"""Only scalars.py tells the scalar domains apart, by type or by value.

Everything else reads what it needs from the domain's facts and methods
(ScalarDomain.mp_always_exists, real_units, residues, json_tag), so a new
domain needs no branch outside its own class.  A type test is isinstance
or issubclass against a domain class; a value test is ==, !=, is or is not
against GAUSSIAN_RATIONAL or a prime_field(...) call.
"""

import ast
from pathlib import Path

import pytest

from rolcheck.scalars import ScalarDomain

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rolcheck"
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "scalars.py")


def _domain_classes(cls=ScalarDomain):
    names = {cls.__name__}
    for sub in cls.__subclasses__():
        names |= _domain_classes(sub)
    return names


DOMAIN_CLASSES = _domain_classes()
DOMAIN_CONSTANTS = {"GAUSSIAN_RATIONAL"}
DOMAIN_FACTORIES = {"prime_field"}
COMPARISONS = {ast.Eq: "==", ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not"}


def _names(node):
    if isinstance(node, ast.Tuple):
        return [name for elt in node.elts for name in _names(elt)]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return []


def _domain_value(node):
    """How `node` names a domain (a constant, or a factory call), else None."""
    if isinstance(node, ast.Call):
        names = _names(node.func)
        return f"{names[0]}(...)" if names and names[0] in DOMAIN_FACTORIES else None
    names = _names(node)
    return names[0] if len(names) == 1 and names[0] in DOMAIN_CONSTANTS else None


def _domain_type_tests(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("isinstance", "issubclass") and len(node.args) == 2):
            for name in _names(node.args[1]):
                if name in DOMAIN_CLASSES:
                    yield f"{path.name}:{node.lineno}: {node.func.id}(..., {name})"
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if type(op) in COMPARISONS:
                    for value in filter(None, map(_domain_value, (left, right))):
                        yield f"{path.name}:{node.lineno}: {COMPARISONS[type(op)]} {value}"


def test_domain_classes_found():
    assert {"ScalarDomain", "GaussianRationalDomain", "PrimeFieldDomain"} <= DOMAIN_CLASSES
    assert PACKAGE / "laws.py" in SOURCES


def test_detector_sees_a_domain_type_test(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("ok = isinstance(d, (int, scalars.PrimeFieldDomain))\n", encoding="utf-8")
    assert list(_domain_type_tests(source)) == ["probe.py:1: isinstance(..., PrimeFieldDomain)"]


def test_detector_sees_a_domain_value_test(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "if d == scalars.GAUSSIAN_RATIONAL:\n"
        "    ok = prime_field(7) != d or d is GAUSSIAN_RATIONAL\n"
        "tag = d.name == 'gaussian_rational' or f(d) == p\n",
        encoding="utf-8",
    )
    assert list(_domain_type_tests(source)) == [
        "probe.py:1: == GAUSSIAN_RATIONAL",
        "probe.py:2: != prime_field(...)",
        "probe.py:2: is GAUSSIAN_RATIONAL",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_domain_type_tests_outside_scalars(path):
    found = list(_domain_type_tests(path))
    assert not found, found
