"""Only scalars.py tells the scalar domains apart by type.

Everything else reads what it needs from the domain's facts
(ScalarDomain.mp_always_exists and ScalarDomain.real_units), so a new
domain needs no branch outside its own class.
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


def _names(node):
    if isinstance(node, ast.Tuple):
        return [name for elt in node.elts for name in _names(elt)]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return []


def _domain_type_tests(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("isinstance", "issubclass") and len(node.args) == 2):
            for name in _names(node.args[1]):
                if name in DOMAIN_CLASSES:
                    yield f"{path.name}:{node.lineno}: {node.func.id}(..., {name})"


def test_domain_classes_found():
    assert {"ScalarDomain", "GaussianRationalDomain", "PrimeFieldDomain"} <= DOMAIN_CLASSES
    assert PACKAGE / "laws.py" in SOURCES


def test_detector_sees_a_domain_type_test(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("ok = isinstance(d, (int, scalars.PrimeFieldDomain))\n", encoding="utf-8")
    assert list(_domain_type_tests(source)) == ["probe.py:1: isinstance(..., PrimeFieldDomain)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_domain_type_tests_outside_scalars(path):
    found = list(_domain_type_tests(path))
    assert not found, found
