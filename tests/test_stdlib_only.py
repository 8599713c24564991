"""Two rules for every library module.

It imports nothing outside the Python standard library, and it has no
`assert` statement: `python -O` strips those, and no check may vanish
with them.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rolcheck"
SOURCES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _absolute_imports(path):
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_package_sources_found():
    assert PACKAGE / "__init__.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_only(path):
    foreign = [
        f"{path.name}:{line}: {name}"
        for line, name in _absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert not foreign, foreign


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    asserts = [f"{path.name}:{node.lineno}" for node in ast.walk(_tree(path))
               if isinstance(node, ast.Assert)]
    assert not asserts, asserts
