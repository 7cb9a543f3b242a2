"""Static checks on the library source."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "krcrystals"

MODULES = sorted(path.name for path in SRC.glob("*.py"))


def _is_assertion_raise(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


# invariants raise InvariantError: `python -O` strips asserts, and an
# AssertionError is not a KRCrystalError, so the CLI would exit 1 on it
@pytest.mark.parametrize("module", MODULES)
def test_no_assert_statements(module):
    path = SRC / module
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)
             or isinstance(node, ast.Raise) and node.exc is not None
             and _is_assertion_raise(node)]
    assert lines == [], "%s asserts on lines %s" % (module, lines)
