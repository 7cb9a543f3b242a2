"""Static checks on the library source."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "krcrystals"

# modules whose invariants raise InvariantError; `python -O` strips asserts
TYPED_INVARIANT_MODULES = ["weyl.py", "alcove.py"]


@pytest.mark.parametrize("module", TYPED_INVARIANT_MODULES)
def test_no_assert_statements(module):
    path = SRC / module
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], "%s has assert statements on lines %s" % (module,
                                                                  lines)
