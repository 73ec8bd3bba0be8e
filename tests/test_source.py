"""Guards on the package source itself."""

import ast
from pathlib import Path

import barypoly


def test_no_assert_statements():
    # python -O strips assert statements, so invariants raise typed errors
    src = Path(barypoly.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
