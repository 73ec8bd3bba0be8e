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


def test_oracle_is_independent_of_the_scan():
    # two independent routes: the oracle shares linalg with the pattern scan,
    # but neither the simplex nor anything of coordinates but its result type
    path = Path(barypoly.__file__).parent / "oracle.py"
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["barypoly" if node.level else "",
                                          node.module]))
            names |= {f"{base}.{alias.name}" for alias in node.names}
    assert "barypoly.coordinates.BarycentricVector" in names
    bad = sorted(name for name in names
                 if name.startswith("barypoly.simplex")
                 or name.startswith("barypoly.coordinates")
                 and name != "barypoly.coordinates.BarycentricVector")
    assert bad == []
