"""Rules about the library source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "orderdim"


def test_no_assert_statements_in_the_library():
    # python -O strips assert statements, and every check on a verdict or
    # an input must still run there; raise a typed error instead
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
    assert len(list(SRC.rglob("*.py"))) >= 10
