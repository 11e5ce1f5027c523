"""Static checks on the package sources."""

import ast
from pathlib import Path

import expsav

SRC = Path(expsav.__file__).resolve().parent


def test_no_assert_statements():
    # python -O strips asserts, so a runtime check written as one vanishes
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
