"""Checks on the library source itself."""

import ast
from pathlib import Path

import kbonacci

SRC = Path(kbonacci.__file__).parent


def test_no_assert_statements():
    # python -O strips assert statements, so none may guard a verdict
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
