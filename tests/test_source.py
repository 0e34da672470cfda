"""Source-level rules for the package."""
import ast
import pathlib

import affinetoda

SRC = pathlib.Path(affinetoda.__file__).parent


def test_no_assert_statements():
    """Checks must survive python -O, which strips assert statements."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
