import ast
from pathlib import Path

import ppsign

SOURCE = Path(ppsign.__file__).parent


def test_package_uses_no_assert_statements():
    # `python -O` strips assert statements; internal checks raise
    # InternalConsistencyError instead, so they hold under every flag
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
