import ast
from pathlib import Path

import torscat


def test_no_assert_statements():
    # python -O strips asserts, so a check written as one would vanish
    found = []
    for path in sorted(Path(torscat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
