import ast
from pathlib import Path

import cdgalab

SRC = Path(cdgalab.__file__).resolve().parent


def test_library_has_no_assert_statements():
    """``python -O`` strips ``assert``; the library's invariant checks raise
    explicitly so that they still run."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert SRC.name == "cdgalab" and list(SRC.glob("*.py"))
    assert not found, f"assert statements in the library: {found}"
