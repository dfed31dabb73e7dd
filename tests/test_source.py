"""Source-level guards over the package modules."""
import ast
from pathlib import Path

import goldcut

PACKAGE = Path(goldcut.__file__).parent


def test_no_assert_statements():
    # python -O strips assert statements, so no check in the package may
    # rely on one; raise an error instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, "assert statements in goldcut: %s" % ", ".join(found)
