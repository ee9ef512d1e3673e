"""Module layout: no module of the package reaches into a sibling's
private names.  A helper two modules need is public in one of them."""

import ast
from pathlib import Path

import fanogw

PACKAGE = Path(fanogw.__file__).parent


def test_no_private_imports_between_modules():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("fanogw"):
                continue
            offenders += [f"{path.name}:{node.lineno} imports {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert offenders == []
