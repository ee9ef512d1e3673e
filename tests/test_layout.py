"""Module layout: no module of the package reaches into a sibling's
private names, and every name the benchmark's tracer wraps exists.  A
helper two modules need is public in one of them."""

import ast
import importlib
import importlib.util
from pathlib import Path

import fanogw

PACKAGE = Path(fanogw.__file__).parent
SPANS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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


def test_every_traced_name_resolves():
    """Each (module, qualified name) of the tracer's SPANS and each
    cached FanoContext accessor it counts is a function of `fanogw`, so
    a rename fails here rather than only when a traced benchmark run
    installs.  The tracer's lists are read without installing it, which
    would rebind module globals for the rest of the session."""
    spec = importlib.util.spec_from_file_location("spans", SPANS_FILE)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    planned = [(mod, qual) for mod, qual, _ in spans.SPANS]
    planned += [("hyper", f"FanoContext.{name}") for name in spans.ACCESSORS]
    missing = []
    for mod, qual in planned:
        obj = importlib.import_module(f"fanogw.{mod}")
        for part in qual.split("."):
            obj = vars(obj).get(part) if obj is not None else None
        if not callable(obj):
            missing.append(f"fanogw.{mod}.{qual}")
    assert missing == []
