"""Module layout: no module of the package reaches into a sibling's
private names or another object's private attributes, and every name
the benchmark's tracer wraps exists.  A helper two modules need is
public in one of them."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import fanogw
from fanogw.geometry import MultiDegree
from fanogw.hyper import ftilde_hbar
from fanogw.series import BiSeries, LaurentPoly

PACKAGE = Path(fanogw.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
SPANS_FILE = ROOT / "perfbench" / "spans.py"


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


#: namedtuple's public API, `_`-prefixed so as not to clash with fields
NAMEDTUPLE_API = frozenset({"_fields", "_replace", "_asdict", "_make",
                            "_field_defaults"})


def private_reads(source: str, name: str) -> list:
    """Each read of a `_`-prefixed attribute (dunders and the namedtuple
    API aside) of an object other than self or cls in source, and each
    touch of `_cache` outside `FanoContext.memo` (or the store in
    `FanoContext.__init__`)."""
    offenders = []

    def visit(node, where):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            where = where + (node.name,)
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.endswith("__")
                and node.attr not in NAMEDTUPLE_API):
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            if owner not in ("self", "cls"):
                offenders.append(f"{name}:{node.lineno} reads .{node.attr}")
            if node.attr == "_cache" and where[-2:] != ("FanoContext", "memo") \
                    and not (where[-2:] == ("FanoContext", "__init__")
                             and isinstance(node.ctx, ast.Store)):
                offenders.append(f"{name}:{node.lineno} touches _cache")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), ())
    return offenders


def test_private_attributes_are_read_on_self_only():
    """No module reads a `_`-prefixed attribute (dunders aside) of an
    object other than self or cls, and a context's cache is touched
    only inside `FanoContext.memo` (and made empty in `__init__`): each
    per-context quantity is kept through that one method."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        offenders += private_reads(path.read_text(encoding="utf-8"), path.name)
    assert offenders == []


def test_the_namedtuple_api_is_not_a_private_read():
    """`_fields`, `_replace`, `_asdict`, `_make` and `_field_defaults`
    are namedtuple's public API and pass; a real private read next to
    them is still flagged."""
    source = (
        "def f(sums, row, ctx):\n"
        "    names = CtSums._fields + tuple(CtSums._field_defaults)\n"
        "    row = row._replace(s0=1)._asdict()\n"
        "    sums = CtSums._make(names)\n"
        "    return ctx._cache, ctx.tables._ct\n")
    assert private_reads(source, "m.py") == [
        "m.py:5 reads ._cache", "m.py:5 touches _cache", "m.py:5 reads ._ct"]


def test_no_whole_product_read_at_one_exponent():
    """No module builds a whole product only to read one exponent of
    it: `(u * v).coeff_of_aux(e)` and `(u * v).residue()` are
    `u.mul_coeff_of_aux(v, e)`, and `(u * v).coeff(...)` is
    `u.mul_coeff(v, ...)` (a BiSeries or a QSeries), each of which
    computes the exponents read alone."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("coeff_of_aux", "residue", "coeff")
                    and isinstance(node.func.value, ast.BinOp)
                    and isinstance(node.func.value.op, ast.Mult)):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_no_route_parameter():
    """Each quantity has one accessor and each oracle is a named
    function: no function or method takes a `route` to pick between
    them."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                a = node.args
                names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
                names += [x.arg for x in (a.vararg, a.kwarg) if x]
                if "route" in names:
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def load_spans():
    """The tracer module, loaded without installing it (installing
    would rebind module globals for the rest of the session)."""
    spec = importlib.util.spec_from_file_location("spans", SPANS_FILE)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_name_resolves():
    """Each (module, qualified name) of the tracer's SPANS and each
    cached FanoContext accessor it counts is a function of `fanogw`, so
    a rename fails here rather than only when a traced benchmark run
    installs."""
    spans = load_spans()
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


def test_tracer_hooks_read_the_series_objects():
    """The tracer's hooks read `len(.coeffs)` of product operands, and
    `.slices` and the Fraction denominators of each slice's `.coeffs`
    of an inverse; run on real objects, they count what the objects
    hold."""
    tracer = load_spans().Tracer()
    a = LaurentPoly(-1, (1, 0, 2))
    b = LaurentPoly(0, (Fraction(1, 3), 5))
    tracer._count_terms((a, b))
    tracer._count_terms((a, Fraction(2)))  # a scalar counts as one term
    assert tracer.counts["series.LaurentPoly.mul.terms"] == 3 * 2 + 3
    tracer._den_bits((), BiSeries([a, b]), None)
    assert tracer.counts["series.den_bits_max"] == 2  # 3 = 0b11
    inverse = ftilde_hbar(MultiDegree(5, (3,)), 3, 5).inv()
    tracer._den_bits((), inverse, None)
    want = max(c.denominator.bit_length()
               for s in inverse.slices for _, c in s.items())
    assert want > 2 and tracer.counts["series.den_bits_max"] == want


def test_import_loads_neither_dataclasses_nor_inspect():
    """Importing `fanogw` and `fanogw.cli` in a fresh interpreter leaves
    `dataclasses` and `inspect` unloaded: the records are NamedTuples,
    so every command's import skips those modules and their own
    imports.  `-S` keeps `site` (and any `.pth` file) from loading
    modules first."""
    probe = ("import sys, fanogw, fanogw.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
