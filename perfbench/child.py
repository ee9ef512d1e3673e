"""One sample of a workload, run in a fresh interpreter.

    python3 perfbench/child.py MODE WORKLOAD ITEMS_JSON

MODE is ``setup`` (import the package and build the inputs), ``pass``
(set up, then one timed pass over the items) or ``trace`` (the same
pass with the per-layer spans of `spans.py` installed).  ITEMS_JSON is
the ordered list of ``[n, [degrees]]`` geometries to send.  The last
line of stdout is one JSON object.

An operation is one invariant row (index1-ladder), one named check
(check-grid) or one geometry's ``compute`` + ``conjectures`` pair
(cli-sweep).  It fails if its call raises, exits non-zero, reports an
inconsistent row or a failed check, or yields values other than the
golden ones in ``golden.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"


def label(n: int, degrees) -> str:
    return f"X_{n}({','.join(str(d) for d in degrees)})"


def _rat(x) -> str:
    return str(Fraction(x))


# ---------------------------------------------------------------------------
# set-up: what a caller pays before the first public call


def setup(workload: str, items) -> tuple[float, list]:
    """Import `fanogw` and `fanogw.cli` and build the workload's inputs;
    returns the seconds taken and the inputs."""
    t0 = time.perf_counter()
    import fanogw
    import fanogw.cli  # noqa: F401
    if workload == "cli-sweep":
        inputs = []
        for n, ds in items:
            geo = ["--ambient", str(n), "--degrees", ",".join(map(str, ds)),
                   "--format", "json"]
            inputs.append((label(n, ds), (["compute"] + geo,
                                          ["conjectures"] + geo)))
    else:
        inputs = [(label(n, ds), fanogw.MultiDegree(n, ds)) for n, ds in items]
    return time.perf_counter() - t0, inputs


# ---------------------------------------------------------------------------
# the public calls, looked up at call time so that the trace wrappers
# (and a test's substitutes) are the ones that run


def call(workload: str, arg):
    mods = sys.modules
    if workload == "index1-ladder":
        return mods["fanogw"].invariant_table(arg)
    if workload == "check-grid":
        return mods["fanogw.checks"].run_geometry_suite(arg)
    if workload == "cli-sweep":
        outs = []
        for argv in arg:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = mods["fanogw.cli"].main(argv)
            outs.append((rc, buf.getvalue()))
        return outs
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# operations: (canonical value, verdict error or None) per operation


def _row(b, a, standard, reduced, difference) -> list:
    return [int(b), int(a), _rat(standard), _rat(reduced), _rat(difference)]


def operations(workload: str, out) -> list[tuple[object, str | None]]:
    if workload == "index1-ladder":
        return [(_row(r.b, r.insertion_power, r.standard, r.reduced,
                      r.difference),
                 None if r.consistent else f"b={r.b} not consistent")
                for r in out]
    if workload == "check-grid":
        return [(r.name, None if r.ok else f"{r.name} failed") for r in out]
    return [_cli_operation(out)]


def _cli_operation(out) -> tuple[object, str | None]:
    (rc_compute, compute), (rc_conj, conj) = out
    if rc_compute != 0 or rc_conj != 0:
        return None, f"exit codes compute={rc_compute} conjectures={rc_conj}"
    try:
        compute, conj = json.loads(compute), json.loads(conj)
    except ValueError as exc:
        return None, f"unparsable output: {exc}"
    value = {
        "rows": [_row(r["b"], r["insertion_power"], r["standard"],
                      r["reduced"], r["difference"]) for r in compute["rows"]],
        "lemmas": [[c["name"], c["beta"], _rat(c["computed"]),
                    _rat(c["expected"])] for c in conj["lemmas"]],
        "conjectures": [[rep["conjecture"], c["beta"],
                         None if c["expected"] is None else _rat(c["expected"]),
                         _rat(c["computed"]), c["verdict"]]
                        for rep in conj["conjectures"] for c in rep["cases"]],
    }
    bad = [r["b"] for r in compute["rows"] if not r["consistent"]]
    if bad:
        return value, f"rows b={bad} not consistent"
    failed = [c["name"] for c in conj["lemmas"] if not c["pass"]]
    if failed or conj["lemma_failures"]:
        return value, f"lemmas failed: {failed}"
    return value, None


def judge(ops, golden: list) -> list[str | None]:
    """One verdict per golden operation, plus one per unexpected extra."""
    out = []
    for i, want in enumerate(golden):
        if i >= len(ops):
            out.append(f"operation {i} missing")
            continue
        value, err = ops[i]
        if err is None and value != want:
            err = f"operation {i}: got {value!r}, want {want!r}"
        out.append(err)
    out += [f"unexpected operation {i}" for i in range(len(golden), len(ops))]
    return out


# ---------------------------------------------------------------------------
# one pass


def run_calls(workload: str, inputs) -> tuple[list, list]:
    """Time each public call and keep its output, or the exception it
    raised; a call that raises does not stop the pass."""
    calls, outs = [], []
    for _, arg in inputs:
        t0 = time.perf_counter()
        try:
            out = call(workload, arg)
        except Exception as exc:  # judged as failed operations
            out = exc
        calls.append(time.perf_counter() - t0)
        outs.append(out)
    return calls, outs


def judge_pass(workload: str, inputs, outs, golden: dict) -> dict:
    """Judge every call's operations against the golden values; a call
    that raised fails every operation it owns."""
    attempted, errors = 0, []
    for (name, _), out in zip(inputs, outs):
        want = golden[name]
        if isinstance(out, Exception):
            verdicts = [f"{type(out).__name__}: {out}"] * len(want)
        else:
            verdicts = judge(operations(workload, out), want)
        attempted += len(verdicts)
        errors += [f"{name}: {v}" for v in verdicts if v is not None]
    return {"attempted": attempted, "failed": len(errors), "errors": errors}


def load_golden(workload: str) -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))[workload]


def main(argv: list[str]) -> int:
    mode, workload, items_json = argv
    items = [(n, tuple(ds)) for n, ds in json.loads(items_json)]
    setup_s, inputs = setup(workload, items)
    result = {"setup_s": setup_s}
    if mode in ("pass", "trace"):
        tracer = None
        if mode == "trace":
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
        calls, outs = run_calls(workload, inputs)
        # peak memory of set-up and the calls only: read before the
        # golden values are loaded and the outputs judged
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result.update(wall_s=sum(calls), calls=calls)
        if tracer is not None:
            result["layers"] = tracer.report()
        result.update(judge_pass(workload, inputs, outs, load_golden(workload)))
    elif mode != "setup":
        raise ValueError(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
