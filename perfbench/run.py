"""The fanogw benchmark.

    python3 perfbench/run.py --workload index1-ladder --seed 1 \\
        --seconds 30 --trace 0

Run from the root of a source checkout.  Every sample is a fresh Python
child (``child.py``) started one at a time, so each sample pays the
import cost a command-line user pays and no module-level state carries
over between samples.  A run

1. starts one unmeasured child that fills the bytecode cache (under
   ``.bench_build/``) with a pass over the workload's smallest item,
2. repeats rounds of SETUP_ROUND children that only import the package
   and build the inputs (`setup_s`) followed by one pass over the
   workload, until the next round would end after ``--seconds`` (always
   at least one round), then takes one more set of set-up samples.
   With ``--trace 1`` each pass is a pair: one plain pass and one with
   the per-layer spans installed.

The workload's items are fixed; ``--seed`` sets the order they are sent
in.  Every operation is judged against ``golden.json``.  Human-readable
lines go first; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, ordered_items

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_ROUND = 10
CHILD_TIMEOUT_S = 150

#: metric names and units, as BENCHMARK.json defines them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
LAYERS = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]

#: printed with the end-to-end metrics but not part of the result: a
#: percentile needs many calls per run, and index1-ladder has three
CALL_PERCENTILES = ("call_s.p50", "call_s.p75")


class BenchError(Exception):
    """The benchmark could not take a sample (not a failed operation)."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    # imports read cached bytecode, as from an installed package
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(mode: str, workload: str, items) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), mode, workload,
           json.dumps(items)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise BenchError(f"{mode} child exited {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Rounds of SETUP_ROUND set-up samples and one pass, until the next
    round would end after `seconds`; then a closing set of set-up
    samples, so that they span the whole run."""
    items = ordered_items(workload, seed)
    deadline = time.perf_counter() + seconds
    # a pass over the smallest item fills the bytecode cache, lazy
    # imports included
    run_child("pass", workload, [min(items)])

    def setup_round():
        return [run_child("setup", workload, items)["setup_s"]
                for _ in range(SETUP_ROUND)]

    setups, plain, with_spans = [], [], []
    while True:
        t0 = time.perf_counter()
        setups += setup_round()
        # traced rounds alternate which pass goes first, so that a drift
        # in machine speed does not bias trace.overhead_frac
        modes = ["pass", "trace"] if traced else ["pass"]
        for mode in modes[::-1] if len(plain) % 2 else modes:
            (with_spans if mode == "trace" else plain).append(
                run_child(mode, workload, items))
        if time.perf_counter() + (time.perf_counter() - t0) > deadline:
            break
    setups += setup_round()
    return {"setups": setups + [p["setup_s"] for p in plain],
            "plain": plain, "traced": with_spans}


def end_to_end(m: dict) -> dict:
    calls = [c for p in m["plain"] for c in p["calls"]]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in m["plain"]),
        "setup_s": statistics.median(m["setups"]),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in m["plain"]),
        "call_s.p50": statistics.median(calls),
        "call_s.p75": statistics.quantiles(calls, n=4)[2],
    }


def per_layer(m: dict) -> dict:
    """Median over the traced passes of every quantity that all of them
    measured."""
    keys = sorted(set.intersection(*(set(p["layers"]) for p in m["traced"])))
    out = {k: statistics.median(p["layers"][k] for p in m["traced"])
           for k in keys}
    plain = statistics.median(p["wall_s"] for p in m["plain"])
    traced = statistics.median(p["wall_s"] for p in m["traced"])
    out["trace.overhead_frac"] = traced / plain - 1
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="fanogw benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fanogw" / "__init__.py").is_file():
        print(f"error: no fanogw source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    passes = m["plain"] + m["traced"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for err in [e for p in passes for e in p["errors"]][:10]:
        print(f"FAILED {err}", file=sys.stderr)
    n_calls = sum(len(p["calls"]) for p in m["plain"])
    print(f"{args.workload} seed={args.seed}: {len(m['plain'])} passes, "
          f"{n_calls} calls, {len(m['setups'])} set-ups"
          + (f", {len(m['traced'])} traced passes" if args.trace else ""))
    if args.trace:
        values = per_layer(m)
        for key, value in values.items():
            print(f"  {key:44s} {value:.6g}")
        wanted = LAYERS
    else:
        values = end_to_end(m)
        for key, unit in END_TO_END + [(k, "s") for k in CALL_PERCENTILES]:
            print(f"  {key:44s} {values[key]:.6g} {unit}")
        wanted = END_TO_END
    print(f"  {'fail_frac':44s} {failed / attempted:.6g} "
          f"({failed} of {attempted} operations)")
    unmeasured = [k for k, _ in wanted if k not in values]
    if unmeasured:
        print(f"error: not measured: {', '.join(unmeasured)}", file=sys.stderr)
        return 2
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": unit}
                    for k, unit in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
