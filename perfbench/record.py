"""Record a baseline: several runs of every workload, with the median,
quartiles and sample counts of each metric.

    python3 perfbench/record.py --first-seed 101

Writes ``baseline.json``.  Each run is the same as ``run.py --workload W
--seed S --seconds T`` with T from BENCHMARK.json: RUNS plain runs with
seeds from --first-seed upwards, then TRACED_RUNS traced runs with the
seeds after them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics

import run

RUNS = 10
TRACED_RUNS = 2


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def record(workload: str, seeds: list, traced_seeds: list) -> dict:
    seconds = run.SPEC["run_seconds"]
    plain, traced = [], []
    for seed in seeds:
        m = run.measure(workload, seed, seconds, traced=False)
        plain.append((m, run.end_to_end(m)))
        print(workload, seed, {k: round(v, 4) for k, v in plain[-1][1].items()},
              flush=True)
    for seed in traced_seeds:
        m = run.measure(workload, seed, seconds, traced=True)
        traced.append((m, run.per_layer(m)))
    ms = [m for m, _ in plain + traced]
    passes = [p for m in ms for p in m["plain"] + m["traced"]]
    out = {
        "end_to_end": {k: summary([v[k] for _, v in plain])
                       for k in plain[0][1]},
        "samples_per_run": {
            "passes": [len(m["plain"]) for m, _ in plain],
            "calls": [sum(len(p["calls"]) for p in m["plain"]) for m, _ in plain],
            "setups": [len(m["setups"]) for m, _ in plain],
        },
        "operations": {"attempted": sum(p["attempted"] for p in passes),
                       "failed": sum(p["failed"] for p in passes)},
    }
    if traced:
        keys = sorted({k for _, layers in traced for k in layers})
        out["per_layer"] = {k: statistics.median(l.get(k, 0) for _, l in traced)
                            for k in keys}
        out["traced_runs"] = len(traced)
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--first-seed", type=int, default=101)
    args = ap.parse_args()
    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    traced_seeds = list(range(seeds[-1] + 1, seeds[-1] + 1 + TRACED_RUNS))
    result = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {len(os.sched_getaffinity(0))} cpus",
        "run_seconds": run.SPEC["run_seconds"],
        "seeds": seeds,
        "traced_seeds": traced_seeds,
        "workloads": {w: record(w, seeds, traced_seeds)
                      for w in run.WORKLOADS},
    }
    (run.HERE / "baseline.json").write_text(json.dumps(result, indent=1) + "\n",
                                            encoding="utf-8")


if __name__ == "__main__":
    main()
