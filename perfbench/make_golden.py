"""Capture the golden answers of every workload into ``golden.json``.

    PYTHONPATH=src python3 perfbench/make_golden.py

Runs each workload once in-process through the same calls the benchmark
times, refuses to write if any operation reports an inconsistent row, a
failed check or a non-zero exit, and cross-checks the captured values
against values frozen in the test suite and against the degree-0 Chern
oracle before writing.
"""

from __future__ import annotations

import json
from fractions import Fraction

from child import GOLDEN, call, label, operations, setup
from workloads import WORKLOADS, items

#: standard (or reduced) invariants pinned in tests/test_invariants.py
FROZEN = (
    ((7, (2, 2)), "standard", ["-1/2", "-4/3", "0"]),
    ((6, (2, 3)), "standard", ["-1", "15/2", "0"]),
    ((7, (2, 4)), "reduced", ["5", "0", "104", "10240"]),
)


def capture(workload: str) -> dict:
    _, inputs = setup(workload, items(workload))
    golden = {}
    for name, arg in inputs:
        ops = operations(workload, call(workload, arg))
        errors = [err for _, err in ops if err is not None]
        if errors:
            raise SystemExit(f"{workload} {name}: {errors}")
        golden[name] = [value for value, _ in ops]
    return golden


def degree0_rows(golden: dict) -> dict:
    """The b = 0 row of every workload geometry, keyed by label."""
    out = {}
    for name, rows in golden["index1-ladder"].items():
        out[name] = rows[0]
    for name, ops in golden["cli-sweep"].items():
        out[name] = ops[0]["rows"][0]
    return out


def cross_check(golden: dict) -> None:
    from fanogw import MultiDegree, chern_degree0_oracle, invariant_table
    from fanogw.cli import fmt_rat

    for (n, ds), column, want in FROZEN:
        rows = invariant_table(MultiDegree(n, ds))
        got = [fmt_rat(getattr(r, column)) for r in rows][:len(want)]
        if got != want:
            raise SystemExit(f"{label(n, ds)} {column}: {got} != frozen {want}")

    rows0 = degree0_rows(golden)
    geometries = set(items("index1-ladder") + items("check-grid")
                     + items("cli-sweep"))
    for n, ds in sorted(geometries):
        md = MultiDegree(n, ds)
        row = rows0.get(label(n, ds))  # check-grid geometries have no rows
        standard = (Fraction(row[2]) if row is not None
                    else invariant_table(md, max_b=0)[0].standard)
        if standard != chern_degree0_oracle(md):
            raise SystemExit(f"{md.label()}: b=0 standard {standard} "
                             f"!= Chern {chern_degree0_oracle(md)}")


def main() -> None:
    golden = {workload: capture(workload) for workload in WORKLOADS}
    cross_check(golden)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    ops = {w: sum(len(v) for v in golden[w].values()) for w in WORKLOADS}
    print(f"wrote {GOLDEN.name}: {ops} operations; cross-checks passed")


if __name__ == "__main__":
    main()
