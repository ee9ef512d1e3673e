"""The benchmark's workloads: which geometries each one sends, and in
which order.

Every workload has a fixed item set, so that runs with different seeds
do the same work; the run seed only fixes the order in which the items
are sent.  The cli-sweep item set is drawn once by ``gen_sweep.py`` and
committed in ``sweep.json``.
"""

from __future__ import annotations

import json
import random
from itertools import combinations_with_replacement
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: index-1 hypersurfaces X_n(n-1); X_14(13) is left out because one
#: sample of it alone takes about 51 s.
LADDER = ((8, (7,)), (10, (9,)), (12, (11,)))

#: the default check grid, as `fanogw.checks.GRID` has it at the commit
#: that defined this benchmark (copied so the workload cannot drift with
#: the program).
CHECK_GRID = ((5, (3,)), (6, (3,)), (7, (3,)), (7, (2, 2)), (9, (2, 2)),
              (6, (2, 3)))

WORKLOADS = ("index1-ladder", "check-grid", "cli-sweep")


def sweep_universe() -> list[tuple[int, tuple[int, ...]]]:
    """Every valid geometry with 5 <= n <= 12, index >= 2 and
    1 <= r <= 3 (r = 0, projective space, is not a valid input)."""
    out = []
    for n in range(5, 13):
        for r in (1, 2, 3):
            for degs in combinations_with_replacement(range(2, n), r):
                if n - sum(degs) >= 2 and n - 1 - r >= 1:
                    out.append((n, degs))
    return out


def load_sweep() -> list[tuple[int, tuple[int, ...]]]:
    data = json.loads((HERE / "sweep.json").read_text(encoding="utf-8"))
    return [(n, tuple(ds)) for n, ds in data["geometries"]]


def items(workload: str) -> list[tuple[int, tuple[int, ...]]]:
    if workload == "index1-ladder":
        return list(LADDER)
    if workload == "check-grid":
        return list(CHECK_GRID)
    if workload == "cli-sweep":
        return load_sweep()
    raise ValueError(f"unknown workload {workload!r}")


def ordered_items(workload: str, seed: int) -> list[tuple[int, tuple[int, ...]]]:
    """The workload's items in the order the given seed sends them."""
    out = items(workload)
    random.Random(seed).shuffle(out)
    return out

