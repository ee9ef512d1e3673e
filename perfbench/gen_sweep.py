"""Draw the cli-sweep geometry list and write it to ``sweep.json``.

    python3 perfbench/gen_sweep.py --seed 1

The draw is a uniform sample without replacement from
`workloads.sweep_universe()`.  The benchmark itself only reads the
committed list, so every run measures the same geometries.
"""

from __future__ import annotations

import argparse
import json
import random

from workloads import HERE, sweep_universe

SWEEP_SIZE = 40


def draw(seed: int, size: int = SWEEP_SIZE) -> list:
    return random.Random(seed).sample(sweep_universe(), size)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    universe = sweep_universe()
    payload = {
        "generator": "perfbench/gen_sweep.py",
        "seed": args.seed,
        "universe": "5 <= n <= 12, index >= 2, 1 <= r <= 3",
        "universe_size": len(universe),
        "geometries": [[n, list(ds)] for n, ds in draw(args.seed)],
    }
    (HERE / "sweep.json").write_text(json.dumps(payload, indent=1) + "\n",
                                     encoding="utf-8")
    print(f"wrote {SWEEP_SIZE} of {len(universe)} geometries")


if __name__ == "__main__":
    main()
