"""The benchmark's own tests (kept out of the tier-1 suite by name).

    python3 -m pytest -q perfbench/check_bench.py

They show that a failed operation is counted rather than hidden, that
the trace reproduces exact call counts of the program, and that the
committed workload files match their generators.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
import gen_sweep  # noqa: E402
import run  # noqa: E402
from workloads import LADDER, load_sweep  # noqa: E402


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _copy_tree(dst: Path, with_source: bool = True) -> Path:
    shutil.copytree(HERE, dst / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dst / "BENCHMARK.json")
    if with_source:
        shutil.copytree(ROOT / "src", dst / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return dst


def _bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=root, capture_output=True, text=True, timeout=170)


def test_corrupted_golden_value_gives_nonzero_fail_frac(tmp_path):
    root = _copy_tree(tmp_path)
    path = root / "perfbench" / "golden.json"
    golden = json.loads(path.read_text())
    row = golden["cli-sweep"]["X_5(2)"][0]["rows"][0]
    row[2] = "1/7"  # the b = 0 standard invariant
    path.write_text(json.dumps(golden))
    proc = _bench(root, "--workload", "cli-sweep", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    res = _result(proc.stdout)
    assert res["correct"] is False
    assert res["failed"] == 1 and res["attempted"] == 40
    fail_frac = [ln for ln in proc.stdout.splitlines() if "fail_frac" in ln]
    assert fail_frac and float(fail_frac[0].split()[1]) > 0
    assert "X_5(2)" in proc.stderr


def test_exception_counts_as_failed_operation(monkeypatch):
    import fanogw.cli

    real = fanogw.cli.invariant_table

    def flaky(md, *args, **kwargs):
        if md.n == 5:
            raise ZeroDivisionError("injected")
        return real(md, *args, **kwargs)

    monkeypatch.setattr(fanogw.cli, "invariant_table", flaky)
    items = [(5, (2,)), (6, (2,))]
    _, inputs = child.setup("cli-sweep", items)
    calls, outs = child.run_calls("cli-sweep", inputs)
    assert len(calls) == 2
    res = child.judge_pass("cli-sweep", inputs, outs,
                           child.load_golden("cli-sweep"))
    assert res["attempted"] == 2 and res["failed"] == 1
    assert "ZeroDivisionError: injected" in res["errors"][0]


def test_trace_refuses_a_missing_function(monkeypatch):
    import fanogw.checks  # noqa: F401
    import fanogw.cli  # noqa: F401
    import fanogw.series
    from spans import Tracer

    monkeypatch.delattr(fanogw.series.BiSeries, "inv")
    with pytest.raises(RuntimeError, match=r"not found: fanogw\.series\.BiSeries\.inv$"):
        Tracer().install()


def _layers(workload: str, items) -> dict:
    res = run.run_child("trace", workload, items)
    assert res["failed"] == 0, res["errors"]  # golden answers hold traced
    return res["layers"]


def test_trace_pins_check_grid_counts():
    from workloads import CHECK_GRID
    layers = _layers("check-grid", list(CHECK_GRID))
    assert layers["hyper.FanoContext.calls"] == 77
    assert layers["tables.CoeffTables.calls"] == 89


def test_trace_pins_ladder_inverse_counts():
    counts = [_layers("index1-ladder", [g])["series.BiSeries.inv.calls"]
              for g in LADDER]
    assert counts == [15, 19, 23]
    assert sum(counts) == 57


def test_sweep_list_is_the_generators_draw():
    data = json.loads((HERE / "sweep.json").read_text())
    assert len(gen_sweep.sweep_universe()) == data["universe_size"]
    assert load_sweep() == gen_sweep.draw(data["seed"])


def test_fails_without_program_source(tmp_path):
    root = _copy_tree(tmp_path, with_source=False)
    proc = _bench(root, "--workload", "check-grid", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
