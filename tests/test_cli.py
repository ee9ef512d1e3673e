"""CLI contracts: formats, exit codes, config/grid files, determinism
and the round-trip stability of the JSON emission."""

import csv
import io
import json
import os
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fanogw
import fanogw.checks
import fanogw.sums
from fanogw.cli import fmt_rat, main
from fanogw.geometry import MultiDegree
from fanogw.sums import u1_beta2_conjectured

from helpers import corrupt_ctilde


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_json_degree0_row(capsys):
    code, out, _ = run(capsys, "compute", "--ambient", "5", "--degrees", "3",
                       "--max-b", "0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ambient"] == 5
    assert payload["degrees"] == [3]
    assert payload["index"] == 2 and payload["dim"] == 3
    assert payload["rows"] == [{
        "b": 0, "insertion_power": 1, "standard": "-1/2",
        "reduced": "-1/2", "difference": "0", "consistent": True,
    }]


def test_compute_rejects_linear_degree(capsys):
    code, _, err = run(capsys, "compute", "--ambient", "5", "--degrees", "1")
    assert code == 1 and "degree" in err


def test_compute_rejects_nonfano(capsys):
    code, _, err = run(capsys, "compute", "--ambient", "4", "--degrees", "2,2")
    assert code == 1 and "Fano" in err


@pytest.mark.parametrize("degrees", [",", ""])
def test_compute_rejects_projective_space(capsys, degrees):
    code, out, err = run(capsys, "compute", "--ambient", "4",
                         "--degrees", degrees)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "projective space" in err


def test_grid_rejects_projective_space(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("5:3\n5\n", encoding="utf-8")
    code, out, err = run(capsys, "check", "--grid", str(grid))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "projective space" in err


@pytest.mark.parametrize("argv,code", [
    (["compute", "--bogus"], 1),
    (["compute", "--ambient", "x", "--degrees", "3"], 1),
    (["compute", "--ambient", "5", "--degrees", "3", "--format", "xml"], 1),
    (["frobnicate"], 1),
    ([], 1),
    (["--help"], 0),
    (["compute", "--help"], 0),
    # each verb rejects the flags it never reads
    (["compute", "--ambient", "5", "--degrees", "3", "--grid", "g.txt"], 1),
    (["compute", "--ambient", "5", "--degrees", "3", "--hj-table", "h"], 1),
    (["check", "--ambient", "5", "--degrees", "3", "--max-b", "1"], 1),
    (["check", "--ambient", "5", "--degrees", "3", "--hj-table", "h"], 1),
    (["conjectures", "--order", "1"], 1),
])
def test_argument_exit_codes(capsys, argv, code):
    try:
        got = main(argv)
    except SystemExit as exc:  # --help exits through argparse
        got = exc.code
    out = capsys.readouterr()
    assert got == code
    if code == 1:
        assert out.out == "" and out.err.startswith("error: ")
        assert out.err.count("\n") == 1


def test_runs_in_one_process_match_fresh_processes(capsys):
    """`main` builds its parser once per process and reuses it: a JSON
    compute, a bad flag and a text compute run one after another here
    give the bytes and exit codes of three fresh processes."""
    env = dict(os.environ, PYTHONPATH=str(Path(fanogw.__file__).parents[1]))
    geometry = ["--ambient", "6", "--degrees", "2,3"]
    results = []
    for argv in (["compute", *geometry, "--format", "json"],
                 ["compute", *geometry, "--bogus", "1"],
                 ["compute", *geometry]):
        here = run(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "fanogw.cli", *argv],
                               capture_output=True, text=True, env=env)
        assert here == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        results.append(here)
    (code_json, out_json, _), (code_bad, _, err), (code_text, out_text, _) = results
    assert (code_json, code_bad, code_text) == (0, 1, 0)
    assert json.loads(out_json)["rows"] and out_text.startswith("X_6(2,3)")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_config_rejects_unknown_format(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ambient=5\ndegrees=3\nformat=xml\n", encoding="utf-8")
    code, out, err = run(capsys, "compute", "--config", str(cfg))
    assert code == 1 and out == "" and "xml" in err


def test_compute_missing_geometry(capsys):
    code, _, err = run(capsys, "compute")
    assert code == 1 and "ambient" in err


def test_compute_csv(capsys):
    code, out, _ = run(capsys, "compute", "--ambient", "7", "--degrees", "2,2",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "b,insertion_power,standard,reduced,difference,consistent"
    assert lines[1] == "0,1,-1/2,-1/2,0,true"
    assert lines[2] == "1,4,-4/3,0,-4/3,true"
    assert lines[3] == "2,7,0,0,0,true"


def test_csv_rows_parse_on_the_default_grid(capsys):
    """Every verb's CSV parses with csv.reader into rows of the header's
    width, and the geometry column holds whole labels: X_7(2,2) is one
    field."""
    grid = fanogw.checks.default_grid()
    verbs = [["compute", "--ambient", str(md.n),
              "--degrees", ",".join(map(str, md.degrees))] for md in grid]
    for argv in verbs + [["check"], ["conjectures"]]:
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        head, *rows = csv.reader(io.StringIO(out))
        assert rows and all(len(row) == len(head) for row in rows), argv
        if "geometry" in head:
            col = head.index("geometry")
            assert {row[col] for row in rows} == {md.label() for md in grid}


def test_compute_degrees_are_normalized(capsys):
    _, a, _ = run(capsys, "compute", "--ambient", "6", "--degrees", "3,2",
                  "--format", "json")
    _, b, _ = run(capsys, "compute", "--ambient", "6", "--degrees", "2,3",
                  "--format", "json")
    assert a == b


def test_compute_deterministic_and_roundtrip(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["compute", "--ambient", "5", "--degrees", "3",
                 "--format", "json", "--out", str(out1)]) == 0
    assert main(["compute", "--ambient", "5", "--degrees", "3",
                 "--format", "json", "--out", str(out2)]) == 0
    raw1, raw2 = out1.read_bytes(), out2.read_bytes()
    assert raw1 == raw2
    # parsing and re-serializing with the same canonical dump is stable
    payload = json.loads(raw1)
    assert (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode() == raw1


def test_order_padding_does_not_change_output(capsys):
    _, a, _ = run(capsys, "compute", "--ambient", "6", "--degrees", "2,3",
                  "--format", "csv")
    _, b, _ = run(capsys, "compute", "--ambient", "6", "--degrees", "2,3",
                  "--format", "csv", "--order", "2")
    assert a == b


def test_config_file_presets_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ambient = 5\ndegrees = 3\nformat = csv\nmax-b = 0\n",
                   encoding="utf-8")
    code, out, _ = run(capsys, "compute", "--config", str(cfg))
    assert code == 0 and out.splitlines()[1].startswith("0,1,-1/2")
    # flags win over the file
    code, out, _ = run(capsys, "compute", "--config", str(cfg),
                       "--format", "json")
    assert code == 0 and out.lstrip().startswith("{")


@pytest.mark.parametrize("verb,foreign", [
    ("compute", "grid = missing.txt\nhj-table = missing.txt\n"),
    ("check", "max-b = -1\nhj-table = missing.txt\n"),
    ("conjectures", "order = -1\n"),
], ids=["compute", "check", "conjectures"])
def test_config_keys_for_other_verbs_are_ignored(tmp_path, capsys, verb,
                                                  foreign):
    # a config file is shared by all verbs: a key for a flag this verb
    # rejects on the command line is accepted and ignored
    plain = tmp_path / "plain.cfg"
    plain.write_text("ambient = 5\ndegrees = 3\nformat = csv\n",
                     encoding="utf-8")
    shared = tmp_path / "shared.cfg"
    shared.write_text(plain.read_text(encoding="utf-8") + foreign,
                      encoding="utf-8")
    want = run(capsys, verb, "--config", str(plain))
    assert want[0] == 0
    assert run(capsys, verb, "--config", str(shared)) == want


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ambient=5\ndegrees=3\nbogus=1\n", encoding="utf-8")
    code, _, err = run(capsys, "compute", "--config", str(cfg))
    assert code == 1 and "bogus" in err


def test_check_single_geometry_passes(capsys):
    code, out, _ = run(capsys, "check", "--ambient", "5", "--degrees", "3")
    assert code == 0
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_check_corrupted_ctilde_fails_convolution(monkeypatch, capsys):
    real = fanogw.checks.CoeffTables

    def corrupted(md, **bounds):
        tables = real(md, **bounds)
        corrupt_ctilde(monkeypatch, tables, 3, 1, 1)
        return tables

    monkeypatch.setattr(fanogw.checks, "CoeffTables", corrupted)
    code, out, _ = run(capsys, "check", "--ambient", "5", "--degrees", "3",
                       "--format", "csv")
    assert code == 2
    assert "X_5(3),convolution-identity,false" in out.splitlines()


def test_check_fails_on_a_scaled_type_a(monkeypatch, capsys):
    """`a-double-residue` compares type A with its second route, so a
    wrong type A fails `fanogw check` on X_6(2,3), where type A is
    nonzero."""
    real = fanogw.checks.type_a
    monkeypatch.setattr(fanogw.checks, "type_a",
                        lambda ctx, b: real(ctx, b) * Fraction(7, 3))
    code, out, _ = run(capsys, "check", "--ambient", "6", "--degrees", "2,3",
                       "--format", "csv")
    assert code == 2
    assert '"X_6(2,3)",a-double-residue,false' in out.splitlines()


@pytest.mark.parametrize("n,degrees", [(6, (2, 3)), (8, (7,)), (10, (9,))])
def test_a_double_residue_catches_a_scaled_type_a(monkeypatch, n, degrees):
    md = MultiDegree(n, degrees)
    assert fanogw.checks.check_a_double_residue(md)
    real = fanogw.checks.type_a
    monkeypatch.setattr(fanogw.checks, "type_a",
                        lambda ctx, b: real(ctx, b) * Fraction(7, 3))
    assert not fanogw.checks.check_a_double_residue(md)


def test_check_grid_file(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("5:3\n6:2,2\n", encoding="utf-8")
    code, out, _ = run(capsys, "check", "--grid", str(grid), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert [c["ambient"] for c in payload["cases"]] == [5, 6]


def test_conjectures_default_exit_zero_with_disagreements(capsys):
    code, out, _ = run(capsys, "conjectures", "--ambient", "5", "--degrees",
                       "3", "--format", "csv")
    assert code == 0  # disagreements are reported, never fatal
    assert "disagree" in out  # the printed V3 beta=2 form fails
    assert "skipped: undefined symbol" in out


def test_conjectures_json_shape(capsys):
    code, out, _ = run(capsys, "conjectures", "--ambient", "7", "--degrees",
                       "2,2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lemma_failures"] == 0
    names = {rep["conjecture"] for rep in payload["conjectures"]}
    assert names == {"U3", "U1_vanishing", "U1_beta2", "V1", "V2", "V3"}
    v2 = next(r for r in payload["conjectures"] if r["conjecture"] == "V2")
    assert all(c["verdict"] == "agree" for c in v2["cases"])


def test_conjectures_computes_each_structure_sum_once(monkeypatch, capsys):
    """The lemmas and the conjectures read one list of sums: one
    `compute_sums` call per (geometry, beta) of the default grid."""
    calls = []
    real = fanogw.sums.compute_sums

    def counting(tables, beta):
        calls.append((tables.md, beta))
        return real(tables, beta)

    monkeypatch.setattr(fanogw.sums, "compute_sums", counting)
    code, _, _ = run(capsys, "conjectures", "--max-b", "2")
    assert code == 0
    assert Counter(calls) == Counter(
        (md, beta) for md in fanogw.checks.default_grid() for beta in range(3))


def test_conjectures_hj_table(tmp_path, capsys):
    hj = tmp_path / "hj.txt"
    hj.write_text("1 2 1\n1 3 1\n2 2 1\n2 3 1\n", encoding="utf-8")
    code, out, _ = run(capsys, "conjectures", "--ambient", "6", "--degrees",
                       "2,3", "--format", "json", "--hj-table", str(hj))
    assert code == 0
    payload = json.loads(out)
    u1b2 = next(r for r in payload["conjectures"]
                if r["conjecture"] == "U1_beta2")
    assert all(c["verdict"] != "skipped: undefined symbol"
               for c in u1b2["cases"])


HJ_34 = {(1, 3): "2/7", (1, 4): "-1/3", (2, 3): "5", (2, 4): "1/2"}


def _hj_34_run(tmp_path, capsys, table):
    path = tmp_path / "hj.txt"
    path.write_text("".join(f"{j} {d} {v}\n" for (j, d), v in table.items()),
                    encoding="utf-8")
    return run(capsys, "conjectures", "--ambient", "8", "--degrees", "3,4",
               "--hj-table", str(path), "--format", "csv")


def test_conjectures_hj_table_lookups(tmp_path, capsys):
    """X_8(3,4) has 2|d| - n - r - 2 = 2, so U1 at beta = 2 reads every
    h_j(d) with j <= 2 from the table."""
    code, out, _ = _hj_34_run(tmp_path, capsys, HJ_34)
    assert code == 0
    md = MultiDegree(8, (3, 4))
    vals = {k: Fraction(v) for k, v in HJ_34.items()}
    want = u1_beta2_conjectured(md, lambda j, d: vals[(j, d)])
    row = next(ln for ln in out.splitlines()
               if ln.startswith("conjecture,U1_beta2,"))
    assert row == f'conjecture,U1_beta2,"X_8(3,4)",2,{fmt_rat(want)},1306656,disagree'
    assert want == Fraction(-13123584, 49)


def test_conjectures_hj_table_missing_entry(tmp_path, capsys):
    table = {k: v for k, v in HJ_34.items() if k != (2, 4)}
    code, out, err = _hj_34_run(tmp_path, capsys, table)
    assert code == 1 and out == ""
    assert err == "error: h_j table has no entry for j=2, d=4\n"


def test_invalid_order_rejected(capsys):
    code, _, err = run(capsys, "compute", "--ambient", "5", "--degrees", "3",
                       "--order", "-1")
    assert code == 1 and "order" in err


def test_text_output_lists_all_rows(capsys):
    code, out, _ = run(capsys, "compute", "--ambient", "6", "--degrees", "2,3")
    assert code == 0
    assert out.count("\n") == 2 + 6  # header lines + six degrees
    assert "15/2" in out


@pytest.mark.parametrize("verb,flag,text,lineno", [
    ("check", "--grid", "5:3\nabc\n", 2),
    ("conjectures", "--hj-table", "1 2\n", 1),
    ("conjectures", "--hj-table", "# h_j(d)\n1 2 1/0\n", 2),
    ("compute", "--config", "degrees=3\nambient=x\n", 2),
])
def test_input_file_errors_name_file_and_line(tmp_path, capsys, verb, flag,
                                              text, lineno):
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, verb, flag, str(path))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert f"{path}:{lineno}:" in err
    assert repr(text.splitlines()[lineno - 1]) in err


@pytest.mark.parametrize("verb", ["check", "conjectures"])
def test_grid_file_listing_no_geometry_fails(tmp_path, capsys, verb):
    """A grid file with only comments and blank lines runs nothing, so
    it is an error, not a vacuous pass."""
    grid = tmp_path / "grid.txt"
    grid.write_text("# no geometry here\n\n   \n", encoding="utf-8")
    code, out, err = run(capsys, verb, "--grid", str(grid))
    assert code == 1 and out == ""
    assert err == f"error: {grid}: no geometry listed\n"


# -- fuzzing the flag grammar

FLAGS = ("--ambient", "--degrees", "--max-b", "--order", "--format", "--out",
         "--grid", "--hj-table", "--config", "--bogus")
#: input files for the path flags, by name
FILES = {
    "cfg": "ambient = 5\ndegrees = 3\n",
    "cfg_bad": "ambient = five\n",
    "grid": "5:3\n",
    "grid_bad": "5:1\n",
    "hj": "1 2 1\n2 3 -1/2\n",
    "hj_bad": "1 2\n",
}
JUNK = ("", "x", ",", "-", "--", "1/0", "nan", "2,,3", "3,x", "1e3", " ")
#: the flags that pick a geometry for `check` instead of the default grid
GEOMETRY = {"--ambient", "--degrees", "--grid", "--config"}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in FILES.items():
        (root / name).write_text(text, encoding="utf-8")
    return root


@st.composite
def argvs(draw, root):
    """A verb, often a geometry, and up to four more flags (repeats
    allowed).  Each flag mostly gets a value of its own kind (a small
    integer, a degree list, a format, an input file that is valid,
    malformed or missing), otherwise a junk token, any small integer or
    no value at all.  --out only ever names a file or the directory
    under root."""
    ints = st.integers(-1, 9).map(str)
    path = st.sampled_from(sorted(FILES) + ["missing"]).map(
        lambda name: str(root / name))
    own = {
        "--ambient": ints,
        "--degrees": st.lists(st.integers(1, 6), max_size=3).map(
            lambda ds: ",".join(map(str, ds))),
        "--max-b": st.integers(-1, 3).map(str),
        "--order": st.integers(-1, 3).map(str),
        "--format": st.sampled_from(("text", "csv", "json")),
        "--out": st.sampled_from((str(root / "out.txt"), str(root))),
        "--grid": path, "--hj-table": path, "--config": path,
        "--bogus": st.none(),
    }
    stray = st.one_of(st.sampled_from(JUNK), ints, st.none())
    argv = [draw(st.sampled_from(("compute", "check", "conjectures") * 3
                                 + ("frobnicate",)))]
    if draw(st.booleans()):  # mostly a valid geometry
        argv += ["--ambient", str(draw(st.integers(3, 9))), "--degrees",
                 ",".join(map(str, draw(st.lists(st.integers(2, 5),
                                                 min_size=1, max_size=2))))]
    for flag in draw(st.lists(st.sampled_from(FLAGS), max_size=4)):
        kind = own[flag]
        v = draw(kind if flag == "--out" else st.one_of(kind, kind, stray))
        argv += [flag] if v is None else [flag, v]
    return argv


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cli_fuzz_exits_cleanly(fuzz_dir, data):
    argv = data.draw(argvs(fuzz_dir))
    # the full default-grid check is slow and covered elsewhere
    assume(argv[0] != "check" or GEOMETRY & set(argv))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert err.getvalue().count("\n") <= 1
