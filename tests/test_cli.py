"""CLI contracts: formats, exit codes, config/grid files, determinism
and the round-trip stability of the JSON emission."""

import json

import pytest

import fanogw.checks
from fanogw.cli import main

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
