"""Command-line front end.

Verbs:

* compute     -- the invariant table of one geometry;
* check       -- the exact identity suite, per geometry or on the
                 default grid;
* conjectures -- brute force vs the conjectural closed forms, with the
                 proven lemmas gating the exit code.

Exit codes: 0 success, 1 invalid input, 2 mathematical consistency
failure.  All output is deterministic (byte-identical reruns); rationals
are serialized as lowest-term "p/q" strings, never floats.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from .checks import default_grid, run_geometry_suite
from .geometry import MultiDegree
from .invariants import invariant_table
from .sums import (check_proven_identities, evaluate_conjectures,
                   sums_by_degree, tables_for_sums)

TEXT, CSV, JSON = "text", "csv", "json"
FORMATS = (TEXT, CSV, JSON)


def fmt_rat(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# config / input files


def _parse_lines(path: str, parse) -> list:
    """parse(line) for every line of the file that is neither blank nor a
    # comment.  A line that does not parse is reported with the file,
    the line number and its text."""
    with open(path, encoding="utf-8") as fh:
        raw_lines = fh.readlines()
    out = []
    for lineno, raw in enumerate(raw_lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            out.append(parse(line))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {line!r}: {exc}") from None
    return out


def _config_entry(line: str) -> tuple:
    """A `key = value` line: any flag but `config` itself, its value
    typed and checked as the flag's `_FLAGS` settings say."""
    key, eq, val = line.partition("=")
    key, val = key.strip(), val.strip()
    if not eq:
        raise ValueError("config line without '='")
    settings = _FLAGS.get(key) if key != "config" else None
    if settings is None:
        raise ValueError(f"unknown config key {key!r}")
    val = settings.get("type", str)(val)
    choices = settings.get("choices")
    if choices is not None and val not in choices:
        raise ValueError(f"config {key} {val!r} is not one of "
                         f"{', '.join(choices)}")
    return key, val


def _parse_degrees(text: str) -> tuple:
    try:
        return tuple(int(p) for p in text.split(",") if p.strip() != "")
    except ValueError:
        raise ValueError(f"cannot parse degrees {text!r}")


def _grid_entry(line: str) -> MultiDegree:
    n_part, _, d_part = line.partition(":")
    return MultiDegree(int(n_part), _parse_degrees(d_part))


def _load_grid(path: str) -> list[MultiDegree]:
    """The geometries a grid file lists, sorted; a file that lists none
    is an error, not a vacuous pass."""
    grid = _parse_lines(path, _grid_entry)
    if not grid:
        raise ValueError(f"{path}: no geometry listed")
    return sorted(grid, key=lambda md: (md.n, md.degrees))


def _hj_entry(line: str) -> tuple:
    parts = line.split()
    if len(parts) != 3:
        raise ValueError("expected 'j d value'")
    j, d, val = parts
    try:
        return (int(j), int(d)), Fraction(val)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {val!r}") from None


def _load_hj_table(path: str):
    """Lines "j d value" defining the otherwise-undefined h_j(d)."""
    table = dict(_parse_lines(path, _hj_entry))

    def hj(j: int, d: int) -> Fraction:
        try:
            return table[(j, d)]
        except KeyError:
            raise ValueError(f"h_j table has no entry for j={j}, d={d}")
    return hj


# ---------------------------------------------------------------------------
# output: each verb lists its printed rows once, as dicts of fields
# (rationals already lowest-term strings), and `_render` lays them out


class _Rows(NamedTuple):
    """Rows of one kind and their text layout: `line` is a template over
    a row's fields, `words` print a verdict (True, False) in it."""
    rows: list
    line: str
    words: tuple = ("true", "false")


class _Report(NamedTuple):
    """What a verb prints and its exit code.  `json()` builds the JSON
    document from the rows; CSV prints the `columns` fields of every
    `body` row; text prints one line per `head`, `body` and `foot` row."""
    code: int
    json: Callable[[], dict]
    columns: str
    body: tuple
    head: tuple = ()
    foot: tuple = ()


def _json(row: dict, keys: str) -> dict:
    """The named fields of a row as one JSON object, a geometry as its
    ambient and degrees (CSV and text print its label)."""
    obj = {}
    for key in keys.split():
        if key == "geometry":
            obj.update(ambient=row[key].n, degrees=list(row[key].degrees))
        else:
            obj[key] = row[key]
    return obj


def _flat(value, missing: str, words: tuple):
    """A field as CSV or text prints it: a geometry by its label, a
    missing value as `missing`, a verdict as one of `words`."""
    if isinstance(value, MultiDegree):
        return value.label()
    if value is None:
        return missing
    if isinstance(value, bool):
        return words[0] if value else words[1]
    return value


def _render(fmt: str, report: _Report) -> str:
    """The report in fmt, the one place that branches on the format;
    only that format is laid out.  CSV fields are quoted where they
    need it (a geometry label such as X_7(2,2) holds commas)."""
    if fmt == JSON:
        return json.dumps(report.json(), indent=2, sort_keys=True) + "\n"
    if fmt == CSV:
        keys = report.columns.split(",")
        buf = io.StringIO()
        out = csv.writer(buf, lineterminator="\n")
        out.writerow(keys)
        out.writerows([_flat(row[k], "", ("true", "false")) for k in keys]
                      for part in report.body for row in part.rows)
        return buf.getvalue()
    parts = (*report.head, *report.body, *report.foot)
    return "".join(
        part.line.format(**{k: _flat(v, "-", part.words)
                            for k, v in row.items()}) + "\n"
        for part in parts for row in part.rows)


_TABLE_LINE = ("{b:>3} {insertion_power:>4} {standard:>18} {reduced:>18} "
               "{difference:>18} {consistent:>3}")
_TABLE_TITLES = {"b": "b", "insertion_power": "a", "standard": "standard",
                 "reduced": "reduced", "difference": "difference",
                 "consistent": "ok"}


def cmd_compute(md: MultiDegree, max_b: int | None, pad: int) -> _Report:
    about = {"geometry": md, "index": md.nu, "dim": md.dim}
    rows = [{"b": r.b, "insertion_power": r.insertion_power,
             "standard": fmt_rat(r.standard), "reduced": fmt_rat(r.reduced),
             "difference": fmt_rat(r.difference), "consistent": r.consistent}
            for r in invariant_table(md, max_b=max_b, pad=pad)]
    return _Report(
        code=0 if all(row["consistent"] for row in rows) else 2,
        json=lambda: {**_json(about, "geometry index dim"), "rows": rows},
        columns=",".join(_TABLE_TITLES),
        body=(_Rows(rows, _TABLE_LINE, ("yes", "NO")),),
        head=(_Rows([about], "{geometry}  index={index}  dim={dim}"),
              _Rows([_TABLE_TITLES], _TABLE_LINE)))


def cmd_check(geometries: list[MultiDegree], pad: int) -> _Report:
    cases = [({"geometry": md},
              [{"geometry": md, "check": r.name, "pass": r.ok}
               for r in run_geometry_suite(md, pad=pad)])
             for md in geometries]
    rows = [row for _, checks in cases for row in checks]
    ok = all(row["pass"] for row in rows)
    return _Report(
        code=0 if ok else 2,
        json=lambda: {"suite": "check", "all_pass": ok, "cases": [
            {**_json(about, "geometry"), "checks": [
                {"name": row["check"], "pass": row["pass"]} for row in checks]}
            for about, checks in cases]},
        columns="geometry,check,pass",
        body=(_Rows(rows, "{pass} {geometry:12s} {check}", ("PASS", "FAIL")),),
        foot=(_Rows([{"ok": ok}], "{ok}",
                    ("all checks passed", "CHECK FAILURES PRESENT")),))


def cmd_conjectures(geometries: list[MultiDegree], beta_max: int,
                    hj) -> _Report:
    sums = [sv for md in geometries
            for sv in sums_by_degree(tables_for_sums(md, beta_max))]
    lemmas = [{"kind": "lemma", "name": c.name, "geometry": c.md,
               "beta": c.beta, "expected": fmt_rat(c.expected),
               "computed": fmt_rat(c.computed), "pass": c.ok,
               "verdict": "pass" if c.ok else "fail"}
              for c in check_proven_identities(sums)]
    reports = [(rep.conjecture, [
        {"kind": "conjecture", "name": rep.conjecture, "geometry": c.md,
         "beta": c.beta, "computed": fmt_rat(c.computed),
         "expected": None if c.expected is None else fmt_rat(c.expected),
         "verdict": c.verdict}
        for c in rep.cases]) for rep in evaluate_conjectures(sums, hj=hj)]
    failures = sum(not row["pass"] for row in lemmas)
    return _Report(
        code=0 if failures == 0 else 2,
        json=lambda: {
            "suite": "conjectures",
            "lemma_failures": failures,
            "lemmas": [_json(row, "name geometry beta computed expected pass")
                       for row in lemmas],
            "conjectures": [
                {"conjecture": name, "cases": [
                    _json(row, "geometry beta expected computed verdict")
                    for row in cases]}
                for name, cases in reports]},
        columns="kind,name,geometry,beta,expected,computed,verdict",
        body=(_Rows(lemmas, "{pass} lemma {name} {geometry} beta={beta}",
                    ("PASS", "FAIL")),
              _Rows([row for _, cases in reports for row in cases],
                    "{name:12s} {geometry:12s} beta={beta} expected={expected}"
                    " computed={computed} -> {verdict}")))


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    """Argument errors reach main's one-line handler (exit 1) instead of
    argparse's usage dump and exit 2, which is kept for consistency
    failures."""

    def error(self, message):
        raise ValueError(message)


#: every flag and its argparse settings
_FLAGS = {
    "ambient": dict(type=int, help="n: the ambient space is P^{n-1}"),
    "degrees": dict(help="comma-separated hypersurface degrees, e.g. 2,3"),
    "max-b": dict(type=int,
                  help="largest degree b (compute) / beta (conjectures)"),
    "order": dict(type=int, help="extra q-truncation padding (results must "
                                 "not change with it)"),
    "format": dict(choices=FORMATS),
    "out": dict(help="output file (default stdout)"),
    "grid": dict(help="file of geometries, one 'n:d1,d2' per line"),
    "hj-table": dict(help="file of 'j d value' rows interpreting h_j(d)"),
    "config": dict(help="key=value file presetting any flag (flags override)"),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first `main` call:
    each `add_argument` reads the terminal size, so building it per
    call costs more than most small computations."""
    ap = _Parser(
        prog="fanogw",
        description="Exact genus-1 one-point Gromov-Witten invariants of "
                    "Fano complete intersections.")
    sub = ap.add_subparsers(dest="command", required=True)
    # each verb takes only the flags it reads: any other is an error
    for name, blurb, own in (
            ("compute", "invariant table for one geometry", "max-b order"),
            ("check", "run the exact identity suite", "order grid"),
            ("conjectures", "brute force vs conjectured formulas",
             "max-b grid hj-table")):
        sp = sub.add_parser(name, help=blurb)
        reads = own.split() + ["ambient", "degrees", "format", "out", "config"]
        for flag, settings in _FLAGS.items():
            if flag in reads:
                sp.add_argument("--" + flag, default=None, **settings)
    return ap


def _merge_config(args) -> None:
    if args.config is None:
        return
    cfg = dict(_parse_lines(args.config, _config_entry))  # last entry wins
    for key, val in cfg.items():
        attr = key.replace("-", "_")
        # a config file may serve every verb: keys this verb rejects as
        # flags are ignored
        if attr in vars(args) and getattr(args, attr) is None:
            setattr(args, attr, val)


def _geometries_from(args) -> list[MultiDegree]:
    if args.grid is not None:
        return _load_grid(args.grid)
    if args.ambient is not None or args.degrees is not None:
        if args.ambient is None or args.degrees is None:
            raise ValueError("--ambient and --degrees must come together")
        return [MultiDegree(args.ambient, _parse_degrees(args.degrees))]
    return default_grid()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        _merge_config(args)
        for flag in ("order", "max-b"):
            if (vars(args).get(flag.replace("-", "_")) or 0) < 0:
                raise ValueError(f"--{flag} must be >= 0")
        if args.command == "compute":
            if args.ambient is None or args.degrees is None:
                raise ValueError("compute needs --ambient and --degrees")
            md = MultiDegree(args.ambient, _parse_degrees(args.degrees))
            report = cmd_compute(md, args.max_b, args.order or 0)
        elif args.command == "check":
            report = cmd_check(_geometries_from(args), args.order or 0)
        else:  # conjectures: the parser admits no other verb
            beta_max = 2 if args.max_b is None else args.max_b
            hj = (None if args.hj_table is None
                  else _load_hj_table(args.hj_table))
            report = cmd_conjectures(_geometries_from(args), beta_max, hj)
        text = _render(args.format or TEXT, report)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return report.code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OverflowError, MemoryError) as exc:
        # a size beyond what a list can hold, such as --ambient 10**20
        print(f"error: input too large to compute ({type(exc).__name__})",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
