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

from .checks import default_grid, run_geometry_suite
from .geometry import MultiDegree
from .invariants import invariant_table
from .sums import (check_proven_identities, evaluate_conjectures,
                   sums_by_degree, tables_for_sums)

TEXT, CSV, JSON = "text", "csv", "json"
FORMATS = (TEXT, CSV, JSON)


def fmt_rat(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _dump_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
    return sorted(_parse_lines(path, _grid_entry),
                  key=lambda md: (md.n, md.degrees))


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
# compute


def _rows_payload(md: MultiDegree, rows) -> dict:
    return {
        "ambient": md.n,
        "degrees": list(md.degrees),
        "index": md.nu,
        "dim": md.dim,
        "rows": [
            {
                "b": r.b,
                "insertion_power": r.insertion_power,
                "standard": fmt_rat(r.standard),
                "reduced": fmt_rat(r.reduced),
                "difference": fmt_rat(r.difference),
                "consistent": r.consistent,
            }
            for r in rows
        ],
    }


def _csv(header: str, rows) -> str:
    """A header line and the rows, quoted where a field needs it (a
    geometry label such as X_7(2,2) holds commas)."""
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(header.split(","))
    out.writerows(rows)
    return buf.getvalue()


def _rows_csv(rows) -> str:
    return _csv("b,insertion_power,standard,reduced,difference,consistent",
                ((r.b, r.insertion_power, fmt_rat(r.standard),
                  fmt_rat(r.reduced), fmt_rat(r.difference),
                  "true" if r.consistent else "false") for r in rows))


def _rows_text(md: MultiDegree, rows) -> str:
    head = (f"{md.label()}  index={md.nu}  dim={md.dim}\n"
            f"{'b':>3} {'a':>4} {'standard':>18} {'reduced':>18} "
            f"{'difference':>18} {'ok':>3}\n")
    body = "".join(
        f"{r.b:>3} {r.insertion_power:>4} {fmt_rat(r.standard):>18} "
        f"{fmt_rat(r.reduced):>18} {fmt_rat(r.difference):>18} "
        f"{'yes' if r.consistent else 'NO':>3}\n"
        for r in rows)
    return head + body


def cmd_compute(md: MultiDegree, max_b: int | None, pad: int,
                fmt: str, out_path: str | None) -> int:
    rows = invariant_table(md, max_b=max_b, pad=pad)
    if fmt == JSON:
        _emit(_dump_json(_rows_payload(md, rows)), out_path)
    elif fmt == CSV:
        _emit(_rows_csv(rows), out_path)
    else:
        _emit(_rows_text(md, rows), out_path)
    return 0 if all(r.consistent for r in rows) else 2


# ---------------------------------------------------------------------------
# check


def cmd_check(geometries: list[MultiDegree], pad: int, fmt: str,
              out_path: str | None) -> int:
    all_results = [(md, run_geometry_suite(md, pad=pad)) for md in geometries]
    ok = all(r.ok for _, results in all_results for r in results)
    if fmt == JSON:
        payload = {
            "suite": "check",
            "all_pass": ok,
            "cases": [
                {
                    "ambient": md.n,
                    "degrees": list(md.degrees),
                    "checks": [{"name": r.name, "pass": r.ok} for r in results],
                }
                for md, results in all_results
            ],
        }
        _emit(_dump_json(payload), out_path)
    elif fmt == CSV:
        _emit(_csv("geometry,check,pass",
                   ((md.label(), r.name, "true" if r.ok else "false")
                    for md, results in all_results for r in results)),
              out_path)
    else:
        buf = io.StringIO()
        for md, results in all_results:
            for r in results:
                buf.write(f"{'PASS' if r.ok else 'FAIL'} {md.label():12s} {r.name}\n")
        buf.write("all checks passed\n" if ok else "CHECK FAILURES PRESENT\n")
        _emit(buf.getvalue(), out_path)
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# conjectures


def cmd_conjectures(geometries: list[MultiDegree], beta_max: int, hj,
                    fmt: str, out_path: str | None) -> int:
    sums = [sv for md in geometries
            for sv in sums_by_degree(tables_for_sums(md, beta_max))]
    lemma_rows = check_proven_identities(sums)
    reports = evaluate_conjectures(sums, hj=hj)
    lemma_fail = sum(0 if c.ok else 1 for c in lemma_rows)

    if fmt == JSON:
        payload = {
            "suite": "conjectures",
            "lemma_failures": lemma_fail,
            "lemmas": [
                {
                    "name": c.name,
                    "ambient": c.md.n,
                    "degrees": list(c.md.degrees),
                    "beta": c.beta,
                    "computed": fmt_rat(c.computed),
                    "expected": fmt_rat(c.expected),
                    "pass": c.ok,
                }
                for c in lemma_rows
            ],
            "conjectures": [
                {
                    "conjecture": rep.conjecture,
                    "cases": [
                        {
                            "ambient": c.md.n,
                            "degrees": list(c.md.degrees),
                            "beta": c.beta,
                            "expected": None if c.expected is None
                            else fmt_rat(c.expected),
                            "computed": fmt_rat(c.computed),
                            "verdict": c.verdict,
                        }
                        for c in rep.cases
                    ],
                }
                for rep in reports
            ],
        }
        _emit(_dump_json(payload), out_path)
    elif fmt == CSV:
        lemmas = (("lemma", c.name, c.md.label(), c.beta, fmt_rat(c.expected),
                   fmt_rat(c.computed), "pass" if c.ok else "fail")
                  for c in lemma_rows)
        cases = (("conjecture", rep.conjecture, c.md.label(), c.beta,
                  "" if c.expected is None else fmt_rat(c.expected),
                  fmt_rat(c.computed), c.verdict)
                 for rep in reports for c in rep.cases)
        _emit(_csv("kind,name,geometry,beta,expected,computed,verdict",
                   [*lemmas, *cases]), out_path)
    else:
        buf = io.StringIO()
        for c in lemma_rows:
            buf.write(f"{'PASS' if c.ok else 'FAIL'} lemma {c.name} "
                      f"{c.md.label()} beta={c.beta}\n")
        for rep in reports:
            for c in rep.cases:
                exp = "-" if c.expected is None else fmt_rat(c.expected)
                buf.write(f"{rep.conjecture:12s} {c.md.label():12s} "
                          f"beta={c.beta} expected={exp} "
                          f"computed={fmt_rat(c.computed)} -> {c.verdict}\n")
        _emit(buf.getvalue(), out_path)
    return 0 if lemma_fail == 0 else 2


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
        fmt = args.format or TEXT

        if args.command == "compute":
            if args.ambient is None or args.degrees is None:
                raise ValueError("compute needs --ambient and --degrees")
            md = MultiDegree(args.ambient, _parse_degrees(args.degrees))
            return cmd_compute(md, args.max_b, args.order or 0, fmt, args.out)

        if args.command == "check":
            return cmd_check(_geometries_from(args), args.order or 0, fmt,
                             args.out)

        if args.command == "conjectures":
            beta_max = 2 if args.max_b is None else args.max_b
            hj = None if args.hj_table is None else _load_hj_table(args.hj_table)
            return cmd_conjectures(_geometries_from(args), beta_max, hj,
                                   fmt, args.out)
        raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
