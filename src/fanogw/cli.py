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
import io
import json
import sys
from fractions import Fraction

from .checks import default_grid, run_geometry_suite
from .geometry import MultiDegree
from .invariants import invariant_table
from .sums import check_proven_identities, evaluate_conjectures

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


_CONFIG_KEYS = ("ambient", "degrees", "max-b", "order", "format", "out",
                "grid", "hj-table")


def _config_entry(line: str) -> tuple:
    key, eq, val = line.partition("=")
    key, val = key.strip(), val.strip()
    if not eq:
        raise ValueError("config line without '='")
    if key not in _CONFIG_KEYS:
        raise ValueError(f"unknown config key {key!r}")
    if key in ("ambient", "max-b", "order"):
        return key, int(val)
    if key == "format" and val not in FORMATS:
        raise ValueError(f"config format {val!r} is not one of "
                         f"{', '.join(FORMATS)}")
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


def _rows_csv(rows) -> str:
    buf = io.StringIO()
    buf.write("b,insertion_power,standard,reduced,difference,consistent\n")
    for r in rows:
        buf.write(f"{r.b},{r.insertion_power},{fmt_rat(r.standard)},"
                  f"{fmt_rat(r.reduced)},{fmt_rat(r.difference)},"
                  f"{'true' if r.consistent else 'false'}\n")
    return buf.getvalue()


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
        buf = io.StringIO()
        buf.write("geometry,check,pass\n")
        for md, results in all_results:
            for r in results:
                buf.write(f"{md.label()},{r.name},{'true' if r.ok else 'false'}\n")
        _emit(buf.getvalue(), out_path)
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
    lemma_rows = []
    for md in geometries:
        for c in check_proven_identities(md, beta_max):
            lemma_rows.append(c)
    reports = evaluate_conjectures([(md, beta_max) for md in geometries], hj=hj)
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
        buf = io.StringIO()
        buf.write("kind,name,geometry,beta,expected,computed,verdict\n")
        for c in lemma_rows:
            buf.write(f"lemma,{c.name},{c.md.label()},{c.beta},"
                      f"{fmt_rat(c.expected)},{fmt_rat(c.computed)},"
                      f"{'pass' if c.ok else 'fail'}\n")
        for rep in reports:
            for c in rep.cases:
                exp = "" if c.expected is None else fmt_rat(c.expected)
                buf.write(f"conjecture,{rep.conjecture},{c.md.label()},"
                          f"{c.beta},{exp},{fmt_rat(c.computed)},{c.verdict}\n")
        _emit(buf.getvalue(), out_path)
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


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="fanogw",
        description="Exact genus-1 one-point Gromov-Witten invariants of "
                    "Fano complete intersections.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, blurb in (("compute", "invariant table for one geometry"),
                        ("check", "run the exact identity suite"),
                        ("conjectures", "brute force vs conjectured formulas")):
        sp = sub.add_parser(name, help=blurb)
        sp.add_argument("--ambient", type=int, default=None,
                        help="n: the ambient space is P^{n-1}")
        sp.add_argument("--degrees", type=str, default=None,
                        help="comma-separated hypersurface degrees, e.g. 2,3")
        sp.add_argument("--max-b", dest="max_b", type=int, default=None,
                        help="largest degree b (compute) / beta (conjectures)")
        sp.add_argument("--order", type=int, default=None,
                        help="extra q-truncation padding (results must not "
                             "change with it)")
        sp.add_argument("--format", choices=FORMATS, default=None)
        sp.add_argument("--out", type=str, default=None,
                        help="output file (default stdout)")
        sp.add_argument("--grid", type=str, default=None,
                        help="file of geometries, one 'n:d1,d2' per line")
        sp.add_argument("--hj-table", dest="hj_table", type=str, default=None,
                        help="file of 'j d value' rows interpreting h_j(d)")
        sp.add_argument("--config", type=str, default=None,
                        help="key=value file presetting any flag "
                             "(flags override)")
    return ap


def _merge_config(args) -> None:
    if args.config is None:
        return
    cfg = dict(_parse_lines(args.config, _config_entry))  # last entry wins
    for key, val in cfg.items():
        attr = key.replace("-", "_")
        if getattr(args, attr) is None:
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
        args = _build_parser().parse_args(argv)
        _merge_config(args)
        pad = 0 if args.order is None else args.order
        if pad < 0:
            raise ValueError("--order must be >= 0")
        fmt = args.format or TEXT
        if args.max_b is not None and args.max_b < 0:
            raise ValueError("--max-b must be >= 0")

        if args.command == "compute":
            if args.ambient is None or args.degrees is None:
                raise ValueError("compute needs --ambient and --degrees")
            md = MultiDegree(args.ambient, _parse_degrees(args.degrees))
            return cmd_compute(md, args.max_b, pad, fmt, args.out)

        if args.command == "check":
            return cmd_check(_geometries_from(args), pad, fmt, args.out)

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
