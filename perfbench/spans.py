"""Per-layer spans and counts, installed from outside the program.

`install()` wraps the public functions of the `fanogw` modules and
rebinds every name that refers to one of them: the defining module, each
module that imported it by name, and each class attribute that aliases
it (``__rmul__ = __mul__``).  Spans stay in memory; `Tracer.report()`
turns them into per-layer metrics when the sample ends.

For each key the tracer keeps the number of calls, the inclusive
seconds (outermost call only, so recursion and nested members of one
group count once) and the self seconds (duration minus the time covered
by traced callees).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

#: (module, qualified name, key); a key may group several functions
SPANS = (
    ("series", "BiSeries.inv", "series.BiSeries.inv"),
    ("series", "BiSeries.__mul__", "series.BiSeries.mul"),
    ("series", "LaurentPoly.__mul__", "series.LaurentPoly.mul"),
    ("series", "QSeries.__mul__", "series.QSeries.mul"),
    ("series", "QSeries.pow", "series.QSeries.pow"),
    ("tables", "CoeffTables.__init__", "tables.CoeffTables"),
    ("hyper", "FanoContext.__init__", "hyper.FanoContext"),
    ("hyper", "ftilde_hbar", "hyper.ftilde_hbar"),
    ("hyper", "f_w", "hyper.f_w"),
    ("hyper", "fp_series", "hyper.fp_series"),
    ("hyper", "exp_neg_mu_over_aux", "hyper.exp_neg_mu_over_aux"),
    ("hyper", "mu_closed", "hyper.closed"),
    ("hyper", "l_closed", "hyper.closed"),
    ("hyper", "phi0_closed", "hyper.closed"),
    ("hyper", "phi1_closed", "hyper.closed"),
    ("invariants", "chern_degree0_oracle", "invariants.chern_degree0_oracle"),
    ("invariants", "a_series", "invariants.a_series"),
    ("invariants", "type_a", "invariants.type_a"),
    ("invariants", "n24_block", "invariants.n24_block"),
    ("invariants", "ct_residue_row", "invariants.ct_residue_row"),
    ("invariants", "f_residue_series", "invariants.f_residue_series"),
    ("invariants", "svr_difference", "invariants.svr_difference"),
    ("invariants", "type_b", "invariants.type_b"),
    ("invariants", "standard_invariant", "invariants.standard_invariant"),
    ("invariants", "reduced_invariant", "invariants.reduced_invariant"),
    ("invariants", "invariant_row", "invariants.invariant_row"),
    ("invariants", "invariant_table", "invariants.invariant_table"),
    ("sums", "compute_sums", "sums.compute_sums"),
    ("sums", "check_proven_identities", "sums.check_proven_identities"),
    ("sums", "evaluate_conjectures", "sums.evaluate_conjectures"),
    ("checks", "run_geometry_suite", "checks.run_geometry_suite"),
    ("cli", "main", "cli.main"),
)

#: module-level series builders: a FanoContext accessor call that runs
#: none of them was answered from the context's cache
BUILDERS = frozenset({"hyper.ftilde_hbar", "hyper.f_w", "hyper.fp_series",
                      "hyper.exp_neg_mu_over_aux", "hyper.closed"})

#: the cached FanoContext accessors (every public method but ct_l_sum,
#: which is recomputed on each call)
ACCESSORS = ("ftilde_hbar", "f_w", "fp_hbar", "fp_w", "exp_neg_mu",
             "regularized_fp", "mu", "L", "phi0", "phi1", "theta")

#: counts kept by the hooks, reported even when they stay 0
COUNTS = ("series.LaurentPoly.mul.terms", "series.den_bits_max",
          "hyper.cache.calls", "hyper.cache.hits")


class Tracer:
    def __init__(self):
        # key -> [calls, inclusive seconds, self seconds]
        self.stats: dict = {}
        self.counts: dict = defaultdict(int)
        self._stack: list = []   # child seconds of each open span
        self._depth: dict = defaultdict(int)
        self.builder_runs = 0

    def wrap(self, key: str, fn, before=None, after=None):
        """`before(args)` runs ahead of the timed call; `after(args,
        result, state)` after it, with `state` from `before`.  Neither
        is charged to any span."""
        stack, depth, stats = self._stack, self._depth, self.stats
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf()
            state = before(args) if before else None
            frame = [0.0]
            stack.append(frame)
            depth[key] += 1
            t1 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = perf()
                stack.pop()
                depth[key] -= 1
                d = t2 - t1
                st = stats[key]
                st[0] += 1
                st[2] += d - frame[0]
                if depth[key] == 0:
                    st[1] += d
                if stack:
                    stack[-1][0] += t2 - t0
            if after:
                t3 = perf()
                after(args, result, state)
                if stack:
                    stack[-1][0] += perf() - t3
            return result

        return wrapper

    # -- hooks

    def _count_terms(self, args):
        a, b = args
        nb = len(b.coeffs) if hasattr(b, "coeffs") else 1
        self.counts["series.LaurentPoly.mul.terms"] += len(a.coeffs) * nb

    def _den_bits(self, args, result, state):
        top = self.counts["series.den_bits_max"]
        for s in result.slices:
            for c in s.coeffs:
                bits = c.denominator.bit_length()
                if bits > top:
                    top = bits
        self.counts["series.den_bits_max"] = top

    def _builder_ran(self, args):
        self.builder_runs += 1

    def _accessor_enter(self, args):
        return self.builder_runs

    def _accessor_exit(self, args, result, runs_before):
        self.counts["hyper.cache.calls"] += 1
        if self.builder_runs == runs_before:
            self.counts["hyper.cache.hits"] += 1

    # -- installation

    def _hooks(self, key: str) -> tuple:
        if key == "series.LaurentPoly.mul":
            return self._count_terms, None
        if key == "series.BiSeries.inv":
            return None, self._den_bits
        if key in BUILDERS:
            return self._builder_ran, None
        if key.startswith("hyper.FanoContext."):
            return self._accessor_enter, self._accessor_exit
        return None, None

    def install(self) -> None:
        """Wrap every planned function and rebind each name, in any
        loaded `fanogw` module or class, that refers to one of them.
        Raises if a planned function cannot be found, so that a renamed
        or removed function fails the run instead of reading as 0."""
        modules = [m for name, m in sys.modules.items()
                   if name == "fanogw" or name.startswith("fanogw.")]
        checks = sys.modules["fanogw.checks"]
        plan = list(SPANS)
        plan += [("checks", name, f"checks.{name}")
                 for name, fn in vars(checks).items()
                 if name.startswith("check_")
                 and getattr(fn, "__module__", None) == checks.__name__]
        plan += [("hyper", f"FanoContext.{name}", f"hyper.FanoContext.{name}")
                 for name in ACCESSORS]
        wrapped = {}  # id(original) -> (original, wrapper)
        missing = []
        for mod, qual, key in plan:
            fn = sys.modules.get(f"fanogw.{mod}")
            for part in qual.split("."):
                fn = vars(fn).get(part) if fn is not None else None
            if fn is None:
                missing.append(f"fanogw.{mod}.{qual}")
                continue
            wrapped[id(fn)] = (fn, self.wrap(key, fn, *self._hooks(key)))
            self.stats.setdefault(key, [0, 0.0, 0.0])  # reported if never called
        if missing:
            raise RuntimeError(f"cannot trace, not found: {', '.join(missing)}")
        for name in COUNTS:
            self.counts[name] = 0

        def rebind(namespace, assign):
            for name, value in list(namespace.items()):
                hit = wrapped.get(id(value))
                if hit and hit[0] is value:
                    assign(name, hit[1])

        classes = {v for m in modules for v in vars(m).values()
                   if isinstance(v, type) and v.__module__.startswith("fanogw")}
        for m in modules:
            rebind(vars(m), vars(m).__setitem__)
        for cls in classes:
            rebind(vars(cls), lambda name, fn, cls=cls: setattr(cls, name, fn))

    # -- report

    def report(self) -> dict:
        """Every key as `<key>.calls`, `<key>.s` and `<key>.self_s`, plus
        the counts and the cache hit ratio."""
        out = {}
        for key, (calls, incl, own) in sorted(self.stats.items()):
            out[f"{key}.calls"] = calls
            out[f"{key}.s"] = incl
            out[f"{key}.self_s"] = own
        out.update(self.counts)
        calls = self.counts["hyper.cache.calls"]
        if calls:  # left out, not 0, when no accessor ran
            out["hyper.cache.hit_ratio"] = self.counts["hyper.cache.hits"] / calls
        return out
