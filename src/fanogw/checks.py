"""The identity suite: every cross-verification the package promises,
as named exact checks over one geometry.

Shared by the `check` CLI verb and the acceptance tests, with the
q-orders pinned; each check reads its context's windows (`fanogw.hyper`).
`run_geometry_suite(md, pad)` (`fanogw check --order K`) reads every
context at its pinned order plus pad, except in truncation stability,
which compares pads 0 and 2.  Inside one suite run the checks share one
context per q-order (`_context`), kept in a dict local to that run: the
orders 12, 8 and bmax, plus pad, and truncation stability's bmax and
bmax + 2, which at pad 0 are the row context and one more.  A check
called on its own builds its own:

* the algebraic L identity to q-order 12;
* on the series context, to q-order 8: dual-route equality (mu, Phi0,
  Phi1, Theta; Theta from p = 1, since at p = 0 Theta^{(0)} is Phi0
  and Theta^{(1)} is Phi1), regularizability, w-regularity, and the
  double-residue oracle for A(q), with type A checked against its
  second route at every degree up to that order (or bmax, if lower);
* on the row context, to q-order bmax: the degree-0 Chern value (an
  oracle independent of the degree-0 row), three-path consistency (with
  the degree-1 vanishing of the reduced invariant), the zero-class rows
  (difference, standard and reduced all 0 above `svr_threshold`), and
  the type-B residue oracle, the n/24 block by its residue route;
* the proven structure-sum lemmas for beta <= 3;
* truncation stability and the ct*c convolution identity.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .geometry import MultiDegree
from .hyper import FanoContext, mu_by_residue, theta_by_residue
from .invariants import (a_series, chern_degree0_oracle, invariant_row,
                         n24_block, n24_by_residue, reduced_invariant,
                         standard_invariant, svr_difference, type_a)
from .series import QSeries
from .sums import check_proven_identities, sums_by_degree, tables_for_sums
from .tables import CoeffTables

#: the beta bound of `check_sum_lemmas`, and the extra q-order at which
#: `check_truncation_stability` recomputes the invariant rows
SUM_LEMMA_BETA_MAX, TRUNCATION_PAD = 3, 2

#: the standard verification grid (the last geometry has index 1)
GRID: tuple = ((5, (3,)), (6, (3,)), (7, (3,)), (7, (2, 2)), (9, (2, 2)),
               (6, (2, 3)))


def default_grid() -> list[MultiDegree]:
    return [MultiDegree(n, ds) for n, ds in GRID]


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


def _context(md: MultiDegree, order: int, shared: dict | None) -> FanoContext:
    """The context of md at q-order `order` that a check reads: the one
    kept in `shared` (one per order, for one `run_geometry_suite` run),
    or a new one when the check runs on its own (shared is None)."""
    if shared is None:
        return FanoContext(md, order)
    if order not in shared:
        shared[order] = FanoContext(md, order)
    return shared[order]


def check_l_identity(md: MultiDegree, order: int = 12,
                     shared: dict | None = None) -> bool:
    ctx = _context(md, order, shared)
    L = ctx.L()
    lhs = L.pow(md.n) - QSeries.q(order) * md.dd * L.pow(md.total)
    return (lhs - 1).is_zero()


def check_mu_routes(md: MultiDegree, order: int = 8,
                    shared: dict | None = None) -> bool:
    ctx = _context(md, order, shared)
    return ctx.mu().matches(mu_by_residue(ctx))


def check_phi_routes(md: MultiDegree, order: int = 8,
                     shared: dict | None = None) -> bool:
    ctx = _context(md, order, shared)
    return (ctx.phi0().matches(theta_by_residue(ctx, 0, 0))
            and ctx.phi1().matches(theta_by_residue(ctx, 0, 1)))


def check_theta_routes(md: MultiDegree, order: int = 8,
                       shared: dict | None = None) -> bool:
    """Theta^{(level)}_p by its two routes for 1 <= p <= n-1: at p = 0
    the closed route is Phi0 and Phi1 exactly (s0 = 1, s1 = s2 = s3 = 0),
    which `check_phi_routes` compares already."""
    ctx = _context(md, order, shared)
    return all(ctx.theta(p, lvl).matches(theta_by_residue(ctx, p, lvl))
               for p in range(1, md.n) for lvl in (0, 1))


def check_regularizable(md: MultiDegree, order: int = 8,
                        shared: dict | None = None) -> bool:
    """exp(-mu/h) Ft(1/h, q) has no negative h powers."""
    ctx = _context(md, order, shared)
    e = ctx.regularized_fp(0)
    return all(exp >= 0
               for b in range(e.order + 1) for exp, _ in e.slice(b).items())


def check_w_regular(md: MultiDegree, order: int = 8,
                    shared: dict | None = None) -> bool:
    """F_p has no negative w powers for p <= n-1, read at the window
    `FanoContext.fp_w` gives, which keeps every negative exponent
    known; a window below -1 fails the check."""
    ctx = _context(md, order, shared)
    for p in range(md.n):
        fp = ctx.fp_w(p)
        if min(fp.his) < -1 or any(exp < 0 for b in range(fp.order + 1)
                                   for exp, _ in fp.slice(b).items()):
            return False
    return True


def _rows(ctx: FanoContext) -> list:
    """Every invariant row of ctx's geometry, b = 0..bmax, on ctx."""
    return [invariant_row(ctx, b) for b in range(ctx.md.bmax + 1)]


def check_degree0(md: MultiDegree, pad: int = 0,
                  shared: dict | None = None) -> bool:
    """The degree-0 row against the Chern oracle, read on the row
    context (q-order bmax + pad): a row's value does not depend on the
    order it is read at, which truncation stability checks."""
    row = invariant_row(_context(md, md.bmax + pad, shared), 0)
    return row.standard == chern_degree0_oracle(md)


def check_three_path(md: MultiDegree, pad: int = 0,
                     shared: dict | None = None) -> bool:
    """Every row consistent, and the reduced invariant 0 in degree 1:
    no smooth genus-1 curve maps with degree 1, so the main component
    of the reduced moduli space is empty there.  Every valid geometry
    has degree 1, since nu <= n - 2."""
    rows = _rows(_context(md, md.bmax + pad, shared))
    return all(r.consistent for r in rows) and rows[1].reduced == 0


def check_svr_vanishing(md: MultiDegree, pad: int = 0,
                        shared: dict | None = None) -> bool:
    """The zero-class rows: above `svr_threshold`, 1 + nu*b > dim, so
    the insertion H^(1+nu b) is the zero class on X, and the difference,
    the standard and the reduced invariant all vanish a priori.  Type A
    is not 0 in many of these rows, so each zero there is a cancellation
    of type A against the closed rows, which `consistent` cannot see."""
    ctx = _context(md, md.bmax + pad, shared)
    return all(svr_difference(ctx, b) == standard_invariant(ctx, b)
               == reduced_invariant(ctx, b) == 0
               for b in range(md.svr_threshold + 1, md.bmax + 1))


def check_a_double_residue(md: MultiDegree, order: int = 8,
                           shared: dict | None = None) -> bool:
    """A(q) by its two routes, and type A by its second route: for every
    b up to A's order, type A equals 1/2 [q^b] Theta^{(0)}_p A / Phi0
    with p = 1 + nu*b, where A is the double residue and each Theta
    (Phi0 at p = 0) is its series route, read off the regularized F_p
    that the double residue reads."""
    ctx = _context(md, order, shared)
    a = a_series(ctx)
    if not ctx.A().matches(a):
        return False
    a_over_phi0 = a / theta_by_residue(ctx, 0, 0)
    return all(type_a(ctx, b) == Fraction(1, 2) * theta_by_residue(
                   ctx, 1 + md.nu * b, 0).mul_coeff(a_over_phi0, b)
               for b in range(min(md.bmax, order) + 1))


def check_type_b_residue_oracle(md: MultiDegree, pad: int = 0,
                                shared: dict | None = None) -> bool:
    """The type-B residue oracle, cut to the part of its predicate that
    does not cancel: type B by residues equals the rows route exactly
    when the n/24 block equals its residue route (`n24_by_residue`),
    since both routes read the same F-bracket and ct residue row.  It
    runs at every index."""
    ctx = _context(md, md.bmax + pad, shared)
    return all(n24_block(ctx, b) == n24_by_residue(ctx, b)
               for b in range(1, md.bmax + 1))


def check_sum_lemmas(md: MultiDegree) -> bool:
    return all(c.ok for c in check_proven_identities(
        sums_by_degree(tables_for_sums(md, SUM_LEMMA_BETA_MAX))))


def check_truncation_stability(md: MultiDegree,
                               shared: dict | None = None) -> bool:
    """The invariant rows at q-order bmax and bmax + `TRUNCATION_PAD`
    agree; in a suite run at pad 0 the first is the row context."""
    return _rows(_context(md, md.bmax, shared)) == _rows(
        _context(md, md.bmax + TRUNCATION_PAD, shared))


def check_convolution(tables: CoeffTables) -> bool:
    nu = tables.md.nu
    return all(tables.convolution_defect(p, l, beta) == 0
               for p in range(tables.p_max + 1)
               for beta in range(tables.beta_max + 1)
               for l in range(p - nu * beta + 1))


def _run_check(name: str, fn) -> CheckResult:
    """One check's verdict: a check whose arithmetic raises (a read
    past a window, say) fails alone, with the exception as detail."""
    try:
        return CheckResult(name, bool(fn()))
    except ArithmeticError as exc:
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}")


def run_geometry_suite(md: MultiDegree, pad: int = 0) -> list[CheckResult]:
    """Every check on one geometry, the checks of one q-order reading one
    context (`_context`): the series context at 8 + pad, the row context
    at bmax + pad, the L identity's at 12 + pad, and truncation
    stability's bmax and bmax + 2 (the row context and one more at
    pad 0).  The double residue reads the series context, so A is
    compared to q^8.  The contexts are freed when the suite returns."""
    tables = CoeffTables(md, p_max=md.n, beta_max=3)
    shared: dict = {}
    checks = [
        ("l-identity", lambda: check_l_identity(md, 12 + pad, shared)),
        ("mu-dual-route", lambda: check_mu_routes(md, 8 + pad, shared)),
        ("phi-dual-route", lambda: check_phi_routes(md, 8 + pad, shared)),
        ("theta-dual-route", lambda: check_theta_routes(md, 8 + pad, shared)),
        ("regularizability",
         lambda: check_regularizable(md, 8 + pad, shared)),
        ("w-regularity", lambda: check_w_regular(md, 8 + pad, shared)),
        ("degree0-chern", lambda: check_degree0(md, pad, shared)),
        ("three-path-consistency",
         lambda: check_three_path(md, pad, shared)),
        ("svr-vanishing", lambda: check_svr_vanishing(md, pad, shared)),
        ("a-double-residue",
         lambda: check_a_double_residue(md, 8 + pad, shared)),
        ("type-b-residue-oracle",
         lambda: check_type_b_residue_oracle(md, pad, shared)),
        ("structure-sum-lemmas", lambda: check_sum_lemmas(md)),
        ("truncation-stability",
         lambda: check_truncation_stability(md, shared)),
        ("convolution-identity", lambda: check_convolution(tables)),
    ]
    return [_run_check(name, fn) for name, fn in checks]
