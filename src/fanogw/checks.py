"""The identity suite: every cross-verification the package promises,
as named exact checks over one geometry.

Shared by the `check` CLI verb and the acceptance tests.  Each check is
a function of the data it reads: a `FanoContext` (truncation stability
takes two), or, for the structure-sum lemmas and the convolution
identity, one `CoeffTables`; each reads its context's windows
(`fanogw.hyper`) and takes its bounds from what it is handed.
`run_geometry_suite(md, pad)` (`fanogw check --order K`) is the one
place that maps a check to a q-order: every check reads its pinned
order plus pad, and the checks of one order share one context:

* the algebraic L identity, at q-order 12;
* on the series context, q-order 8: dual-route equality (mu, Phi0,
  Phi1, Theta; Theta from p = 1, since at p = 0 Theta^{(0)} is Phi0
  and Theta^{(1)} is Phi1), regularizability, w-regularity, and the
  double-residue oracle for A(q), with type A checked against its
  second route at every degree up to that order (or bmax, if lower);
* on the row context, q-order bmax: the degree-0 Chern value (an
  oracle independent of the degree-0 row), three-path consistency (with
  the degree-1 vanishing of the reduced invariant), the zero-class rows
  (difference, standard and reduced all 0 above `svr_threshold`), and
  the type-B residue oracle, the n/24 block by its residue route;
* truncation stability: the rows of the row context against those of
  the context `TRUNCATION_PAD` above it;
* on one `CoeffTables` (p <= n, beta <= 3): the proven structure-sum
  lemmas and the ct*c convolution identity.
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
from .sums import check_proven_identities, sums_by_degree
from .tables import CoeffTables

#: the beta bound of the suite's `CoeffTables` (the sum lemmas and the
#: convolution identity), and the q-order that truncation stability's
#: second context adds to the row context's
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


def check_l_identity(ctx: FanoContext) -> bool:
    md, L = ctx.md, ctx.L()
    lhs = L.pow(md.n) - QSeries.q(ctx.order) * md.dd * L.pow(md.total)
    return (lhs - 1).is_zero()


def check_mu_routes(ctx: FanoContext) -> bool:
    return ctx.mu().matches(mu_by_residue(ctx))


def check_phi_routes(ctx: FanoContext) -> bool:
    return (ctx.phi0().matches(theta_by_residue(ctx, 0, 0))
            and ctx.phi1().matches(theta_by_residue(ctx, 0, 1)))


def check_theta_routes(ctx: FanoContext) -> bool:
    """Theta^{(level)}_p by its two routes for 1 <= p <= n-1: at p = 0
    the closed route is Phi0 and Phi1 exactly (s0 = 1, s1 = s2 = s3 = 0),
    which `check_phi_routes` compares already."""
    return all(ctx.theta(p, lvl).matches(theta_by_residue(ctx, p, lvl))
               for p in range(1, ctx.md.n) for lvl in (0, 1))


def check_regularizable(ctx: FanoContext) -> bool:
    """exp(-mu/h) Ft(1/h, q) has no negative h powers."""
    e = ctx.regularized_fp(0)
    return all(exp >= 0
               for b in range(e.order + 1) for exp, _ in e.slice(b).items())


def check_w_regular(ctx: FanoContext) -> bool:
    """F_p has no negative w powers for p <= n-1, read at the window
    `FanoContext.fp_w` gives, which keeps every negative exponent
    known; a window below -1 fails the check."""
    for p in range(ctx.md.n):
        fp = ctx.fp_w(p)
        if min(fp.his) < -1 or any(exp < 0 for b in range(fp.order + 1)
                                   for exp, _ in fp.slice(b).items()):
            return False
    return True


def _rows(ctx: FanoContext) -> list:
    """Every invariant row of ctx's geometry, b = 0..bmax, on ctx."""
    return [invariant_row(ctx, b) for b in range(ctx.md.bmax + 1)]


def check_degree0(ctx: FanoContext) -> bool:
    """The degree-0 row against the Chern oracle, read on ctx (the row
    context in a suite run): a row's value does not depend on the order
    it is read at, which truncation stability checks."""
    return invariant_row(ctx, 0).standard == chern_degree0_oracle(ctx.md)


def check_three_path(ctx: FanoContext) -> bool:
    """Every row consistent, and the reduced invariant 0 in degree 1:
    no smooth genus-1 curve maps with degree 1, so the main component
    of the reduced moduli space is empty there.  Every valid geometry
    has degree 1, since nu <= n - 2."""
    rows = _rows(ctx)
    return all(r.consistent for r in rows) and rows[1].reduced == 0


def check_svr_vanishing(ctx: FanoContext) -> bool:
    """The zero-class rows: above `svr_threshold`, 1 + nu*b > dim, so
    the insertion H^(1+nu b) is the zero class on X, and the difference,
    the standard and the reduced invariant all vanish a priori.  Type A
    is not 0 in many of these rows, so each zero there is a cancellation
    of type A against the closed rows, which `consistent` cannot see."""
    md = ctx.md
    return all(svr_difference(ctx, b) == standard_invariant(ctx, b)
               == reduced_invariant(ctx, b) == 0
               for b in range(md.svr_threshold + 1, md.bmax + 1))


def check_a_double_residue(ctx: FanoContext) -> bool:
    """A(q) by its two routes, and type A by its second route: for every
    b up to A's order, type A equals 1/2 [q^b] Theta^{(0)}_p A / Phi0
    with p = 1 + nu*b, where A is the double residue and each Theta
    (Phi0 at p = 0) is its series route, read off the regularized F_p
    that the double residue reads."""
    md = ctx.md
    a = a_series(ctx)
    if not ctx.A().matches(a):
        return False
    a_over_phi0 = a / theta_by_residue(ctx, 0, 0)
    return all(type_a(ctx, b) == Fraction(1, 2) * theta_by_residue(
                   ctx, 1 + md.nu * b, 0).mul_coeff(a_over_phi0, b)
               for b in range(min(md.bmax, ctx.order) + 1))


def check_type_b_residue_oracle(ctx: FanoContext) -> bool:
    """The type-B residue oracle, cut to the part of its predicate that
    does not cancel: type B by residues equals the rows route exactly
    when the n/24 block equals its residue route (`n24_by_residue`),
    since both routes read the same F-bracket and ct residue row.  It
    runs at every index."""
    return all(n24_block(ctx, b) == n24_by_residue(ctx, b)
               for b in range(1, ctx.md.bmax + 1))


def check_sum_lemmas(tables: CoeffTables) -> bool:
    return all(c.ok for c in check_proven_identities(sums_by_degree(tables)))


def check_truncation_stability(low: FanoContext, high: FanoContext) -> bool:
    """The invariant rows read on two contexts of one geometry agree; in
    a suite run, the row context and the one `TRUNCATION_PAD` above."""
    return _rows(low) == _rows(high)


def check_convolution(tables: CoeffTables) -> bool:
    nu = tables.md.nu
    return all(tables.convolution_defect(p, l, beta) == 0
               for p in range(tables.p_max + 1)
               for beta in range(tables.beta_max + 1)
               for l in range(p - nu * beta + 1))


def _run_check(name: str, fn, *args) -> CheckResult:
    """One check's verdict: a check whose arithmetic raises (a read
    past a window, say) fails alone, with the exception as detail."""
    try:
        return CheckResult(name, bool(fn(*args)))
    except ArithmeticError as exc:
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}")


def run_geometry_suite(md: MultiDegree, pad: int = 0) -> list[CheckResult]:
    """Every check on one geometry, each at its pinned q-order plus pad:
    the L identity at 12, the series context at 8 (so A is compared to
    q^8), the row context at bmax, and truncation stability's second
    context at bmax + `TRUNCATION_PAD`.  The checks of one order share
    one context, and the sum lemmas and the convolution identity one
    `CoeffTables` (p <= n, beta <= `SUM_LEMMA_BETA_MAX`); all are freed
    when the suite returns.  The table of checks is built here, so that
    each call reads the module's current `check_*` names."""
    rows = md.bmax
    at = {order: FanoContext(md, order + pad)
          for order in {12, 8, rows, rows + TRUNCATION_PAD}}
    tables = CoeffTables(md, p_max=md.n, beta_max=SUM_LEMMA_BETA_MAX)
    checks = [
        ("l-identity", check_l_identity, at[12]),
        ("mu-dual-route", check_mu_routes, at[8]),
        ("phi-dual-route", check_phi_routes, at[8]),
        ("theta-dual-route", check_theta_routes, at[8]),
        ("regularizability", check_regularizable, at[8]),
        ("w-regularity", check_w_regular, at[8]),
        ("degree0-chern", check_degree0, at[rows]),
        ("three-path-consistency", check_three_path, at[rows]),
        ("svr-vanishing", check_svr_vanishing, at[rows]),
        ("a-double-residue", check_a_double_residue, at[8]),
        ("type-b-residue-oracle", check_type_b_residue_oracle, at[rows]),
        ("structure-sum-lemmas", check_sum_lemmas, tables),
        ("truncation-stability", check_truncation_stability,
         at[rows], at[rows + TRUNCATION_PAD]),
        ("convolution-identity", check_convolution, tables),
    ]
    return [_run_check(*check) for check in checks]
