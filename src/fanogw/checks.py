"""The identity suite: every cross-verification the package promises,
as named exact checks over one geometry.

Shared by the `check` CLI verb and the acceptance tests, with the
q-orders pinned; each check reads its context's windows (`fanogw.hyper`):

* the algebraic L identity to q-order 12;
* dual-route equality (mu, Phi0, Phi1, Theta) to q-order 8, Theta
  from p = 1: at p = 0 Theta^{(0)} is Phi0 and Theta^{(1)} is Phi1;
* regularizability and w-regularity to q-order 8;
* the degree-0 Chern value (an oracle independent of the degree-0
  row), three-path consistency (with the degree-1 vanishing of the
  reduced invariant), SvR vanishing;
* the double-residue oracle for A(q) to q-order 6, with type A checked
  against its second route at every degree up to that order;
* the type-B residue oracle, the n/24 block by its residue route (run
  where nu >= 2);
* the proven structure-sum lemmas for beta <= 3;
* truncation stability and the ct*c convolution identity.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .geometry import MultiDegree
from .hyper import FanoContext, mu_by_residue, theta_by_residue
from .invariants import (a_series, chern_degree0_oracle, context_for,
                         invariant_table, n24_block, n24_by_residue,
                         svr_difference, type_a)
from .series import QSeries
from .sums import check_proven_identities, sums_by_degree, tables_for_sums
from .tables import CoeffTables

#: the standard verification grid (the last geometry has index 1)
GRID: tuple = ((5, (3,)), (6, (3,)), (7, (3,)), (7, (2, 2)), (9, (2, 2)),
               (6, (2, 3)))


def default_grid() -> list[MultiDegree]:
    return [MultiDegree(n, ds) for n, ds in GRID]


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


def check_l_identity(md: MultiDegree, order: int = 12) -> bool:
    ctx = FanoContext(md, order)
    L = ctx.L()
    lhs = L.pow(md.n) - QSeries.q(order) * md.dd * L.pow(md.total)
    return (lhs - 1).is_zero()


def check_mu_routes(md: MultiDegree, order: int = 8) -> bool:
    ctx = FanoContext(md, order)
    return ctx.mu().matches(mu_by_residue(ctx))


def check_phi_routes(md: MultiDegree, order: int = 8) -> bool:
    ctx = FanoContext(md, order)
    return (ctx.phi0().matches(theta_by_residue(ctx, 0, 0))
            and ctx.phi1().matches(theta_by_residue(ctx, 0, 1)))


def check_theta_routes(md: MultiDegree, order: int = 8) -> bool:
    """Theta^{(level)}_p by its two routes for 1 <= p <= n-1: at p = 0
    the closed route is Phi0 and Phi1 exactly (s0 = 1, s1 = s2 = s3 = 0),
    which `check_phi_routes` compares already."""
    ctx = FanoContext(md, order)
    return all(ctx.theta(p, lvl).matches(theta_by_residue(ctx, p, lvl))
               for p in range(1, md.n) for lvl in (0, 1))


def check_regularizable(md: MultiDegree, order: int = 8) -> bool:
    """exp(-mu/h) Ft(1/h, q) has no negative h powers."""
    ctx = FanoContext(md, order)
    e = ctx.regularized_fp(0)
    return all(exp >= 0
               for b in range(e.order + 1) for exp, _ in e.slice(b).items())


def check_w_regular(md: MultiDegree, order: int = 8) -> bool:
    """F_p has no negative w powers for p <= n-1, read at the window
    `FanoContext.fp_w` gives, which keeps every negative exponent
    known; a window below -1 fails the check."""
    ctx = FanoContext(md, order)
    for p in range(md.n):
        fp = ctx.fp_w(p)
        if min(fp.his) < -1 or any(exp < 0 for b in range(fp.order + 1)
                                   for exp, _ in fp.slice(b).items()):
            return False
    return True


def check_degree0(md: MultiDegree) -> bool:
    row = invariant_table(md, max_b=0)[0]
    return row.standard == chern_degree0_oracle(md)


def check_three_path(md: MultiDegree, pad: int = 0) -> bool:
    """Every row consistent, and the reduced invariant 0 in degree 1:
    no smooth genus-1 curve maps with degree 1, so the main component
    of the reduced moduli space is empty there.  Every valid geometry
    has degree 1, since nu <= n - 2."""
    rows = invariant_table(md, pad=pad)
    return all(r.consistent for r in rows) and rows[1].reduced == 0


def check_svr_vanishing(md: MultiDegree) -> bool:
    ctx = context_for(md, md.bmax)
    return all(svr_difference(ctx, b) == 0
               for b in range(md.svr_threshold + 1, md.bmax + 1))


def check_a_double_residue(md: MultiDegree, order: int = 6) -> bool:
    """A(q) by its two routes, and type A by its second route: for every
    b up to A's order, type A equals 1/2 [q^b] Theta^{(0)}_p A / Phi0
    with p = 1 + nu*b, where A is the double residue and each Theta
    (Phi0 at p = 0) is its series route, read off the regularized F_p
    that the double residue reads."""
    ctx = FanoContext(md, order)
    a = a_series(ctx)
    if not ctx.A().matches(a):
        return False
    a_over_phi0 = a / theta_by_residue(ctx, 0, 0)
    return all(type_a(ctx, b) == Fraction(1, 2) * theta_by_residue(
                   ctx, 1 + md.nu * b, 0).mul_coeff(a_over_phi0, b)
               for b in range(min(md.bmax, order) + 1))


def check_type_b_residue_oracle(md: MultiDegree) -> bool:
    """The type-B residue oracle, cut to the part of its predicate that
    does not cancel: type B by residues equals the rows route exactly
    when the n/24 block equals its residue route (`n24_by_residue`),
    since both routes read the same F-bracket and ct residue row.  The
    oracle holds at every index, but it runs on nu >= 2 only: on an
    index-1 geometry it would build one more context and one more set
    of tables per run than the benchmark's check-grid counts pin."""
    if md.nu < 2:
        return True
    ctx = context_for(md, md.bmax)
    return all(n24_block(ctx, b) == n24_by_residue(ctx, b)
               for b in range(1, md.bmax + 1))


def check_sum_lemmas(md: MultiDegree, beta_max: int = 3) -> bool:
    return all(c.ok for c in check_proven_identities(
        sums_by_degree(tables_for_sums(md, beta_max))))


def check_truncation_stability(md: MultiDegree, extra: int = 2) -> bool:
    return invariant_table(md) == invariant_table(md, pad=extra)


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
    """Every check on one geometry."""
    tables = CoeffTables(md, p_max=md.n, beta_max=3)
    checks = [
        ("l-identity", lambda: check_l_identity(md, 12 + pad)),
        ("mu-dual-route", lambda: check_mu_routes(md, 8 + pad)),
        ("phi-dual-route", lambda: check_phi_routes(md, 8 + pad)),
        ("theta-dual-route", lambda: check_theta_routes(md, 8 + pad)),
        ("regularizability", lambda: check_regularizable(md, 8 + pad)),
        ("w-regularity", lambda: check_w_regular(md, 8 + pad)),
        ("degree0-chern", lambda: check_degree0(md)),
        ("three-path-consistency", lambda: check_three_path(md, pad)),
        ("svr-vanishing", lambda: check_svr_vanishing(md)),
        ("a-double-residue", lambda: check_a_double_residue(md, 6 + pad)),
        ("type-b-residue-oracle", lambda: check_type_b_residue_oracle(md)),
        ("structure-sum-lemmas", lambda: check_sum_lemmas(md, 3)),
        ("truncation-stability", lambda: check_truncation_stability(md)),
        ("convolution-identity", lambda: check_convolution(tables)),
    ]
    return [_run_check(name, fn) for name, fn in checks]
