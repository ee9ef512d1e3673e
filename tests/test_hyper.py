"""The hypergeometric family and the mirror-map package: dual-route
agreement, the algebraic L identity, regularity statements and the
handful of directly computable coefficients."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanogw.checks import check_w_regular
from fanogw.geometry import MultiDegree
from fanogw.hyper import CtSums, FanoContext, fp_series, ftilde_hbar, f_w
from fanogw.series import INF_EXP, BiSeries, LaurentPoly, QSeries
from fanogw.tables import CoeffTables

from helpers import (corrupt_ctilde, ct_sums_by_terms, fp_series_by_d_chain,
                     l_fixpoint_oracle, valid_geometries)

MD53 = MultiDegree(5, (3,))
MD722 = MultiDegree(7, (2, 2))


def test_multidegree_constants():
    md = MultiDegree(6, (2, 3))
    assert (md.r, md.total, md.dd, md.dfact, md.nu, md.dim) \
        == (2, 5, 108, 12, 1, 3)
    assert MD53.bmax == 2 and MD53.svr_threshold == 1


def test_multidegree_rejects_bad_geometry():
    with pytest.raises(ValueError):
        MultiDegree(4, (2, 2))  # index 0
    with pytest.raises(ValueError):
        MultiDegree(5, (1,))  # linear factor
    with pytest.raises(ValueError):
        MultiDegree(4, (2, 2, 2))  # dimension 0 before the index check
    with pytest.raises(ValueError):
        MultiDegree(5, ())  # r = 0: projective space itself


def test_ftilde_hbar_slices():
    ft = ftilde_hbar(MD53, 2, 4)
    assert ft.slice(0) == ft.slice(0).__class__(0, (1,))  # beta=0 slice is 1
    assert ft.slice(1).lo == -1
    assert ft.coeff(1, -1) == Fraction(27, 5)


def test_f_w_slices():
    fw = f_w(MD53, 2, 6)
    assert fw.slice(0).coeff(0) == 1 and fw.slice(0).hi == 0
    # lowest w-exponent of the q^beta slice is nu*beta
    assert fw.slice(1).lo == 2 and fw.slice(2).lo == 4
    assert fw.coeff(1, 2) == 6


def test_fp_specials():
    ctx = FanoContext(MD53, 3)
    assert ctx.fp_hbar(0, 5) == ctx.ftilde_hbar(5)
    assert ctx.fp_w(0, 5) == ctx.f_w(5)
    # (q^0, w^0) coefficient of F_p is 1
    for p in range(MD53.n):
        assert ctx.fp_w(p, 5).coeff(0, 0) == 1


def test_l_closed_against_fixpoint_oracle():
    for md in (MD53, MD722, MultiDegree(6, (2, 3))):
        ctx = FanoContext(md, 10)
        assert ctx.L() == l_fixpoint_oracle(md, 10)


def test_l_identity_and_mu_relation():
    for md in (MD53, MD722):
        ctx = FanoContext(md, 10)
        L, q = ctx.L(), QSeries.q(10)
        assert (L.pow(md.n) - q * md.dd * L.pow(md.total) - 1).is_zero()
        assert (1 + q * ctx.mu().deriv()).matches(L)


def test_mu_small_values():
    ctx = FanoContext(MD53, 3)
    mu = ctx.mu()
    assert mu.coeff(0) == 0
    assert mu.coeff(1) == Fraction(27, 5)
    assert ctx.L().coeffs[:3] == (Fraction(1), Fraction(27, 5),
                                  Fraction(729, 25))


def test_mu_dual_route():
    for md in (MD53, MD722):
        ctx = FanoContext(md, 8)
        assert ctx.mu("closed").matches(ctx.mu("residue"))


def test_phi_normalization_and_dual_route():
    for md in (MD53, MD722):
        ctx = FanoContext(md, 8)
        phi0, phi1 = ctx.phi0(), ctx.phi1()
        assert phi0.coeff(0) == 1 and phi1.coeff(0) == 0
        assert phi0.matches(ctx.phi0("series"))
        assert phi1.matches(ctx.phi1("series"))
    assert FanoContext(MD53, 2).phi0().coeff(1) == 0


def test_theta_dual_route_and_specials():
    for md in (MD53, MD722):
        ctx = FanoContext(md, 6)
        assert ctx.theta(0, 0).matches(ctx.phi0())
        # p = n occurs in the invariant formula whenever nu divides n-1
        for p in range(md.n + 1):
            assert ctx.theta(p, 1).coeff(0) == 0
            for lvl in (0, 1):
                assert ctx.theta(p, lvl, "lemma").matches(
                    ctx.theta(p, lvl, "residue"))
            assert ctx.theta(p, 0).coeff(0) == 1


def test_ftilde_w_denominator_variant():
    """The w-side Ft family: regular slices with unit constant, and the
    beta=1 slice of Ft(w,q) carries the w^nu prefactor with the
    (dk*beta)! leading constant."""
    ft = f_w(MD53, 2, 6, tilde=True)
    assert ft.slice(0) == ft.slice(0).__class__(0, (1,))
    assert ft.slice(1).lo == MD53.nu
    assert ft.coeff(1, MD53.nu) == 6


def test_regularizability():
    for md in (MD53, MD722):
        ctx = FanoContext(md, 8)
        e = ctx.regularized_fp(0, 10)
        for b in range(e.order + 1):
            assert all(exp >= 0 for exp, _ in e.slice(b).items())


def test_fp_w_regular_at_zero():
    for md in (MD53, MD722):
        ctx = FanoContext(md, 6)
        for p in range(md.n):
            fp = ctx.fp_w(p, 6)
            for b in range(fp.order + 1):
                assert all(exp >= 0 for exp, _ in fp.slice(b).items()), (md, p, b)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(valid_geometries(9, 3)), st.data())
def test_fp_series_matches_the_d_chain(md, data):
    """Slices and windows of F_p against the reference chain of D's, in
    both presentations, over w-side bases with and without tilde and the
    hbar-side base, with windows down to 8 - n and some slices fully
    known."""
    order = data.draw(st.integers(0, 3), label="order")
    p = data.draw(st.integers(0, md.n), label="p")
    hi = data.draw(st.integers(0, 8), label="hi")
    shift = data.draw(st.sampled_from((-1, 1)), label="shift")
    kind = data.draw(st.sampled_from(("w", "w-tilde", "hbar")), label="base")
    known = data.draw(st.lists(st.booleans(), min_size=order + 1,
                               max_size=order + 1), label="fully known")
    base = (ftilde_hbar(md, order, hi) if kind == "hbar"
            else f_w(md, order, hi, tilde=kind == "w-tilde"))
    base = BiSeries(base.slices,
                    [INF_EXP if k else h for k, h in zip(known, base.his)])
    tables = CoeffTables(md, p_max=md.n, beta_max=order)
    got = fp_series(tables, base, p, shift)
    want = fp_series_by_d_chain(tables, base, p, shift)
    assert got.his == want.his
    assert got.slices == want.slices


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(valid_geometries(9, 3)), st.integers(0, 6))
def test_ct_sums_match_the_term_by_term_reference(md, order):
    """Every ct-L sum, for every insertion power p <= n, equals the sum
    built one L.pow term at a time; a second call returns the cached
    set."""
    ctx = FanoContext(md, order)
    for p in range(md.n + 1):
        sums = ctx.ct_sums(p)
        for name, got, want in zip(CtSums._fields, sums,
                                   ct_sums_by_terms(ctx, p)):
            assert got == want, (md.label(), order, p, name)
        assert ctx.ct_sums(p) is sums


@pytest.mark.parametrize("n, degrees", [(10, (9,)), (12, (2, 2)),
                                        (11, (2, 2, 2)), (10, (3, 3)),
                                        (12, (11,))])
def test_w_regularity_beyond_the_grid(n, degrees):
    assert check_w_regular(MultiDegree(n, degrees))


def test_w_regularity_reads_every_negative_exponent(monkeypatch):
    """At the pinned order 8 the window of F_11 on X_12(2,2) would fall
    to -3: a ct entry bumped so that w^-2 enters the q^1 slice of F_11
    must fail the check all the same."""
    md = MultiDegree(12, (2, 2))
    build = CoeffTables.__init__

    def corrupted(self, *args, **kwargs):
        build(self, *args, **kwargs)
        corrupt_ctilde(monkeypatch, self, 11, 1, 1)

    monkeypatch.setattr(CoeffTables, "__init__", corrupted)
    assert FanoContext(md, 8).fp_w(11, 11).coeff(1, -2) == 1
    assert not check_w_regular(md)


def test_w_regularity_fails_below_a_known_window(monkeypatch):
    unknown = BiSeries([LaurentPoly(0, (1,))], [-2])
    monkeypatch.setattr(FanoContext, "fp_w", lambda self, p, hi, tilde=False: unknown)
    assert not check_w_regular(MD53)
