"""The hypergeometric family and the mirror-map package: dual-route
agreement, the algebraic L identity, regularity statements and the
handful of directly computable coefficients."""

from fractions import Fraction

import pytest

from fanogw.geometry import MultiDegree
from fanogw.hyper import FanoContext, ftilde_hbar, f_w
from fanogw.series import QSeries

from helpers import l_fixpoint_oracle

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
