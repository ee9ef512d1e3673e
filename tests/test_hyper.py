"""The hypergeometric family and the mirror-map package: dual-route
agreement, the algebraic L identity, regularity statements and the
handful of directly computable coefficients."""

import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanogw import checks, hyper
from fanogw.checks import check_theta_routes, check_w_regular, default_grid
from fanogw.geometry import MultiDegree
from fanogw.hyper import (CtSums, FanoContext, fp_series, ftilde_hbar,
                          mu_by_residue, theta_by_residue)
from fanogw.series import (INF_EXP, BiSeries, LaurentPoly, QSeries,
                           WindowUnderflow)
from fanogw.tables import CoeffTables

from helpers import (a_by_theta_products, bi_one, coeff_of_aux,
                     corrupt_ctilde, ct_polynomial, ct_sums_by_terms,
                     f_slice_oracle, f_w_cut, f_w_whole,
                     fp_series_by_d_chain, ftilde_hbar_slice_oracle,
                     l_fixpoint_oracle, log_by_mercator, phi1_two_powers,
                     q_derivative, valid_geometries)

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


@pytest.mark.parametrize("n, degrees, named", [
    (5.9, (3,), "5.9"), (5, (3.2,), "3.2"), (Fraction(6), (3,), "Fraction(6, 1)"),
    (6, (Fraction(3),), "Fraction(3, 1)"), ("6", ("3",), "'6'"), (6, ["3"], "'3'")])
def test_multidegree_rejects_non_integral_input(n, degrees, named):
    """n and the degrees are read as integers, never truncated: a
    float, a Fraction or a str is refused with its value named."""
    with pytest.raises(ValueError, match=re.escape(named)):
        MultiDegree(n, degrees)


def test_ftilde_hbar_slices():
    ft = ftilde_hbar(MD53, 2, 4)
    assert ft.slice(0) == ft.slice(0).__class__(0, (1,))  # beta=0 slice is 1
    assert ft.slice(1).lo == -1
    assert ft.coeff(1, -1) == Fraction(27, 5)


def test_f_w_slices():
    fw = FanoContext(MD53, 2).f_w().cut((5, 5, 5))
    assert fw.slice(0).coeff(0) == 1 and fw.slice(0).hi == 0
    # lowest w-exponent of the q^beta slice is nu*beta
    assert fw.slice(1).lo == 2 and fw.slice(2).lo == 4
    assert fw.coeff(1, 2) == 6


def test_slices_match_long_division():
    """Every F (w side) and Ft (hbar side) slice against plainly
    multiplied factors and long division, within its window."""
    order = 3
    for md in valid_geometries(7, 3):
        hi = 2 * md.n - md.r
        fw = f_w_whole(md, order, hi)
        assert fw.his == (hi,) * (order + 1)
        for beta in range(order + 1):
            shift = md.nu * beta
            want = f_slice_oracle(md, beta, max(hi - shift, 0))
            assert fw.slice(beta) == LaurentPoly(shift, want).cut_above(hi), \
                (md, beta)
        hi = 2 * order + 3
        ft = ftilde_hbar(md, order, hi)
        assert ft.his == (hi,) * (order + 1)
        for beta in range(order + 1):
            want = ftilde_hbar_slice_oracle(md, beta, hi + beta)
            assert ft.slice(beta) == LaurentPoly(-beta, want), (md, beta)


def test_slices_match_the_oracles_on_uneven_windows():
    """The slice chain against the oracles where it is carried past a
    slice's own cap: F with windows hi - nu*beta that reach 0 before the
    top slice, and Ft(1/hbar) read up to hbar^(15+beta)."""
    order = 6
    for md in valid_geometries(9, 3):
        for hi in (md.nu * order // 2, 2 * md.n - md.r):
            fw = f_w_whole(md, order, hi)
            for beta in range(order + 1):
                shift = md.nu * beta
                want = f_slice_oracle(md, beta, max(hi - shift, 0))
                assert fw.slice(beta) == LaurentPoly(shift, want).cut_above(hi), \
                    (md, hi, beta)
        ft = ftilde_hbar(md, order, 15)
        for beta in range(order + 1):
            want = ftilde_hbar_slice_oracle(md, beta, 15 + beta)
            assert ft.slice(beta) == LaurentPoly(-beta, want), (md, beta)


def test_fp_of_the_unit_series_is_the_ct_polynomial():
    """D^l 1 = 1, so F_p of the unit series is the ct entries placed at
    aux^{sign*(p - nu*beta - l)}, fully known."""
    order = 3
    for md in valid_geometries(9, 3):
        tables = CoeffTables(md, p_max=md.n, beta_max=order)
        one = bi_one(order)
        for p in range(md.n + 1):
            for sign in (1, -1):
                assert fp_series(tables, one, p, sign) \
                    == ct_polynomial(tables, order, p, sign), (md, p, sign)


def test_fp_specials():
    ctx = FanoContext(MD53, 3)
    ft, f = ftilde_hbar(MD53, 3, 5), ctx.f_w().cut((5,) * 4)
    assert fp_series(ctx.tables, ft, 0, +1) == ft
    assert fp_series(ctx.tables, f, 0, -1) == f
    # (q^0, w^0) coefficient of F_p is 1
    for p in range(MD53.n):
        assert fp_series(ctx.tables, f, p, -1).coeff(0, 0) == 1


def test_l_closed_against_fixpoint_oracle():
    for md in (MD53, MD722, MultiDegree(6, (2, 3))):
        ctx = FanoContext(md, 10)
        assert ctx.L() == l_fixpoint_oracle(md, 10)


def test_l_identity_and_mu_relation():
    for md in (MD53, MD722):
        ctx = FanoContext(md, 10)
        L, q = ctx.L(), QSeries.q(10)
        assert (L.pow(md.n) - q * md.dd * L.pow(md.total) - 1).is_zero()
        assert (1 + q_derivative(ctx.mu())) == L


def test_mirror_map_chain_is_built_once_per_context(monkeypatch):
    """mu -> L -> y -> Phi0/Phi1 is one chain per context: reading mu,
    L, Phi0, Phi1, A and every Theta^{(1)} from one context runs
    `mu_closed` and `l_closed` once each."""
    calls = Counter()

    def counted(name):
        real = getattr(hyper, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in ("mu_closed", "l_closed"):
        monkeypatch.setattr(hyper, name, counted(name))
    for md in (MD53, MD722, MultiDegree(6, (2, 3))):
        calls.clear()
        ctx = FanoContext(md, 8)
        ctx.mu(), ctx.L(), ctx.phi0(), ctx.phi1(), ctx.A()
        for p in range(md.n):
            ctx.theta(p, 1)
        assert calls == {"mu_closed": 1, "l_closed": 1}, md


def test_mu_small_values():
    ctx = FanoContext(MD53, 3)
    mu = ctx.mu()
    assert mu.coeff(0) == 0
    assert mu.coeff(1) == Fraction(27, 5)
    assert ctx.L().coeffs[:3] == (Fraction(1), Fraction(27, 5),
                                  Fraction(729, 25))


def test_mu_dual_route():
    """mu_by_residue, read from (D Ft) Ft^-1, equals the closed mu and
    the hbar^-1 residue of log Ft(1/hbar) as the Mercator sum
    (`helpers.log_by_mercator`) on the default grid at orders 8 and 10."""
    for md in default_grid():
        for order in (8, 10):
            ctx = FanoContext(md, order)
            got = mu_by_residue(ctx)
            assert got == ctx.mu(), (md.label(), order)
            mercator = log_by_mercator(ctx.ftilde_hbar())
            assert got == coeff_of_aux(mercator, -1), (md.label(), order)


def test_phi_normalization_and_dual_route():
    for md in (MD53, MD722):
        ctx = FanoContext(md, 8)
        phi0, phi1 = ctx.phi0(), ctx.phi1()
        assert phi0.coeff(0) == 1 and phi1.coeff(0) == 0
        assert phi0.matches(theta_by_residue(ctx, 0, 0))
        assert phi1.matches(theta_by_residue(ctx, 0, 1))
    assert FanoContext(MD53, 2).phi0().coeff(1) == 0


def test_phi1_is_phi0_over_L_times_one_quotient():
    """Phi1 read as Phi0 L^-1 times one quotient (`phi1_closed`) equals
    the form with both powers L^((r-1)/2) and L^((r+1)/2)
    (`helpers.phi1_two_powers`) on every geometry with n <= 10 and
    r <= 3, at q-orders 0, 1, 4 and 8."""
    for md in valid_geometries(10, 3):
        for order in (0, 1, 4, 8):
            ctx = FanoContext(md, order)
            want = phi1_two_powers(md, ctx.L(), ctx.y(), ctx.L().pow(md.n))
            assert ctx.phi1() == want, (md.label(), order)


def test_suite_builds_one_regularized_product_per_p(monkeypatch):
    """The Theta and Phi routes, regularizability and the double residue
    read one kept exp(-mu/hbar) Ft_p(1/hbar) per p: one suite run builds
    that product once for each p in 0..n-1 and each p = 1 + nu*b of the
    double residue's type-A rows, all on the series context (q-order 8),
    and reads no band of it alone."""
    exps, fps, built = [], {}, Counter()
    real_exp, real_fp = hyper.exp_neg_mu_over_aux, hyper.fp_series
    real_mul, real_band = BiSeries.__mul__, BiSeries.mul_coeff_of_aux

    def exp_recording(mu):
        exps.append(real_exp(mu))
        return exps[-1]

    def fp_recording(tables, base, p, shift):
        out = real_fp(tables, base, p, shift)
        fps[id(out)] = (out, base.order, p)  # kept, so the id stays unique
        return out

    def mul_counting(self, other):
        if any(self is e for e in exps):
            built[fps[id(other)][1:]] += 1
        return real_mul(self, other)

    def band_guard(self, other, e):
        assert not any(self is x for x in exps), "a band of exp(-mu/hbar)"
        return real_band(self, other, e)

    monkeypatch.setattr(hyper, "exp_neg_mu_over_aux", exp_recording)
    monkeypatch.setattr(hyper, "fp_series", fp_recording)
    monkeypatch.setattr(BiSeries, "__mul__", mul_counting)
    monkeypatch.setattr(BiSeries, "mul_coeff_of_aux", band_guard)
    for md in (MD53, MD722, MultiDegree(6, (2, 3))):
        built.clear()
        assert all(r.ok for r in checks.run_geometry_suite(md)), md.label()
        ps = set(range(md.n)) | {1 + md.nu * b for b in range(md.bmax + 1)}
        assert built == Counter((8, p) for p in ps), md.label()


def test_theta_routes_start_at_p_1(monkeypatch):
    """At p = 0 the closed Theta is Phi0 and Phi1 exactly (s0 = 1 and
    s1 = s2 = s3 = 0), on the default grid at orders 0, 3, 8 and 10, so
    `check_theta_routes` leaves p = 0 to `check_phi_routes`: it makes no
    `theta_by_residue(ctx, 0, level)` call."""
    for md in default_grid():
        for order in (0, 3, 8, 10):
            ctx = FanoContext(md, order)
            assert ctx.theta(0, 0) == ctx.phi0(), (md.label(), order)
            assert ctx.theta(0, 1) == ctx.phi1(), (md.label(), order)
    powers = []

    def recording(ctx, p, level):
        powers.append(p)
        return theta_by_residue(ctx, p, level)

    monkeypatch.setattr(checks, "theta_by_residue", recording)
    for md in default_grid():
        powers.clear()
        assert check_theta_routes(FanoContext(md, 3)), md.label()
        assert sorted(set(powers)) == list(range(1, md.n)), md.label()


def test_theta_dual_route_and_specials():
    for md in (MD53, MD722, MultiDegree(6, (2, 3))):
        ctx = FanoContext(md, 6)
        assert ctx.theta(0, 0).matches(ctx.phi0())
        # p = n occurs in the invariant formula whenever nu divides n-1
        for p in range(md.n + 1):
            assert ctx.theta(p, 1).coeff(0) == 0
            for lvl in (0, 1):
                assert ctx.theta(p, lvl).matches(
                    theta_by_residue(ctx, p, lvl))
            assert ctx.theta(p, 0).coeff(0) == 1


def test_ft_w_is_f_w_below_w_n():
    """Ft(w) needs no family of its own: (w + j)^n - w^n is (w + j)^n
    mod w^n, so every Ft(w) slice, without its w^(nu beta), equals the
    F(w) slice up to w^(n-1), on every valid geometry with n <= 12 and
    r <= 4 and every beta <= bmax; they part at w^n."""
    for md in valid_geometries(12, 4):
        for beta in range(md.bmax + 1):
            assert f_slice_oracle(md, beta, md.n - 1, tilde=True) \
                == f_slice_oracle(md, beta, md.n - 1), (md.label(), beta)
        assert f_slice_oracle(md, 1, md.n, tilde=True) \
            != f_slice_oracle(md, 1, md.n), md.label()


def test_regularizability():
    for md in (MD53, MD722):
        ctx = FanoContext(md, 8)
        e = ctx.exp_neg_mu() * fp_series(ctx.tables, ftilde_hbar(md, 8, 10), 0, +1)
        for b in range(e.order + 1):
            assert all(exp >= 0 for exp, _ in e.slice(b).items())


def test_fp_w_regular_at_zero():
    for md in (MD53, MD722):
        ctx = FanoContext(md, 6)
        for p in range(md.n):
            fp = fp_series(ctx.tables, f_w_whole(md, 6, 6), p, -1)
            for b in range(fp.order + 1):
                assert all(exp >= 0 for exp, _ in fp.slice(b).items()), (md, p, b)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(valid_geometries(9, 3)), st.data())
def test_fp_series_matches_the_d_chain(md, data):
    """Slices and windows of F_p against the reference chain of D's, in
    both presentations, over the F(w) base, an Ft(w) base from the slice
    oracle and the hbar-side base, with windows down to 8 - n and some
    slices fully known."""
    order = data.draw(st.integers(0, 3), label="order")
    p = data.draw(st.integers(0, md.n), label="p")
    hi = data.draw(st.integers(0, 8), label="hi")
    shift = data.draw(st.sampled_from((-1, 1)), label="shift")
    kind = data.draw(st.sampled_from(("w", "w-tilde", "hbar")), label="base")
    known = data.draw(st.lists(st.booleans(), min_size=order + 1,
                               max_size=order + 1), label="fully known")
    if kind == "hbar":
        base = ftilde_hbar(md, order, hi)
    elif kind == "w":
        base = f_w_whole(md, order, hi)
    else:
        base = BiSeries([LaurentPoly(md.nu * beta, f_slice_oracle(
            md, beta, max(hi - md.nu * beta, 0), tilde=True))
            for beta in range(order + 1)], [hi] * (order + 1))
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
    assert check_w_regular(FanoContext(MultiDegree(n, degrees), 8))


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
    ctx = FanoContext(md, 8)
    assert fp_series(ctx.tables, ctx.f_w().cut((11,) * 9), 11,
                     -1).coeff(1, -2) == 1
    assert not check_w_regular(ctx)


def test_w_regularity_fails_below_a_known_window(monkeypatch):
    unknown = BiSeries([LaurentPoly(0, (1,))], [-2])
    monkeypatch.setattr(FanoContext, "fp_w", lambda self, p: unknown)
    assert not check_w_regular(FanoContext(MD53, 8))


def test_a_from_pair_sums_is_the_sum_of_theta_products():
    """`FanoContext.A` (four kernel pair sums of ct-L sums, weighted by
    the Theta lemma) equals the sum of whole Theta^{(1)} Theta^{(0)}
    products, truncation order included."""
    for md in valid_geometries(12, 3):
        for order in range(5):
            ctx = FanoContext(md, order)
            assert ctx.A() == a_by_theta_products(ctx), (md, order)


def test_every_context_series_has_the_context_order():
    """D = q d/dq keeps the q-order, so every QSeries a context hands
    out (mu, L, y, Phi0, Phi1, the Theta-lemma weights, the ct-L sums,
    A and each Theta) has the context's order, order 0 included."""
    for md in default_grid() + [MultiDegree(8, (7,))]:
        for order in (0, 1, 4):
            ctx = FanoContext(md, order)
            series = [ctx.mu(), ctx.L(), ctx.y(), ctx.phi0(), ctx.phi1(),
                      ctx.A(), *ctx._theta_weights()]
            series += [s for p in range(md.n + 1) for s in ctx.ct_sums(p)]
            series += [ctx.theta(p, level) for p in range(md.n)
                       for level in (0, 1)]
            assert {s.order for s in series} == {order}, (md.label(), order)


def test_context_f_w_is_the_wide_build_cut():
    """F slices taken from the context's tables, at the per-slice
    windows the F-bracket asks for and at whole windows up to the
    tables' reach w^n, equal F built whole and cut (`helpers.f_w_cut`);
    a whole window past that reach raises WindowUnderflow."""
    for md in valid_geometries(9, 3) + [MultiDegree(12, (11,))]:
        ctx = FanoContext(md, md.bmax + 1)
        target = md.n - 2 - md.r
        for hi in (0, target, md.n):
            whole = (hi,) * (ctx.order + 1)
            assert ctx.f_w().cut(whole) == f_w_cut(md, ctx.order, whole)
        with pytest.raises(WindowUnderflow):
            ctx.f_w().cut((md.n + 1,) * (ctx.order + 1))
        for b in range(md.bmax + 1):
            p = 1 + md.nu * b
            for his in (tuple(max(target + p - md.nu * (b - k), p - 1)
                              for k in range(b + 1)), (target,) * (b + 1)):
                assert ctx.f_w().cut(his) == f_w_cut(md, ctx.order, his), \
                    (md, his)
