"""Invariant assembly: degree-0 axiom, three-path consistency, the
residue/route oracles and the stability properties."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanogw import checks, hyper, invariants
from fanogw.checks import (check_degree0, check_svr_vanishing,
                           check_three_path, check_type_b_residue_oracle,
                           check_w_regular, default_grid, run_geometry_suite)
from fanogw.cli import main
from fanogw.geometry import MultiDegree
from fanogw.hyper import (FanoContext, fp_series, ftilde_hbar, mu_by_residue,
                          theta_by_residue)
from fanogw.invariants import (OutOfRange, _reflect, _residue_against_g,
                               a_series, chern_degree0_oracle, context_for,
                               f_residue_series, invariant_row,
                               invariant_table, n24_block, n24_by_residue,
                               reduced_invariant, standard_invariant,
                               svr_difference, type_a, type_b)
from fanogw.series import (INF_EXP, BiSeries, LaurentPoly, QSeries,
                           WindowUnderflow)
from fanogw.tables import CoeffTables

from helpers import (a_double_residue_by_terms, bi_one, chern_value_oracle,
                     coeff_of_aux, f_bracket_reference, n24_block_reference,
                     pairing_by_terms, q_derivative, q_shift,
                     residue_against_g_by_terms,
                     type_b_poly_parts_by_unit_series, valid_geometries)

MD53 = MultiDegree(5, (3,))
MD722 = MultiDegree(7, (2, 2))
MD623 = MultiDegree(6, (2, 3))


def _row_context(md: MultiDegree) -> FanoContext:
    """The context the suite's row checks read at pad 0: q-order bmax."""
    return FanoContext(md, md.bmax)


def test_chern_degree0_values():
    assert chern_degree0_oracle(MD53) == Fraction(-1, 2)
    assert chern_degree0_oracle(MultiDegree(6, (2, 2))) == Fraction(-1, 2)
    for md in (MD53, MD722, MD623, MultiDegree(9, (2, 2))):
        assert chern_degree0_oracle(md) == chern_value_oracle(md.n, md.degrees)


def test_degree0_equals_chern():
    for md in (MD53, MD722, MD623):
        assert invariant_table(md, max_b=0)[0].standard \
            == chern_degree0_oracle(md)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(valid_geometries(9, 3)))
def test_degree0_chern_axiom_on_random_geometries(md):
    want = chern_degree0_oracle(md)
    assert want == chern_value_oracle(md.n, md.degrees)
    assert invariant_table(md, max_b=0)[0].standard == want


def test_rows_above_dimension_vanish():
    """A row whose insertion power 1 + nu*b exceeds dim X inserts h^p = 0,
    so all three values are zero: on every valid geometry with n <= 9
    and r <= 3 (90 such rows on 48 geometries)."""
    rows = 0
    for md in valid_geometries(9, 3):
        bs = [b for b in range(md.bmax + 1) if 1 + md.nu * b > md.dim]
        ctx = context_for(md, md.bmax) if bs else None
        for b in bs:
            row = invariant_row(ctx, b)
            assert row.standard == row.reduced == row.difference == 0, \
                (md.label(), row)
            rows += 1
    assert rows == 90


def test_a_series_vanishes_at_zero():
    for md in (MD53, MD722):
        assert context_for(md, 2).A().coeff(0) == 0


def test_a_double_residue_oracle():
    for md in (MD53, MD722):
        ctx = context_for(md, 5)
        a = ctx.A()
        assert a.matches(a_series(ctx))
        assert ctx.A() is a  # built once per context


def test_type_a_is_half_the_q_b_coefficient_of_theta_a_over_phi0():
    """type A reads [q^b] s0 A, one coefficient of one product; it
    equals 1/2 [q^b] Theta^{(0)}_p A / Phi0 read off whole series."""
    for md in valid_geometries(10, 3) + [MultiDegree(12, (11,))]:
        ctx = context_for(md, md.bmax)
        for b in range(md.bmax + 1):
            p = 1 + md.nu * b
            whole = ctx.theta(p, 0) * ctx.A() / ctx.phi0()
            assert type_a(ctx, b) == Fraction(1, 2) * whole.coeff(b), (md, b)


def test_type_a_by_its_second_route():
    """type A equals 1/2 [q^b] Theta^{(0)}_p A / Phi0 with p = 1 + nu*b,
    read off the series routes: Theta^{(0)}_p and Phi0 by residue
    (`theta_by_residue`) and A by the double residue (`a_series`).  None
    of these reads the ct-L sums, L or the closed Phi0, which `type_a`
    and `FanoContext.A` share; on every valid geometry with n <= 9 and
    r <= 3, among them X_6(2,3) and X_8(7), where type A is nonzero."""
    geometries = valid_geometries(9, 3)
    assert MD623 in geometries and MultiDegree(8, (7,)) in geometries
    rows, nonzero = 0, set()
    for md in geometries:
        ctx = context_for(md, md.bmax)
        a_over_phi0 = a_series(ctx) / theta_by_residue(ctx, 0, 0)
        for b in range(md.bmax + 1):
            p = 1 + md.nu * b
            want = Fraction(1, 2) * (theta_by_residue(ctx, p, 0)
                                     * a_over_phi0).coeff(b)
            assert type_a(ctx, b) == want, (md.label(), b)
            rows += 1
            if want:
                nonzero.add(md.label())
    assert rows == 254 and {"X_6(2,3)", "X_8(7)"} <= nonzero


def test_a_series_from_structure_sums():
    """Third route to A(q): substitute the Theta closed forms into the
    pairing sums and collect; the ct products collapse to the structure
    sums U1..U3 (first block) and V1..V3 (second block)."""
    from fanogw.sums import compute_sums, tables_for_sums
    for md in (MD53, MD722, MD623):
        ctx = context_for(md, 5)
        order = ctx.order
        t = tables_for_sums(md, order)
        phi0, phi1, L = ctx.phi0(), ctx.phi1(), ctx.L()
        dphi0, dL = q_derivative(phi0), q_derivative(L)
        out = QSeries.zero(order)
        for block, top in (("u", md.n - 1 - md.r), ("v", 2 * md.n - 1 - md.r)):
            for beta in range(order + 1):
                sv = compute_sums(t, beta)
                s1, s2, s3, lin, binw = (
                    (sv.u1, sv.u2, sv.u3, sv.u_linear, sv.u_binomial)
                    if block == "u" else
                    (sv.v1, sv.v2, sv.v3, sv.v_linear, sv.v_binomial))
                e = top - md.nu * beta
                rows = (phi0 * phi0 * L.pow(e - 1) * s1
                        + phi0 * phi1 * L.pow(e) * s2
                        + phi0 * dphi0 * L.pow(e - 1) * lin
                        + phi0 * phi0 * dL * L.pow(e - 2) * binw)
                out = out + q_shift(rows, beta)
        assert out.matches(ctx.A()), md


fracs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_reflected_product_is_the_pairing(data):
    """The aux^1 coefficient of x1 * _reflect(x2) is the alternating
    pairing sum of `helpers.pairing_by_terms`, on random slices with
    negative exponents and random windows (x2 known at least up to
    aux^0); where the sum reads past a window, so does the product."""
    order = data.draw(st.integers(0, 3))

    def series(windows):
        return BiSeries(
            [LaurentPoly(data.draw(st.integers(-4, 2)),
                         data.draw(st.lists(fracs, max_size=6)))
             for _ in range(order + 1)],
            [data.draw(windows) for _ in range(order + 1)])

    x1 = series(st.just(INF_EXP) | st.integers(-1, 6))
    x2 = series(st.just(INF_EXP) | st.integers(0, 6))
    try:
        want = pairing_by_terms(x1, x2, order)
    except WindowUnderflow:
        with pytest.raises(WindowUnderflow):
            coeff_of_aux(x1 * _reflect(x2), 1)
    else:
        assert coeff_of_aux(x1 * _reflect(x2), 1) == want


def test_kernel_residues_match_the_term_sums():
    """The double residue of A(q) and the G residue of type B, as kernel
    products, equal their coefficient-by-coefficient sums (`helpers`)
    on every valid geometry with n <= 9 and r <= 3 at order 3, the G
    residue on (Ft - Ft_p) / Ft for every p <= n."""
    for md in valid_geometries(9, 3):
        ctx = FanoContext(md, 3)
        assert a_series(ctx) == a_double_residue_by_terms(ctx)
        ft = ftilde_hbar(md, ctx.order, 2 * ctx.order + 3)
        inv = ft.inv()
        for p in range(md.n + 1):
            series = (ft - fp_series(ctx.tables, ft, p, +1)) * inv
            assert [_residue_against_g(md, series, b, bi_one(b))
                    for b in range(4)] \
                == list(residue_against_g_by_terms(md, series).coeffs), \
                (md.label(), p)


def test_g_residue_needs_slice_windows_of_at_least_1():
    """The q^b read needs slice b known up to h^1, and only slice b."""
    series = BiSeries([LaurentPoly(-1, (1, 2)), LaurentPoly(-2, (3,))])
    want = residue_against_g_by_terms(MD53, series)
    assert [_residue_against_g(MD53, BiSeries(series.slices, [1, 1]), b,
                               bi_one(b))
            for b in (0, 1)] == list(want.coeffs)
    short = BiSeries(series.slices, [1, 0])
    assert _residue_against_g(MD53, short, 0, bi_one(0)) == want.coeff(0)
    with pytest.raises(WindowUnderflow):
        _residue_against_g(MD53, short, 1, bi_one(1))


def test_g_residue_reads_a_right_factor_at_one_coefficient():
    """The main residue of type B at h = 0, read as
    [q^b h^-1] (G * (Ft - Ft_p)) * Ft^-1, equals the G residue of the
    whole quotient on every row of the default grid and X_8(7); G cut
    one shorter than the residue reads raises, and an all-zero
    numerator gives 0."""
    nonzero = 0
    for md in default_grid() + [MultiDegree(8, (7,))]:
        ctx = context_for(md, md.bmax)
        ft = ctx.ftilde_hbar()
        inv = ft.inv()
        for b in range(1, md.bmax + 1):
            ftb, invb = ft.truncate(b), inv.truncate(b)
            num = ftb - fp_series(ctx.tables, ftb, 1 + md.nu * b, +1)
            assert _residue_against_g(md, num, b, inv) \
                == _residue_against_g(md, num * invb, b, bi_one(b)), \
                (md.label(), b)
            assert _residue_against_g(md, ftb - ftb, b, inv) == 0
            lows = [u.lo + v.lo for u, v in zip(num.slices, invb.slices[::-1])
                    if u.nums and v.nums]
            if not lows:  # the numerator vanishes on this row
                continue
            short = BiSeries([invariants._g_expansion(md, -min(lows) - 2)]
                             + [LaurentPoly.zero()] * b,
                             [-min(lows) - 2] + [INF_EXP] * b)
            with pytest.raises(WindowUnderflow):
                (short * num).mul_coeff(invb, b, -1)
            nonzero += 1
    assert nonzero


def test_residue_route_keeps_one_ft_inverse_per_context(monkeypatch):
    """`n24_by_residue` and `mu_by_residue` read one Ft(1/hbar)^-1 per
    context, inverted at its full order and cut at each degree: the one
    inverse they make is of the context's Ft(1/hbar)."""
    inverted = []
    inv = BiSeries.inv

    def counted_inv(self):
        inverted.append(self)
        return inv(self)

    monkeypatch.setattr(BiSeries, "inv", counted_inv)
    ctx = context_for(MD722, MD722.bmax)
    ft = ctx.ftilde_hbar()
    for b in range(1, MD722.bmax + 1):
        n24_by_residue(ctx, b)
    assert mu_by_residue(ctx).matches(ctx.mu())
    assert len(inverted) == 1 and inverted[0] is ft
    assert ft.order == ctx.order


def test_an_order_0_context_reads_q0():
    """D = q d/dq keeps the q-order, so an order-0 context gives
    Theta^{(1)}_p at q^0 for every p < n, A(q) at q^0 and the degree-0
    n/24 block, each equal to its read on an order-3 context, on every
    valid geometry with n <= 11 and r <= 3."""
    for md in valid_geometries(11, 3):
        low, high = FanoContext(md, 0), FanoContext(md, 3)
        for p in range(md.n):
            assert low.theta(p, 1).coeff(0) == high.theta(p, 1).coeff(0), \
                (md.label(), p)
        assert low.A().coeff(0) == high.A().coeff(0), md.label()
        assert n24_block(low, 0) == n24_block(high, 0), md.label()


def test_the_q_order_is_the_least():
    """A degree-b row reads its series at q^b and no higher, so
    `context_for(md, b)` sizes its context at exactly order b: at order
    b - 1 every reader of the row raises and none returns a value, on
    every row b >= 1 of every valid geometry with n <= 10 and r <= 3.
    Each raises `WindowUnderflow`, the F-bracket of `svr_difference`
    too: it reads its ct rows first, which stop at the context's
    order."""
    rows = 0
    for md in valid_geometries(10, 3):
        for b in range(1, md.bmax + 1):
            ctx = context_for(md, b - 1)
            assert ctx.order == b - 1
            for read in (type_a, n24_block, type_b, n24_by_residue,
                         svr_difference):
                with pytest.raises(WindowUnderflow):
                    read(ctx, b)
            rows += 1
    assert rows == 310


def test_type_a_degree0_is_zero():
    for md in (MD53, MD722, MD623):
        assert type_a(context_for(md, 0), 0) == 0


def test_type_b_residue_oracle_nu_ge_2():
    for md in (MD53, MD722, MultiDegree(6, (3,))):
        ctx = context_for(md, md.bmax)
        for b in range(1, md.bmax + 1):
            assert n24_block(ctx, b) == n24_by_residue(ctx, b)


def test_type_b_residue_route_at_index_one():
    """The residue route needs no nu >= 2: it equals the n/24 block on
    every row b >= 1 of X_6(2,3) and X_8(7)."""
    for md in (MD623, MultiDegree(8, (7,))):
        assert md.nu == 1
        ctx = context_for(md, md.bmax)
        for b in range(1, md.bmax + 1):
            assert n24_block(ctx, b) == n24_by_residue(ctx, b), (md, b)


def test_hbar_window_is_the_least(monkeypatch):
    """The context's hbar window, order + 1, is the least: with
    Ft(1/hbar) at window order, Theta^(1) and the double residue read
    hbar^1 of a slice known only up to hbar^0 and raise."""
    for md in default_grid():
        ctx = FanoContext(md, 6)
        assert ctx.A().matches(a_series(ctx)), md.label()
        assert all(ctx.theta(p, 1).matches(theta_by_residue(ctx, p, 1))
                   for p in range(md.n)), md.label()
    monkeypatch.setattr(FanoContext, "ftilde_hbar", lambda self: ftilde_hbar(
        self.md, self.order, self.order))
    for md in default_grid():
        ctx = FanoContext(md, 6)
        with pytest.raises(WindowUnderflow):
            a_series(ctx)
        for p in range(md.n):
            with pytest.raises(WindowUnderflow):
                theta_by_residue(ctx, p, 1)


def test_fp_w_window_is_the_least(monkeypatch):
    """`FanoContext.fp_w` reads F at window p - 1, which keeps F_p
    known down to w^-1; at p - 2 its window falls to -2, and
    `check_w_regular` fails on it."""
    for md in default_grid() + [MultiDegree(8, (7,))]:
        ctx = FanoContext(md, 8)
        for p in range(md.n):
            assert min(ctx.fp_w(p).his) == -1, (md.label(), p)
            f = ctx.f_w().cut((p - 2,) * (ctx.order + 1))
            assert min(fp_series(ctx.tables, f, p, -1).his) < -1
        assert check_w_regular(ctx)
    monkeypatch.setattr(FanoContext, "fp_w", lambda self, p: fp_series(
        self.tables, self.f_w().cut((p - 2,) * (self.order + 1)), p, -1))
    assert not check_w_regular(FanoContext(MD53, 8))


def test_type_b_poly_parts_are_the_unit_series_reads():
    """The residue route of the n/24 block reads its polynomial part as
    two ct entries against two coefficients of G; it equals the read of
    F_p on the unit series
    (`helpers.type_b_poly_parts_by_unit_series`) on every row b >= 1 of
    every valid geometry with n <= 12 and r <= 3."""
    rows = 0
    for md in valid_geometries(12, 3):
        ctx = context_for(md, md.bmax)
        for b in range(1, md.bmax + 1):
            assert invariants._type_b_poly_parts(ctx, b) \
                == type_b_poly_parts_by_unit_series(ctx, b), (md.label(), b)
            rows += 1
    assert rows == 681


def test_corrupted_type_b_parts_fail_the_residue_oracle(monkeypatch):
    """The residue route of the n/24 block shares no piece of the
    block: a polynomial part at h = 0 off by 1, or the n/24 block
    doubled, fails `check_type_b_residue_oracle` on every geometry of
    the default grid, where n24_block(1) is nonzero; the index-1
    X_6(2,3) included, with n24_block(1) = -114."""
    grid = default_grid()
    assert len(grid) == 6 and all(check_type_b_residue_oracle(_row_context(md))
                                  for md in grid)
    assert all(n24_block(context_for(md, 1), 1) != 0 for md in grid)
    with monkeypatch.context() as m:
        real = invariants._type_b_poly_parts
        m.setattr(invariants, "_type_b_poly_parts",
                  lambda ctx, b: real(ctx, b) + 1)
        assert not any(check_type_b_residue_oracle(_row_context(md))
                       for md in grid)
    with monkeypatch.context() as m:
        real = invariants.n24_block
        for module in (invariants, checks):
            m.setattr(module, "n24_block", lambda ctx, b: 2 * real(ctx, b))
        assert not any(check_type_b_residue_oracle(_row_context(md))
                       for md in grid)


def test_corrupted_ct_residue_row_fails_degree0_and_three_path(monkeypatch):
    """A ct residue row off by 1 moves the standard invariant and type B
    alike, so `consistent` holds; it fails the `degree0-chern` and
    `three-path-consistency` verdicts of the suite (degree 0 against the
    Chern oracle, degree 1 against the vanishing of the reduced
    invariant) on every default-grid geometry."""
    real = invariants.ct_residue_row
    monkeypatch.setattr(invariants, "ct_residue_row",
                        lambda ctx, b: real(ctx, b) + 1)
    for md in default_grid():
        verdicts = {r.name: r.ok for r in run_geometry_suite(md)}
        assert not verdicts["degree0-chern"], md.label()
        assert not verdicts["three-path-consistency"], md.label()


def test_residue_oracle_reads_no_f_w_and_one_inverse(monkeypatch):
    """The residue oracle reads no piece of the F-bracket: on each
    nu >= 2 default-grid geometry `check_type_b_residue_oracle` makes no
    `hyper.f_w` call, no w-side `fp_series` call, and one
    `BiSeries.inv`, of its context's Ft(1/hbar)."""
    w_side, f_ws, inverted, contexts = [], [], [], []
    fp, f_w, inv = hyper.fp_series, hyper.f_w, BiSeries.inv
    init = FanoContext.__init__

    def recording_fp(tables, base, p, shift):
        if shift == -1:
            w_side.append(p)
        return fp(tables, base, p, shift)

    def recording_f_w(tables, order):
        f_ws.append(order)
        return f_w(tables, order)

    def recording_inv(self):
        inverted.append(self)
        return inv(self)

    def recording_init(self, *args):
        init(self, *args)
        contexts.append(self)

    for module in (hyper, invariants):
        monkeypatch.setattr(module, "fp_series", recording_fp, raising=False)
    monkeypatch.setattr(hyper, "f_w", recording_f_w)
    monkeypatch.setattr(BiSeries, "inv", recording_inv)
    monkeypatch.setattr(FanoContext, "__init__", recording_init)
    grid = [md for md in default_grid() if md.nu >= 2]
    assert len(grid) == 5
    for md in grid:
        for calls in (w_side, f_ws, inverted, contexts):
            calls.clear()
        assert check_type_b_residue_oracle(_row_context(md)), md.label()
        assert w_side == [] and f_ws == [], md.label()
        assert len(contexts) == 1, md.label()
        assert len(inverted) == 1, md.label()
        assert inverted[0] is contexts[0].ftilde_hbar(), md.label()


def _patch_f_w_cuts(monkeypatch, after):
    """Hand every reader of `FanoContext.f_w` an F(w) whose `cut(his)`
    returns after(cut, his), the cut made as before."""
    real = FanoContext.f_w

    class Patched(BiSeries):
        __slots__ = ()

        def cut(self, his):
            return after(BiSeries.cut(self, his), his)

    def patched(self):
        f = real(self)
        return Patched(f.slices, f.his)

    monkeypatch.setattr(FanoContext, "f_w", patched)


def test_f_w_reads_stay_below_w_n(monkeypatch):
    """Every cut of F(w) that the F-bracket reads stays below w^n in its
    base slices: over `invariant_table` on every valid geometry with
    n <= 12 and r <= 3, slice k is cut at or below w^(n-1+nu k)."""
    cuts = []

    def recording(f, his):
        cuts.append(tuple(his))
        return f

    _patch_f_w_cuts(monkeypatch, recording)
    for md in valid_geometries(12, 3):
        cuts.clear()
        invariant_table(md)
        assert cuts, md.label()
        assert [his for his in cuts
                if any(h > md.n - 1 + md.nu * k for k, h in enumerate(his))] \
            == [], md.label()


def test_invariant_table_builds_one_f_w(monkeypatch):
    """`invariant_table(X_8(7))` builds F(w) once: every bracket read
    cuts the context's one `FanoContext.f_w`."""
    builds = []
    real = hyper.f_w

    def recording(tables, order):
        builds.append(order)
        return real(tables, order)

    monkeypatch.setattr(hyper, "f_w", recording)
    invariant_table(MultiDegree(8, (7,)))
    assert builds == [7]


def test_every_inverted_f_is_a_cut_of_the_context_f_w(monkeypatch):
    """On X_8(7) the F_0 that the F-bracket inverts (once per context,
    `test_invariant_table_inverts_f0_once`) is a cut of the context's
    one F(w)."""
    inverted, contexts = [], []
    inv, init = BiSeries.inv, FanoContext.__init__

    def recording_inv(self):
        inverted.append(self)
        return inv(self)

    def recording_init(self, *args):
        init(self, *args)
        contexts.append(self)

    monkeypatch.setattr(BiSeries, "inv", recording_inv)
    monkeypatch.setattr(FanoContext, "__init__", recording_init)
    invariant_table(MultiDegree(8, (7,)))
    assert len(contexts) == 1
    f = contexts[0].f_w()
    assert inverted
    for s in inverted:
        assert s == f.cut(s.his), s.order


def _corrupt_f_w(monkeypatch):
    """Add 1 at the top of the window of slice 1 of every F(w) cut that
    a reader of `FanoContext.f_w` takes."""
    def bump(f, his):
        if f.order < 1:
            return f
        bumped = f.slices[1] + LaurentPoly(f.his[1], (1,))
        return BiSeries((f.slices[0], bumped) + f.slices[2:], f.his)

    _patch_f_w_cuts(monkeypatch, bump)


def test_corrupted_f_w_fails_w_regularity_and_three_path(monkeypatch):
    """A corrupted F(w) (`_corrupt_f_w`) fails the `w-regularity` and
    `three-path-consistency` verdicts of the suite on every default-grid
    geometry.  `type-b-residue-oracle` still passes: it reads no
    F(w)."""
    _corrupt_f_w(monkeypatch)
    for md in default_grid():
        verdicts = {r.name: r.ok for r in run_geometry_suite(md)}
        assert not verdicts["w-regularity"], md.label()
        assert not verdicts["three-path-consistency"], md.label()
        assert verdicts["type-b-residue-oracle"], md.label()


def _shorten_f_w(monkeypatch):
    """Hand every reader of `FanoContext.f_w` its cut with slice 1 known
    one power of w less than it asked for."""
    def shorten(f, his):
        if f.order < 1:
            return f
        return f.cut((his[0], his[1] - 1) + tuple(his[2:]))

    _patch_f_w_cuts(monkeypatch, shorten)


def test_a_check_that_raises_fails_alone(monkeypatch, capsys):
    """On X_6(2,3) an F(w) cut short in slice 1 (`_shorten_f_w`) leaves
    the bracket table's entries K[1,k] and K[0,k], k >= 1, short of the
    band the rows read: the three-path, SvR-vanishing and
    truncation-stability checks raise WindowUnderflow.  The suite still
    returns all 14 verdicts, those three FAIL with the exception as
    their detail, and `fanogw check` exits 2 with nothing on stderr."""
    _shorten_f_w(monkeypatch)
    results = run_geometry_suite(MD623)
    assert len(results) == 14
    raised = [r for r in results if r.detail.startswith("WindowUnderflow: ")]
    assert [r.name for r in raised] == ["three-path-consistency",
                                        "svr-vanishing",
                                        "truncation-stability"]
    assert not any(r.ok for r in raised)
    assert main(["check", "--ambient", "6", "--degrees", "2,3"]) == 2
    out = capsys.readouterr()
    assert out.err == ""
    assert "FAIL X_6(2,3)     three-path-consistency" in out.out


def test_type_b_residue_route_rejects_degree_zero():
    """At b = 0 the residue side is not the n/24 block: on X_5(3) the
    block is 0 and prod(d)/n times the residue at h = 0 less its
    polynomial part is (n-1)/2 - sum 1/d_k = 5/3, so the residue route
    refuses b = 0."""
    ctx = context_for(MD53, 1)
    ft = ctx.ftilde_hbar().truncate(0)
    main = _residue_against_g(MD53, ft - fp_series(ctx.tables, ft, 1, +1), 0,
                              ctx.ftilde_hbar_inv())
    residue_side = Fraction(3, 5) * (main - invariants._type_b_poly_parts(ctx, 0))
    assert n24_block(ctx, 0) == 0
    assert residue_side == Fraction(5, 3)
    with pytest.raises(ValueError, match="b >= 1"):
        n24_by_residue(ctx, 0)


def test_type_b_degree0_is_residue_row_only():
    for md in (MD53, MD722):
        ctx = context_for(md, 0)
        assert type_b(ctx, 0) == chern_degree0_oracle(md)


def test_svr_conventions_and_vanishing():
    ctx = context_for(MD53, MD53.bmax)
    assert svr_difference(ctx, 0) == 0
    # threshold (n-2-r)/nu = 1: difference vanishes for b = 2
    assert svr_difference(ctx, 2) == 0
    ctx7 = context_for(MD722, MD722.bmax)
    assert svr_difference(ctx7, 1) != 0
    assert svr_difference(ctx7, 2) == 0


def test_svr_equals_standard_minus_reduced():
    for md in (MD722, MD623):
        ctx = context_for(md, md.bmax)
        for b in range(md.bmax + 1):
            assert svr_difference(ctx, b) \
                == standard_invariant(ctx, b) - reduced_invariant(ctx, b)


def test_three_path_consistency_full_grid_rows():
    for md in (MD53, MD722, MD623):
        for row in invariant_table(md):
            assert row.consistent
            assert row.standard == row.reduced + row.difference


def test_reduced_invariant_vanishes_in_degree_one():
    """No smooth genus-1 curve maps with degree 1, so the main component
    of the reduced moduli space is empty: the reduced invariant and its
    type A part are 0 in degree 1 on every valid geometry with n <= 9
    and r <= 3 that has degree 1."""
    geometries = [md for md in valid_geometries(9, 3) if md.bmax >= 1]
    assert len(geometries) == 57
    for md in geometries:
        ctx = context_for(md, 1)
        assert reduced_invariant(ctx, 1) == 0, md.label()
        assert type_a(ctx, 1) == 0, md.label()


def test_scaled_n24_block_fails_three_path_on_the_grid(monkeypatch):
    """standard and reduced share the n/24 block, so scaling it leaves
    every row consistent; the degree-1 vanishing inside
    `check_three_path` still fails on every default-grid geometry."""
    n24 = invariants.n24_block
    monkeypatch.setattr(invariants, "n24_block",
                        lambda ctx, p: n24(ctx, p) * Fraction(5, 2))
    for md in default_grid():
        assert all(r.consistent for r in invariant_table(md)), md.label()
        assert not check_three_path(_row_context(md)), md.label()


def test_scaled_chern_coefficients_fail_degree0_on_the_grid(monkeypatch):
    """The degree-0 oracle shares no code with the degree-0 row: scaling
    the Chern coefficients (1+w)^n / prod(1 + d_k w) of `_front`, which
    the row reads through `ct_residue_row`, fails `check_degree0` on
    every default-grid geometry."""
    front = invariants._front
    monkeypatch.setattr(invariants, "_front",
                        lambda ctx: front(ctx) * Fraction(7, 3))
    for md in default_grid():
        assert not check_degree0(_row_context(md)), md.label()


def test_reduced_equals_standard_beyond_threshold():
    for md in (MD53, MD722, MD623):
        rows = invariant_table(md)
        for row in rows[md.svr_threshold + 1:]:
            assert row.standard == row.reduced


def test_zero_class_rows_vanish():
    """Above `svr_threshold` the insertion H^(1+nu b) is the zero class
    on X, so standard, reduced and difference are all 0: pinned on all
    248 such rows of the 132 geometries of `valid_geometries(12, 3)`
    that have one.  Type A is not 0 in 166 of them, so those zeros are
    cancellations of type A against the closed rows; and
    `check_svr_vanishing` passes on every geometry."""
    geometries = rows = type_a_nonzero = 0
    for md in valid_geometries(12, 3):
        assert check_svr_vanishing(_row_context(md)), md.label()
        top = range(md.svr_threshold + 1, md.bmax + 1)
        if not top:
            continue
        ctx = context_for(md, md.bmax)
        for b in top:
            assert standard_invariant(ctx, b) == reduced_invariant(ctx, b) \
                == svr_difference(ctx, b) == 0, (md.label(), b)
            type_a_nonzero += type_a(ctx, b) != 0
        geometries, rows = geometries + 1, rows + len(top)
    assert (geometries, rows, type_a_nonzero) == (132, 248, 166)


@pytest.mark.parametrize("name", ["type_a", "n24_block"])
def test_scaled_term_fails_svr_vanishing(monkeypatch, name):
    """Type A or the n/24 block scaled by 7/5 leaves the zero-class rows
    of X_6(2,3) (b = 3, 4, 5) nonzero, so `svr-vanishing` fails; both
    enter each side of a row, so `consistent` cannot see either."""
    assert check_svr_vanishing(_row_context(MD623))
    real = getattr(invariants, name)
    monkeypatch.setattr(invariants, name,
                        lambda ctx, b: real(ctx, b) * Fraction(7, 5))
    assert all(r.consistent for r in invariant_table(MD623))
    assert not check_svr_vanishing(_row_context(MD623))


def _record_builds(monkeypatch, cls) -> list:
    """Every `cls` object built from now on, in order."""
    built, build = [], cls.__init__

    def record(self, *args, **kwargs):
        build(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(cls, "__init__", record)
    return built


@pytest.mark.parametrize("pad", [0, 1, 2])
def test_suite_builds_one_context_per_order(monkeypatch, pad):
    """One `run_geometry_suite` call builds one context for each pinned
    q-order its checks read, 12, 8, bmax and bmax + `TRUNCATION_PAD`,
    each plus pad: four contexts on every default-grid geometry at
    every pad.  At pad 0 it builds four `CoeffTables`: the suite's one,
    read by the sum lemmas and the convolution identity, and one for
    each context but the L identity's."""
    contexts = _record_builds(monkeypatch, FanoContext)
    tables = _record_builds(monkeypatch, CoeffTables)
    for md in default_grid():
        contexts.clear()
        tables.clear()
        run_geometry_suite(md, pad)
        want = {12, 8, md.bmax, md.bmax + checks.TRUNCATION_PAD}
        assert sorted(ctx.order for ctx in contexts) \
            == sorted(order + pad for order in want), md.label()
        assert len(contexts) == 4, md.label()
        if pad == 0:
            assert len(tables) == 4, md.label()


#: the q-orders of the contexts each check is handed in a suite run at
#: pad 0 on X_5(3); None for the checks that read the suite's tables
SUITE_ARGS = [
    (checks.check_l_identity, (12,)), (checks.check_mu_routes, (8,)),
    (checks.check_phi_routes, (8,)), (checks.check_theta_routes, (8,)),
    (checks.check_regularizable, (8,)), (checks.check_w_regular, (8,)),
    (check_degree0, (MD53.bmax,)), (check_three_path, (MD53.bmax,)),
    (check_svr_vanishing, (MD53.bmax,)), (checks.check_a_double_residue, (8,)),
    (check_type_b_residue_oracle, (MD53.bmax,)),
    (checks.check_sum_lemmas, None),
    (checks.check_truncation_stability,
     (MD53.bmax, MD53.bmax + checks.TRUNCATION_PAD)),
    (checks.check_convolution, None)]


@pytest.mark.parametrize("check, orders", SUITE_ARGS,
                         ids=[check.__name__ for check, _ in SUITE_ARGS])
def test_a_check_reads_only_what_it_is_handed(monkeypatch, check, orders):
    """Each check, handed its contexts (their tables built) or the
    suite's `CoeffTables` for X_5(3), passes and builds no `FanoContext`
    and no `CoeffTables` of its own."""
    if orders is None:
        args = [CoeffTables(MD53, p_max=MD53.n,
                            beta_max=checks.SUM_LEMMA_BETA_MAX)]
    else:
        args = [FanoContext(MD53, order) for order in orders]
        for ctx in args:
            assert ctx.tables.beta_max == ctx.order
    contexts = _record_builds(monkeypatch, FanoContext)
    tables = _record_builds(monkeypatch, CoeffTables)
    assert check(*args)
    assert contexts == [] and tables == []


def test_l_identity_alone_builds_no_tables(monkeypatch):
    """The suite hands `check_l_identity` its order-12 context, which
    reads only mu and L, so the check builds no `CoeffTables`: a context
    builds its tables on their first read.  The suite calls each check
    through the module's globals, so a wrapper put there (as the
    benchmark's tracer does) sees the call."""
    built, seen = _record_builds(monkeypatch, CoeffTables), []
    real = checks.check_l_identity

    def wrapped(ctx):
        before = len(built)
        ok = real(ctx)
        seen.append((ctx.order, len(built) - before))
        return ok

    monkeypatch.setattr(checks, "check_l_identity", wrapped)
    for md in default_grid():
        assert all(r.ok for r in run_geometry_suite(md)), md.label()
    assert seen == [(12, 0)] * len(default_grid())
    built.clear()
    assert FanoContext(MD53, 3).tables.beta_max == 3
    assert [tables.beta_max for tables in built] == [3]


def _scaled_slice(x: BiSeries, b: int) -> BiSeries:
    """x with its q^b slice scaled by 7/5, windows kept."""
    return BiSeries([s * Fraction(7, 5) if k == b else s
                     for k, s in enumerate(x.slices)], x.his)


@pytest.mark.parametrize("md", [MD722, MD623], ids=lambda md: md.label())
def test_scaled_regularized_fp_fails_both_readers(monkeypatch, md):
    """The Theta routes, the Phi routes, regularizability and the double
    residue share one `regularized_fp(p)` per p, so a fault in it must
    still fail a check on each side: built with the q^1 slice of its
    Ft_p factor scaled by 7/5, p >= 1 fails `theta-dual-route` and
    `a-double-residue`, and p = 0 fails `phi-dual-route` and
    `regularizability`."""
    real = FanoContext.regularized_fp
    for target in range(md.n):
        def faulty(ctx, p, target=target):
            if p != target:
                return real(ctx, p)
            return ctx.exp_neg_mu() * _scaled_slice(ctx.fp_hbar(p), 1)

        monkeypatch.setattr(FanoContext, "regularized_fp", faulty)
        failed = {r.name for r in run_geometry_suite(md) if not r.ok}
        want = ({"theta-dual-route", "a-double-residue"} if target
                else {"phi-dual-route", "regularizability"})
        assert want <= failed, (md.label(), target, failed)


@pytest.mark.parametrize("md", [MD722, MD623], ids=lambda md: md.label())
@pytest.mark.parametrize("top", [False, True], ids=["whole", "q8"])
def test_scaled_closed_a_fails_the_double_residue(monkeypatch, md, top):
    """The closed A(q) scaled by 7/5, whole or in its q^8 coefficient
    alone, fails `a-double-residue`, which reads A to q-order 8 on the
    series context: a check at a lower order cannot see the q^8 fault."""
    real = FanoContext.A

    def faulty(ctx):
        a = real(ctx)
        if not top:
            return a * Fraction(7, 5)
        if ctx.order < 8:  # the row contexts hold no q^8
            return a
        return a + QSeries(ctx.order, [0] * 8 + [a.coeff(8) * Fraction(2, 5)])

    assert real(FanoContext(md, 8)).coeff(8) != 0
    monkeypatch.setattr(FanoContext, "A", faulty)
    failed = {r.name for r in run_geometry_suite(md) if not r.ok}
    assert "a-double-residue" in failed, md.label()
    assert not checks.check_a_double_residue(FanoContext(md, 8))


def test_frozen_sample_values():
    """Values pinned by the cross-checked implementation (truncation-
    and route-stable; no external table exists to compare against)."""
    rows = invariant_table(MD722)
    assert [r.standard for r in rows] \
        == [Fraction(-1, 2), Fraction(-4, 3), Fraction(0)]
    rows = invariant_table(MD623)
    assert [r.standard for r in rows][:3] \
        == [Fraction(-1), Fraction(15, 2), Fraction(0)]


def test_frozen_f_bracket_windows():
    """The exact window of every slice of the whole F-bracket, row by
    row, at the invariant table's q-order (frozen;
    `helpers.f_bracket_reference`)."""
    md = MultiDegree(8, (7,))
    ctx = context_for(md, md.bmax)
    assert [f_bracket_reference(ctx, 1 + md.nu * b).his
            for b in range(md.bmax + 1)] \
        == [(8 + b,) + (7,) * 7 for b in range(8)]
    ctx = context_for(MD623, MD623.bmax)
    assert [f_bracket_reference(ctx, 1 + MD623.nu * b).his
            for b in range(MD623.bmax + 1)] == [
        (5, 4, 4, 4, 4, 4), (6, 4, 4, 4, 4, 4), (7, 4, 4, 4, 4, 4),
        (8, 4, 4, 4, 4, 4), (9, 4, 4, 4, 4, 4), (10, 4, 4, 4, 4, 4)]


def test_f_residue_series_reads_the_whole_bracket():
    """Read with per-slice windows at q^b w^{n-2-r} alone,
    `f_residue_series(ctx, b)` is that coefficient of the whole bracket
    on every row of X_8(7), X_12(11), X_6(2,3) and every valid geometry
    with n <= 12 and r <= 3."""
    for md in [MultiDegree(8, (7,)), MultiDegree(12, (11,)), MD623] \
            + valid_geometries(12, 3):
        ctx = context_for(md, md.bmax)
        target = md.n - 2 - md.r
        for b in range(md.bmax + 1):
            ref = f_bracket_reference(ctx, 1 + md.nu * b)
            assert f_residue_series(ctx, b) == ref.coeff(b, target), \
                (md.label(), b)


def test_invariant_table_inverts_f0_once(monkeypatch):
    """invariant_table(X_8(7)) inverts F_0 once, for every bracket read
    of its one context: on F_0 cut at w^{n-1-r+nu*k} in slice k, for
    the order + 1 slices q^0..q^7 (the bracket table's graded
    windows)."""
    inverted = []
    real = BiSeries.inv

    def recording(self):
        inverted.append(self.his)
        return real(self)

    monkeypatch.setattr(BiSeries, "inv", recording)
    md = MultiDegree(8, (7,))
    invariant_table(md)
    assert inverted == [tuple(md.n - 1 - md.r + md.nu * k
                              for k in range(md.bmax + 1))]


def test_invariant_table_builds_one_bracket_table_and_no_f_p(monkeypatch):
    """invariant_table reads the F-bracket twice per row b >= 1 (type B
    and the difference) off one bracket table per context, built once,
    and makes no `fp_series` call: on X_8(7), X_6(2,3) and X_5(3)."""
    calls, tables = [], []
    real_fp, real_memo = hyper.fp_series, FanoContext.memo

    def recording_fp(*args):
        calls.append(args[2])
        return real_fp(*args)

    def recording_memo(self, key, build):
        def counted():
            if key == ("bracket_table",):
                tables.append(self)
            return build()
        return real_memo(self, key, counted)

    for module in (hyper, invariants):
        monkeypatch.setattr(module, "fp_series", recording_fp, raising=False)
    monkeypatch.setattr(FanoContext, "memo", recording_memo)
    contexts = _record_builds(monkeypatch, FanoContext)
    for md in (MultiDegree(8, (7,)), MD623, MD53):
        contexts.clear()
        tables.clear()
        invariant_table(md)
        assert calls == [], md.label()
        assert len(contexts) == 1 and tables == contexts, md.label()


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(valid_geometries(12, 3)), st.integers(0, 2))
def test_f_residue_series_is_the_whole_bracket_on_random_geometries(md, pad):
    """On random valid geometries with n <= 12 and r <= 3, at pads 0..2,
    every row read off the bracket table is the q^b w^{n-2-r}
    coefficient of the whole bracket (`helpers.f_bracket_reference`)."""
    ctx = context_for(md, md.bmax, pad)
    for b in range(md.bmax + 1):
        ref = f_bracket_reference(ctx, 1 + md.nu * b)
        assert f_residue_series(ctx, b) == ref.coeff(b, md.n - 2 - md.r), b


#: per scaled entry of the bracket table, the default-grid geometries on
#: which no row reads it: there bmax = 1 < m + k, so the table holds no
#: such entry
UNREAD_ENTRIES = {(1, 0): [], (1, 1): ["X_6(3)", "X_7(3)", "X_9(2,2)"]}


@pytest.mark.parametrize("key", sorted(UNREAD_ENTRIES))
def test_a_scaled_bracket_table_entry_fails_check(monkeypatch, capsys, key):
    """One entry K[m,k] of the bracket table scaled by 7/5 makes
    `fanogw check` exit 2 on every default-grid geometry where a row
    reads it: K[1,0] = F_0[1] * front on all six, and K[1,1], which
    reads slice 1 of the graded F_0^-1, wherever bmax >= 2 (at row 2,
    by `svr-vanishing`).  Where no row reads the entry
    (`UNREAD_ENTRIES`), the check passes."""
    real = invariants._bracket_table

    def scaled(ctx):
        table = dict(real(ctx))
        if key in table:
            entry, hi = table[key]
            table[key] = entry * Fraction(7, 5), hi
        return table

    monkeypatch.setattr(invariants, "_bracket_table", scaled)
    for md in default_grid():
        unread = md.label() in UNREAD_ENTRIES[key]
        assert unread == (md.bmax < sum(key)), md.label()
        args = ["--ambient", str(md.n),
                "--degrees", ",".join(map(str, md.degrees))]
        assert main(["check"] + args) == (0 if unread else 2), md.label()
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("pad", [0, 2])
def test_n24_block_is_q_b_of_the_whole_block(pad):
    """n24_block(ctx, b), read at q^b alone, is the q^b coefficient of
    the whole block (`helpers.n24_block_reference`) on every row of
    X_8(7) and every valid geometry with n <= 9 and r <= 3."""
    for md in [MultiDegree(8, (7,))] + valid_geometries(9, 3):
        ctx = context_for(md, md.bmax, pad)
        for b in range(md.bmax + 1):
            ref = n24_block_reference(ctx, 1 + md.nu * b)
            assert n24_block(ctx, b) == ref.coeff(b), (md.label(), pad, b)


def test_deep_index_one_geometry():
    """X_7(2,4): index 1 with six degrees in range; the reduced
    invariants are nonzero at degrees 2 and 3 (so the three-path
    agreement is not a tautological cancellation), and every insertion
    power beyond the dimension gives exactly zero."""
    md = MultiDegree(7, (2, 4))
    assert chern_degree0_oracle(md) == chern_value_oracle(7, (2, 4)) == 5
    rows = invariant_table(md)
    assert all(r.consistent for r in rows)
    assert [r.reduced for r in rows[:4]] \
        == [Fraction(5), Fraction(0), Fraction(104), Fraction(10240)]
    assert rows[2].standard == Fraction(-452608, 3)
    assert all(r.standard == 0 for r in rows[4:])  # h^a = 0 above dim X


def test_truncation_stability():
    assert invariant_table(MD53) == invariant_table(MD53, pad=2)
    row_a = invariant_row(context_for(MD722, 1), 1)
    row_b = invariant_row(context_for(MD722, 1, 2), 1)
    assert row_a == row_b


def test_out_of_range():
    ctx = context_for(MD53, MD53.bmax)
    with pytest.raises(OutOfRange):
        standard_invariant(ctx, MD53.bmax + 1)
    with pytest.raises(OutOfRange):
        svr_difference(ctx, -1)


def test_table_bounds_must_be_non_negative():
    """A negative max_b or pad is refused with a message naming it, not
    read as an empty table, a smaller context or a short window."""
    for kwargs, name in (({"max_b": -1}, "max_b"), ({"max_b": -2}, "max_b"),
                         ({"pad": -1}, "pad"), ({"pad": -2}, "pad")):
        with pytest.raises(ValueError, match=f"^{name} must be >= 0"):
            invariant_table(MD53, **kwargs)


def test_insertion_power():
    rows = invariant_table(MD623)
    assert [r.insertion_power for r in rows] == [1, 2, 3, 4, 5, 6]
