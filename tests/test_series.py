"""Exact-series substrate: ring axioms, inverses, powers,
Laurent windows and the hard-error contract on unknown coefficients."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanogw.geometry import MultiDegree
from fanogw.hyper import FanoContext, fp_series
from fanogw.series import (INF_EXP, BiSeries, LaurentPoly, QSeries,
                           BadConstantTerm, NotInvertible, WindowUnderflow,
                           ZeroConstantTerm)

from helpers import apply_d, coeff_of_aux, d_power_tables
from helpers import poly_mul as oracle_mul


def rand_qseries(rng, order, unit=False):
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
              for _ in range(order + 1)]
    if unit:
        coeffs[0] = Fraction(1)
    return QSeries(order, coeffs)


# -- QSeries basics


def test_mul_difference_of_squares():
    one_plus = QSeries(2, (1, 1))
    one_minus = QSeries(2, (1, -1))
    assert one_plus * one_minus == QSeries(2, (1, 0, -1))


def test_mul_identity():
    s = QSeries(3, (2, -5, 7, 1))
    assert QSeries.one(3) * s == s


def test_mul_telescoping_truncates():
    a = QSeries(2, (1, 1, 1))
    b = QSeries(2, (1, -1))
    assert a * b == QSeries(2, (1, 0, 0))


def test_inv_geometric():
    assert QSeries.one(3) / QSeries(3, (1, -1)) == QSeries(3, (1, 1, 1, 1))


def test_inv_constant():
    assert QSeries.one(0) / QSeries(0, (2,)) == QSeries(0, (Fraction(1, 2),))


def test_inv_ratio_minus_three():
    assert QSeries.one(2) / QSeries(2, (1, 3)) == QSeries(2, (1, -3, 9))


def test_inv_zero_constant_term():
    with pytest.raises(ZeroConstantTerm):
        QSeries.one(2) / QSeries(2, (0, 1))


def test_pow_binomial_half():
    got = QSeries(2, (1, 1)).pow(Fraction(1, 2))
    assert got == QSeries(2, (1, Fraction(1, 2), Fraction(-1, 8)))


def test_log_exp_need_right_constant():
    with pytest.raises(BadConstantTerm):
        QSeries(2, (2, 1)).pow(Fraction(1, 2))
    with pytest.raises(ZeroConstantTerm):
        QSeries(2, (0, 1)).pow(2)


def test_euler_examples():
    """D = q d/dq multiplies q^k by k and keeps the order, so D of an
    order-0 series is a known 0."""
    assert QSeries(2, (1, 3, 5)).euler() == QSeries(2, (0, 3, 10))
    assert QSeries(0, (7,)).euler() == QSeries.zero(0)
    assert QSeries(0, (7,)).euler().coeff(0) == 0
    assert QSeries(3, (0, 0, 0, 1)).euler() == QSeries(3, (0, 0, 0, 3))


def test_coeff_window_contract():
    s = QSeries(2, (1, 2, 3))
    assert s.coeff(-1) == 0
    with pytest.raises(WindowUnderflow):
        s.coeff(3)


def test_ring_axioms_random():
    rng = random.Random(20240817)
    for _ in range(40):
        a = rand_qseries(rng, 6)
        b = rand_qseries(rng, 6)
        c = rand_qseries(rng, 6)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_inverse_two_sided_random():
    rng = random.Random(7)
    for _ in range(20):
        a = rand_qseries(rng, 6)
        if a.coeffs[0] == 0:
            continue
        inv = QSeries.one(6) / a
        assert a * inv == QSeries.one(6)
        assert inv * a == QSeries.one(6)


def test_quotient_is_product_with_inverse_random():
    rng = random.Random(11)
    for _ in range(20):
        a = rand_qseries(rng, 6)
        b = rand_qseries(rng, rng.randint(3, 7))
        if b.coeffs[0] == 0:
            continue
        assert a / b == a * (QSeries.one(b.order) / b)
        assert (a / b) * b == QSeries.from_poly(min(6, b.order), a.poly)


def test_fractional_power_consistency_random():
    rng = random.Random(3)
    for _ in range(10):
        a = rand_qseries(rng, 5, unit=True)
        p, q = rng.randint(1, 3), rng.randint(2, 4)
        assert a.pow(Fraction(p, q)).pow(q) == a.pow(p)
        assert a.pow(1) == a


# -- LaurentPoly


def test_laurent_zero_outside_bounds():
    lp = LaurentPoly(-2, (1, 0, 3))
    assert lp.coeff(-2) == 1
    assert lp.coeff(0) == 3
    assert lp.coeff(-5) == 0 and lp.coeff(4) == 0
    assert lp.lo == -2 and lp.hi == 0


def test_laurent_trims_margins():
    lp = LaurentPoly(-1, (0, 5, 0))
    assert lp.lo == 0 and lp.hi == 0 and lp.coeff(0) == 5


def test_laurent_mul_shift():
    a = LaurentPoly(-1, (1, 1))
    assert a * a == LaurentPoly(-2, (1, 2, 1))
    assert a.shift(3) == LaurentPoly(2, (1, 1))


# -- BiSeries


def test_bs_mul_trivial():
    # (1 + w q)(1 - w q) = 1 - w^2 q^2
    a = BiSeries([LaurentPoly(0, (1,)), LaurentPoly(1, (1,)),
                  LaurentPoly.zero()])
    b = BiSeries([LaurentPoly(0, (1,)), LaurentPoly(1, (-1,)),
                  LaurentPoly.zero()])
    c = a * b
    assert c.slice(0) == LaurentPoly(0, (1,))
    assert c.slice(1).is_zero()
    assert c.slice(2) == LaurentPoly(2, (-1,))


def test_bs_inv_geometric_window():
    inv = BiSeries([LaurentPoly(0, (1, 1))], [3]).inv()
    assert inv.slice(0) == LaurentPoly(0, (1, -1, 1, -1))
    assert inv.his[0] == 3


def test_bs_inv_needs_window_for_fully_known():
    """Also for a product of fully known slices with negative exponents
    whose q^0 slice is a unit, which is fully known itself."""
    prod = BiSeries([LaurentPoly(-1, (1,))]) * BiSeries([LaurentPoly(1, (1, 1))])
    assert prod.his == (INF_EXP,)
    for a in (BiSeries([LaurentPoly(0, (1, 1))]), prod):
        with pytest.raises(WindowUnderflow):
            a.inv()


def test_bs_inv_needs_a_unit_q0_slice():
    """A q^0 slice with a monomial factor, w^2 (1 + w) or w^-1 (1 + w),
    is not a unit: its inverse is not built."""
    for lo in (2, -1):
        with pytest.raises(NotInvertible):
            BiSeries([LaurentPoly(lo, (1, 1))], [4]).inv()


def test_bs_inv_zero_slice_not_invertible():
    a = BiSeries([LaurentPoly.zero(), LaurentPoly(0, (1,))])
    with pytest.raises(NotInvertible):
        a.inv()


def test_bs_residue_examples():
    a = BiSeries([LaurentPoly(-2, (2, 3, 5))])
    assert coeff_of_aux(a, -1) == QSeries(0, (3,))
    regular = BiSeries([LaurentPoly(0, (1, 4))])
    assert coeff_of_aux(regular, -1) == QSeries(0)
    qh = BiSeries([LaurentPoly.zero(), LaurentPoly(-1, (1,))])
    assert coeff_of_aux(qh, -1) == QSeries(1, (0, 1))


def test_bs_coeff_of_aux():
    # coeff of w^1 in (1 + 3w + w^2)(1 + q)
    a = BiSeries([LaurentPoly(0, (1, 3, 1)), LaurentPoly(0, (1, 3, 1))])
    assert coeff_of_aux(a, 1) == QSeries(1, (3, 3))


def test_bs_coeff_window_underflow():
    a = BiSeries([LaurentPoly(0, (1, 1, 1, 1))], his=[3])
    with pytest.raises(WindowUnderflow):
        coeff_of_aux(a, 5)
    assert coeff_of_aux(a, 3) == QSeries(0, (1,))


def _bruteforce_slice(a, b, beta):
    """The q^beta slice of a * b as {exponent: coefficient}, from plain
    list products of the slices (no library arithmetic)."""
    out = {}
    for b1 in range(beta + 1):
        u, v = a.slice(b1), b.slice(beta - b1)
        if u.is_zero() or v.is_zero():
            continue
        top = len(u.coeffs) + len(v.coeffs) - 2
        for k, c in enumerate(oracle_mul(list(u.coeffs), list(v.coeffs), top)):
            out[u.lo + v.lo + k] = out.get(u.lo + v.lo + k, 0) + c
    return out


def test_bs_window_narrowing_matches_bruteforce():
    """Reads inside the product's windows agree with the product of the
    uncut operands, for supports starting below 0 and either operand
    cut or fully known; the product of two fully known operands is
    fully known."""
    rng = random.Random(42)
    for _ in range(25):
        def rand_bs(order):
            slices = []
            for _ in range(order + 1):
                lo = rng.randint(-3, 1)
                width = rng.randint(1, 4)
                slices.append(LaurentPoly(
                    lo, [Fraction(rng.randint(-4, 4), rng.randint(1, 12))
                         for _ in range(width)]))
            return BiSeries(slices)
        a, b = rand_bs(3), rand_bs(3)
        ah, bh = rng.randint(0, 3), rng.randint(0, 3)
        for ah, bh in ((INF_EXP, INF_EXP), (INF_EXP, bh), (ah, INF_EXP),
                       (ah, bh)):
            prod = BiSeries(a.slices, [ah] * 4) * BiSeries(b.slices, [bh] * 4)
            for beta in range(4):
                full = _bruteforce_slice(a, b, beta)
                h = prod.his[beta]
                if ah == bh == INF_EXP:
                    assert h == INF_EXP
                if h == INF_EXP:
                    assert dict(prod.slice(beta).items()) \
                        == {e: c for e, c in full.items() if c}
                    continue
                for e in range(-6, h + 1):
                    assert prod.coeff(beta, e) == full.get(e, 0)
                with pytest.raises(WindowUnderflow):
                    prod.coeff(beta, h + 1)


def test_fully_known_windows_survive_products():
    """exp(-mu/hbar) has slices down to hbar^-beta, all exact: its square
    stays fully known on every slice."""
    e = FanoContext(MultiDegree(5, (3,)), 3).exp_neg_mu()
    sq = e * e
    assert sq.his == (INF_EXP,) * 4


fracs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


def windowed_bs(data, order):
    """A random BiSeries of the given order: slices from aux^-3 up, each
    window an exponent or INF_EXP."""
    return BiSeries(
        [LaurentPoly(data.draw(st.integers(-3, 2)),
                     data.draw(st.lists(fracs, max_size=5)))
         for _ in range(order + 1)],
        [data.draw(st.integers(-3, 6) | st.just(INF_EXP))
         for _ in range(order + 1)])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_band_read_is_the_product_read(data):
    """u.mul_coeff_of_aux(v, e) is the aux^e coefficients of u * v
    (`helpers.coeff_of_aux`), or both raise WindowUnderflow."""
    u = windowed_bs(data, data.draw(st.integers(0, 3)))
    v = windowed_bs(data, data.draw(st.integers(0, 3)))
    e = data.draw(st.integers(-7, 9))
    try:
        want = coeff_of_aux(u * v, e)
    except WindowUnderflow:
        with pytest.raises(WindowUnderflow):
            u.mul_coeff_of_aux(v, e)
    else:
        assert u.mul_coeff_of_aux(v, e) == want


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_truncation_commutes_with_products_and_inverses(data):
    """Cutting at q^k before or after a product or an inverse gives the
    same slices and the same windows; where the inverse raises, so does
    the inverse of the cut series."""
    order = data.draw(st.integers(0, 4))
    k = data.draw(st.integers(0, order))
    u, v = windowed_bs(data, order), windowed_bs(data, order)
    assert (u * v).truncate(k) == u.truncate(k) * v.truncate(k)
    try:
        inv = u.inv()
    except (NotInvertible, WindowUnderflow) as exc:
        with pytest.raises(type(exc)):
            u.truncate(k).inv()
    else:
        assert inv.truncate(k) == u.truncate(k).inv()


def test_bs_truncate_bounds():
    a = BiSeries([LaurentPoly(0, (1, 2)), LaurentPoly(-1, (3,))], [4, 2])
    assert a.truncate(0) == BiSeries([LaurentPoly(0, (1, 2))], [4])
    assert a.truncate(1) == a
    with pytest.raises(WindowUnderflow):
        a.truncate(2)
    with pytest.raises(ValueError):
        a.truncate(-1)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cut_is_the_constructors_cut(data):
    """`BiSeries.cut(his)` keeps the first len(his) slices, each cut at
    its window, as the constructor cuts them; a window past a slice's
    own, or more slices than the series holds, raises WindowUnderflow;
    truncate(b) is cut(his[:b+1])."""
    order = data.draw(st.integers(0, 3))
    u = windowed_bs(data, order)
    count = data.draw(st.integers(1, order + 1))
    his = [data.draw(st.integers(-3, 4)) if h == INF_EXP
           else data.draw(st.integers(h - 3, h)) for h in u.his[:count]]
    assert u.cut(his) == BiSeries(u.slices[:count], his)
    assert u.truncate(count - 1) == u.cut(u.his[:count])
    k = data.draw(st.integers(0, count - 1))
    if u.his[k] != INF_EXP:
        with pytest.raises(WindowUnderflow):
            u.cut(his[:k] + [u.his[k] + 1] + his[k + 1:])
    with pytest.raises(WindowUnderflow):
        u.cut(list(u.his) + [0])


def test_apply_d_examples():
    """D = 1 + aux^shift q d/dq by the reference chain and by fp_series
    (whose F_p over d_power_tables is D^p)."""
    one = BiSeries([LaurentPoly(0, (1,)), LaurentPoly.zero()])
    # D(q w) = q w + q in the w presentation, q hbar + q hbar^2 in hbar
    qw = BiSeries([LaurentPoly.zero(), LaurentPoly(1, (1,))])
    qw2 = BiSeries([LaurentPoly.zero(), LaurentPoly.zero(), LaurentPoly(1, (1,))])
    for d in (apply_d,
              lambda base, shift, p=1: fp_series(d_power_tables(1, p), base, p,
                                                 shift)):
        assert d(one, -1) == one
        assert d(qw, -1).slice(1) == LaurentPoly(0, (1, 1))
        assert d(qw, 1).slice(1) == LaurentPoly(1, (1, 1))
        # D^2(q^2 w) = q^2 (w + 2)^2 / w
        assert d(qw2, -1, 2).slice(2) == LaurentPoly(-1, (4, 4, 1))
        # each w-side D lowers a known window of slice b >= 1 by one
        cut = BiSeries(qw2.slices, (5, 5, 5))
        assert d(cut, -1, 2).his == (5, 3, 3)
        assert d(cut, 1, 2).his == (5, 5, 5)


def test_immutability():
    s = QSeries(1, (1, 2))
    with pytest.raises(AttributeError):
        s.coeffs = ()
    lp = LaurentPoly(0, (1,))
    with pytest.raises(AttributeError):
        lp.lo = 5
