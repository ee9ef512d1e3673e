"""Exact-series substrate: ring axioms, inverses, transcendental maps,
Laurent windows and the hard-error contract on unknown coefficients."""

import random
from fractions import Fraction

import pytest

from fanogw.series import (BiSeries, LaurentPoly, QSeries, BadConstantTerm,
                           NotInvertible, WindowUnderflow, ZeroConstantTerm)

from helpers import poly_mul as oracle_mul


def rand_qseries(rng, order, unit=False, vanishing=False):
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
              for _ in range(order + 1)]
    if unit:
        coeffs[0] = Fraction(1)
    if vanishing:
        coeffs[0] = Fraction(0)
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
    assert QSeries(3, (1, -1)).inv() == QSeries(3, (1, 1, 1, 1))


def test_inv_constant():
    assert QSeries(0, (2,)).inv() == QSeries(0, (Fraction(1, 2),))


def test_inv_ratio_minus_three():
    assert QSeries(2, (1, 3)).inv() == QSeries(2, (1, -3, 9))


def test_inv_zero_constant_term():
    with pytest.raises(ZeroConstantTerm):
        QSeries(2, (0, 1)).inv()


def test_log_mercator():
    got = QSeries(3, (1, 1)).log()
    assert got == QSeries(3, (0, 1, Fraction(-1, 2), Fraction(1, 3)))


def test_exp_series():
    assert QSeries(2, (0, 1)).exp() == QSeries(2, (1, 1, Fraction(1, 2)))


def test_pow_binomial_half():
    got = QSeries(2, (1, 1)).pow(Fraction(1, 2))
    assert got == QSeries(2, (1, Fraction(1, 2), Fraction(-1, 8)))


def test_log_exp_need_right_constant():
    with pytest.raises(BadConstantTerm):
        QSeries(2, (2, 1)).log()
    with pytest.raises(BadConstantTerm):
        QSeries(2, (1, 1)).exp()
    with pytest.raises(BadConstantTerm):
        QSeries(2, (2, 1)).pow(Fraction(1, 2))


def test_deriv_examples():
    assert QSeries(2, (1, 3, 5)).deriv() == QSeries(1, (3, 10))
    assert QSeries(0, (7,)).deriv() == QSeries(0)
    assert QSeries(3, (0, 0, 0, 1)).deriv() == QSeries(2, (0, 0, 3))


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
        assert a * a.inv() == QSeries.one(6)
        assert a.inv() * a == QSeries.one(6)


def test_exp_log_roundtrip_random():
    rng = random.Random(99)
    for _ in range(15):
        a = rand_qseries(rng, 6, unit=True)
        assert a.log().exp() == a
        v = rand_qseries(rng, 6, vanishing=True)
        assert v.exp().log() == v


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
    a = BiSeries([LaurentPoly(0, (1, 1))])
    inv = a.inv(hi=3)
    assert inv.slice(0) == LaurentPoly(0, (1, -1, 1, -1))
    assert inv.slice_hi(0) == 3


def test_bs_inv_needs_window_for_fully_known():
    a = BiSeries([LaurentPoly(0, (1, 1))])
    with pytest.raises(WindowUnderflow):
        a.inv()


def test_bs_inv_monomial_unit():
    # 1 / (w^2 (1 + w)) = w^{-2} - w^{-1} + 1 - w ...
    a = BiSeries([LaurentPoly(2, (1, 1))])
    inv = a.inv(hi=0)
    assert inv.slice(0) == LaurentPoly(-2, (1, -1, 1))


def test_bs_inv_zero_slice_not_invertible():
    a = BiSeries([LaurentPoly.zero(), LaurentPoly(0, (1,))])
    with pytest.raises(NotInvertible):
        a.inv(hi=2)


def test_bs_residue_examples():
    a = BiSeries([LaurentPoly(-2, (2, 3, 5))])
    assert a.residue() == QSeries(0, (3,))
    regular = BiSeries([LaurentPoly(0, (1, 4))])
    assert regular.residue() == QSeries(0)
    qh = BiSeries([LaurentPoly.zero(), LaurentPoly(-1, (1,))])
    assert qh.residue() == QSeries(1, (0, 1))


def test_bs_coeff_of_aux():
    # coeff of w^1 in (1 + 3w + w^2)(1 + q)
    a = BiSeries([LaurentPoly(0, (1, 3, 1)), LaurentPoly(0, (1, 3, 1))])
    assert a.coeff_of_aux(1) == QSeries(1, (3, 3))


def test_bs_coeff_window_underflow():
    a = BiSeries([LaurentPoly(0, (1, 1, 1, 1))], his=[3])
    with pytest.raises(WindowUnderflow):
        a.coeff_of_aux(5)
    assert a.coeff_of_aux(3) == QSeries(0, (1,))


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
        # truncate knowledge and verify reads inside the window agree
        ah = rng.randint(0, 3)
        bh = rng.randint(0, 3)
        a_cut = BiSeries(a.slices, [ah] * 4)
        b_cut = BiSeries(b.slices, [bh] * 4)
        prod = a_cut * b_cut
        for beta in range(4):
            full = _bruteforce_slice(a, b, beta)
            h = prod.slice_hi(beta)
            for e in range(-6, h + 1):
                assert prod.coeff(beta, e) == full.get(e, 0)
            with pytest.raises(WindowUnderflow):
                prod.coeff(beta, h + 1)


def test_apply_d_examples():
    one = BiSeries([LaurentPoly(0, (1,)), LaurentPoly.zero()])
    assert one.apply_D(-1).slice(0) == LaurentPoly(0, (1,))
    assert one.apply_D(-1).slice(1).is_zero()
    # D(q w) = q w + q in the w presentation
    qw = BiSeries([LaurentPoly.zero(), LaurentPoly(1, (1,))])
    got = qw.apply_D(-1)
    assert got.slice(1) == LaurentPoly(0, (1, 1))


def test_immutability():
    s = QSeries(1, (1, 2))
    with pytest.raises(AttributeError):
        s.coeffs = ()
    lp = LaurentPoly(0, (1,))
    with pytest.raises(AttributeError):
        lp.lo = 5
