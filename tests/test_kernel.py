"""The exact kernel in `fanogw.series` (truncated product, quotient by a
unit, rational power of a unit, Taylor shift, product of linear factors)
against the independent list arithmetic in `helpers` (products, long
division), on random Fraction lists, and the one-coefficient product
reads `BiSeries.mul_coeff` and `QSeries.mul_coeff` against the whole
product.  The kernel takes and returns LaurentPolys in integer form;
every result must be canonical (`helpers.is_canonical`) and read back
as the oracle's Fractions."""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanogw.series import (INF_EXP, BadConstantTerm, BiSeries, LaurentPoly,
                           QSeries, WindowUnderflow, ZeroConstantTerm,
                           linear_product, poly_div, poly_mul, poly_pow,
                           poly_shift, sum_of_products)

from helpers import is_canonical, long_division, power
from helpers import poly_mul as oracle_mul

kernel = settings(max_examples=150, deadline=None)

rats = st.fractions(min_value=-9, max_value=9, max_denominator=9)
#: primes just above 2**31: products of distinct ones give large,
#: pairwise coprime denominators, so the common denominator and the
#: final normalisation of each coefficient do real work
PRIMES = (2147483659, 2147483693, 2147483713, 2147483743, 2147483777,
          2147483783)
big = st.builds(Fraction, st.integers(-2**64, 2**64),
                st.sets(st.sampled_from(PRIMES), max_size=3).map(prod))
# zeros often, so that sparse and all-zero lists are drawn
coeffs = st.one_of(st.just(Fraction(0)), rats, big)
polys = st.lists(coeffs, max_size=7)
caps = st.integers(min_value=0, max_value=14)


def lp(xs):
    """The polynomial with coefficients xs from x^0 up."""
    return LaurentPoly(0, xs)


def dense(p, n):
    """The coefficients of x^0..x^(n-1) of p, as read."""
    return [p.coeff(k) for k in range(n)]


def padded(xs, cap):
    return list(xs) + [Fraction(0)] * (cap + 1 - len(xs))


@kernel
@given(polys, polys, caps)
def test_poly_mul_matches_oracle(a, b, cap):
    got = poly_mul(lp(a), lp(b), cap)
    assert got.hi <= cap and is_canonical(got)
    assert dense(got, cap + 1) == oracle_mul(a, b, cap)


@kernel
@given(polys, polys)
def test_poly_mul_uncapped_is_the_whole_product(a, b):
    got = poly_mul(lp(a), lp(b))
    full = len(a) + len(b) - 1 if a and b else 0
    assert got.hi < full or got.is_zero()
    assert dense(got, full) == oracle_mul(a, b, full - 1)


@kernel
@given(st.lists(st.tuples(st.integers(-3, 3), polys, st.integers(-3, 3), polys),
                max_size=4),
       st.integers(-8, 14), st.integers(0, 8))
def test_sum_of_products_band_is_the_cut_sum(pairs, lo, width):
    """Kept in the band lo..lo+width, the sum of products has the
    coefficients of the whole sum there and nothing elsewhere."""
    pairs = [(LaurentPoly(i, a), LaurentPoly(j, b)) for i, a, j, b in pairs]
    whole = {}
    for u, v in pairs:
        for e, c in poly_mul(u, v).items():
            whole[e] = whole.get(e, 0) + c
    got = sum_of_products(pairs, lo + width, lo)
    assert is_canonical(got)
    assert dict(got.items()) == {e: c for e, c in whole.items()
                                 if c and lo <= e <= lo + width}


@kernel
@given(polys, caps)
def test_poly_div_unit_numerator_matches_long_division(a, cap):
    one = lp([1])
    if not a or a[0] == 0:
        with pytest.raises(ZeroConstantTerm):
            poly_div(one, lp(a), cap)
        return
    got = poly_div(one, lp(a), cap)
    assert got.hi <= cap and is_canonical(got)
    assert dense(got, cap + 1) == long_division([Fraction(1)], a, cap)
    assert poly_mul(lp(a), got, cap) == one


@kernel
@given(st.one_of(rats, big).filter(lambda x: x not in (0, 1, -1)), polys,
       caps)
def test_poly_div_with_a_constant_term_other_than_a_sign(a0, rest, cap):
    a = [a0] + rest
    got = poly_div(lp([1]), lp(a), cap)
    assert is_canonical(got)
    assert dense(got, cap + 1) == long_division([Fraction(1)], a, cap)


units = st.one_of(rats, big).filter(lambda x: x != 0)


# polys may be empty or all zero and are drawn with lengths on both
# sides of the cap
@kernel
@given(polys, coeffs, polys, caps)
def test_poly_div_matches_long_division(num, a0, rest, cap):
    den = [a0] + rest
    if a0 == 0:
        with pytest.raises(ZeroConstantTerm):
            poly_div(lp(num), lp(den), cap)
        return
    got = poly_div(lp(num), lp(den), cap)
    assert got.hi <= cap and is_canonical(got)
    assert dense(got, cap + 1) == long_division(num, den, cap)


def oracle_pow(a, e, cap):
    """a**e for an int e >= 0 by repeated oracle products."""
    out = padded([Fraction(1)], cap)
    for _ in range(e):
        out = oracle_mul(out, a, cap)
    return out


@kernel
@given(polys, st.integers(-4, 4), st.integers(2, 5), caps)
def test_poly_pow_fractional_exponent(rest, u, v, cap):
    a = [Fraction(1)] + rest
    got = poly_pow(lp(a), Fraction(u, v), cap)
    assert got.hi <= cap and is_canonical(got)
    assert got.coeff(0) == 1
    want = (oracle_pow(a, u, cap) if u >= 0
            else long_division([Fraction(1)], oracle_pow(a, -u, cap), cap))
    assert oracle_pow(dense(got, cap + 1), v, cap) == want


@kernel
@given(units, polys, st.integers(-4, 4), caps)
def test_poly_pow_integer_exponent(a0, rest, e, cap):
    a = [a0] + rest
    got = dense(poly_pow(lp(a), e, cap), cap + 1)
    assert is_canonical(poly_pow(lp(a), e, cap))
    if e >= 0:
        assert got == oracle_pow(a, e, cap)
    else:
        assert got == long_division([Fraction(1)], oracle_pow(a, -e, cap), cap)


@kernel
@given(polys, st.fractions(-5, 5, max_denominator=5), caps)
def test_poly_pow_error_cases(rest, alpha, cap):
    with pytest.raises(ZeroConstantTerm):
        poly_pow(lp([Fraction(0)] + rest), alpha, cap)
    if alpha.denominator != 1:
        with pytest.raises(BadConstantTerm):
            poly_pow(lp([Fraction(2)] + rest), alpha, cap)


# int pairs only: the library passes int pairs
factors = st.integers(-9, 9)


@kernel
@given(st.lists(st.tuples(factors, factors), max_size=6), caps)
def test_linear_product_matches_oracle(pairs, cap):
    want = padded([Fraction(1)], cap)
    for a, b in pairs:
        want = oracle_mul(want, [a, b], cap)
    got = linear_product(pairs, cap)
    assert got.hi <= cap and is_canonical(got)
    assert dense(got, cap + 1) == want
    with pytest.raises(TypeError):
        linear_product(pairs + [(Fraction(1, 2), 1)], cap)


@kernel
@given(polys, st.integers(-9, 9))
def test_poly_shift_matches_expanded_powers(a, s):
    want = [Fraction(0)] * len(a)
    for k, c in enumerate(a):  # c (x + s)^k
        for j, x in enumerate(power([Fraction(s), Fraction(1)], k, k)):
            want[j] += c * x
    got = poly_shift(lp(a), s)
    assert got.hi < len(a) and is_canonical(got)
    assert dense(got, len(a)) == want
    assert poly_shift(got, -s) == lp(a)


@st.composite
def windowed_series(draw):
    """A BiSeries of order 0..3: random slices from aux^-3 up, each
    window an exponent or INF_EXP."""
    order = draw(st.integers(0, 3))
    return BiSeries(
        [LaurentPoly(draw(st.integers(-3, 2)), draw(st.lists(coeffs, max_size=5)))
         for _ in range(order + 1)],
        [draw(st.integers(-3, 6) | st.just(INF_EXP)) for _ in range(order + 1)])


@kernel
@given(windowed_series(), windowed_series(), st.integers(-1, 4),
       st.integers(-7, 9))
def test_mul_coeff_is_the_product_read(a, c, b, e):
    """a.mul_coeff(c, b, e) is (a * c).coeff(b, e), and raises
    WindowUnderflow exactly when that read does (a short window, or b
    outside the product's q-orders)."""
    try:
        want = (a * c).coeff(b, e)
    except WindowUnderflow:
        with pytest.raises(WindowUnderflow):
            a.mul_coeff(c, b, e)
    else:
        assert a.mul_coeff(c, b, e) == want


@kernel
@given(st.integers(0, 5), polys, st.integers(0, 5), polys, st.integers(-1, 7))
def test_qseries_mul_coeff_is_the_product_read(order_a, a, order_c, c, k):
    """a.mul_coeff(c, k) is (a * c).coeff(k), and raises
    WindowUnderflow exactly when that read does (k past the smaller
    truncation order)."""
    a, c = QSeries(order_a, a), QSeries(order_c, c)
    try:
        want = (a * c).coeff(k)
    except WindowUnderflow:
        with pytest.raises(WindowUnderflow):
            a.mul_coeff(c, k)
    else:
        assert a.mul_coeff(c, k) == want


def test_kernel_edge_cases():
    zero, one, two = LaurentPoly.zero(), lp([1]), lp([2])
    assert poly_mul(zero, one, 3) == zero
    assert poly_mul(lp([1, 2]), lp([3]), -1) == zero
    assert poly_div(one, two, -1) == zero
    assert poly_div(zero, two, 2) == zero
    assert poly_pow(two, 3, -1) == zero
    assert poly_pow(lp([2, 1]), 0, 2) == one
    assert linear_product([], 0) == one
    assert poly_shift(zero, 3) == zero
    assert linear_product([(1, 1)] * 3) == lp([1, 3, 3, 1])
    # Laurent operands: exponents carry through and caps are absolute
    x = LaurentPoly(-2, [1, 1])
    assert poly_mul(x, x, -3) == LaurentPoly(-4, [1, 2])
    assert poly_div(x, lp([1, 1]), 4) == LaurentPoly(-2, [1])
    with pytest.raises(ZeroConstantTerm):
        poly_div(one, x, 4)
    with pytest.raises(ValueError):
        poly_shift(x, 1)
