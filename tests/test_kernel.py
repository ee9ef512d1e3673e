"""The exact kernel in `fanogw.series` (truncated product, unit inverse,
product of linear factors) against the independent list arithmetic in
`helpers`, on random Fraction lists.  The kernel computes on integer
numerators over a common denominator; every output element must still
be a Fraction in lowest terms."""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanogw.series import ZeroConstantTerm, linear_product, poly_inv, poly_mul

from helpers import long_division
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


def fractions(xs):
    return all(type(x) is Fraction for x in xs)


def padded(xs, cap):
    return list(xs) + [Fraction(0)] * (cap + 1 - len(xs))


@kernel
@given(polys, polys, caps)
def test_poly_mul_matches_oracle(a, b, cap):
    got = poly_mul(a, b, cap)
    full = len(a) + len(b) - 1 if a and b else 0
    assert len(got) == min(full, cap + 1) and fractions(got)
    assert padded(got, cap) == oracle_mul(a, b, cap)


@kernel
@given(polys, polys)
def test_poly_mul_uncapped_is_the_whole_product(a, b):
    got = poly_mul(a, b)
    full = len(a) + len(b) - 1 if a and b else 0
    assert len(got) == full
    assert got == oracle_mul(a, b, full - 1)


@kernel
@given(polys, caps)
def test_poly_inv_matches_long_division(a, cap):
    if not a or a[0] == 0:
        with pytest.raises(ZeroConstantTerm):
            poly_inv(a, cap)
        return
    got = poly_inv(a, cap)
    assert got == long_division([Fraction(1)], a, cap) and fractions(got)
    assert padded(poly_mul(a, got, cap), cap) \
        == [Fraction(1)] + [Fraction(0)] * cap


@kernel
@given(st.one_of(rats, big).filter(lambda x: x not in (0, 1, -1)), polys,
       caps)
def test_poly_inv_with_a_constant_term_other_than_a_sign(a0, rest, cap):
    a = [a0] + rest
    got = poly_inv(a, cap)
    assert got == long_division([Fraction(1)], a, cap) and fractions(got)


# ints too: the library passes int pairs
factors = st.one_of(coeffs, st.integers(-9, 9))


@kernel
@given(st.lists(st.tuples(factors, factors), max_size=6), caps)
def test_linear_product_matches_oracle(pairs, cap):
    want = padded([Fraction(1)], cap)
    for a, b in pairs:
        want = oracle_mul(want, [a, b], cap)
    got = linear_product(pairs, cap)
    assert padded(got, cap) == want and fractions(got)


def test_kernel_edge_cases():
    assert poly_mul([], [Fraction(1)], 3) == []
    assert poly_mul([Fraction(1), Fraction(2)], [Fraction(3)], -1) == []
    assert poly_inv([Fraction(2)], -1) == []
    assert linear_product([], 0) == [Fraction(1)]
    assert linear_product([(1, 1)] * 3) == [1, 3, 3, 1]
    assert fractions(poly_mul([1, 2], [3], 5))
