"""The stored form of `LaurentPoly` and `QSeries`: the lowest exponent,
integer numerators and one positive denominator, canonical (no zero
margins, numerators coprime to the denominator), so that equal values
are equal objects with equal hashes; `coeff`, `items`, `coeffs` and
`repr` build Fractions on read and must give what the Fraction
references in `helpers` give.  Arithmetic on the stored form never
lifts a Fraction list (`series._lift` is only for data from outside)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanogw import series
from fanogw.geometry import MultiDegree
from fanogw.hyper import FanoContext, fp_series, ftilde_hbar
from fanogw.series import (INF_EXP, BiSeries, LaurentPoly, QSeries,
                           sum_of_products)

from helpers import (f_w_whole, is_canonical, laurent_repr, laurent_terms,
                     long_division, poly_mul, shift_aux, terms_product,
                     terms_sum)

# zeros often, so that zero margins and all-zero lists are drawn
coeffs = st.lists(st.one_of(st.just(Fraction(0)),
                            st.fractions(-9, 9, max_denominator=12),
                            st.integers(-9, 9)), max_size=6)
laurents = st.tuples(st.integers(-4, 4), coeffs)


def reads_as(got, terms):
    """got is canonical and every read of it matches the terms."""
    assert is_canonical(got)
    assert dict(got.items()) == terms
    assert all(type(c) is Fraction for _, c in got.items())
    assert all(got.coeff(e) == terms.get(e, 0) for e in range(-12, 14))
    assert got.coeffs == tuple(terms.get(e, Fraction(0))
                               for e in range(got.lo, got.hi + 1))
    assert repr(got) == laurent_repr(terms)


def cs_at_zero(terms):
    """The dense coefficient list from exponent 0 of a term dict."""
    return [terms.get(e, Fraction(0)) for e in range(max(terms) + 1)]


@settings(max_examples=150, deadline=None)
@given(laurents, laurents, laurents, st.integers(-6, 8), st.integers(-3, 3),
       st.fractions(-5, 5, max_denominator=6))
def test_laurent_results_are_canonical_and_read_as_the_reference(
        a, b, c, cap, k, scalar):
    x, y, z = (LaurentPoly(lo, cs) for lo, cs in (a, b, c))
    tx, ty, tz = (laurent_terms(lo, cs) for lo, cs in (a, b, c))
    neg_y = {e: -v for e, v in ty.items()}
    cases = [
        (x, tx),
        (x + y, terms_sum(tx, ty)),
        (x + -y, terms_sum(tx, neg_y)),
        (x * y, terms_product(tx, ty, INF_EXP)),
        (x * scalar, {e: v * scalar for e, v in tx.items() if v * scalar}),
        (x.shift(k), {e + k: v for e, v in tx.items()}),
        (x.cut_above(cap), {e: v for e, v in tx.items() if e <= cap}),
        (sum_of_products([(x, y), (y, z)], cap),
         terms_sum(terms_product(tx, ty, cap), terms_product(ty, tz, cap))),
    ]
    if tx and min(tx) == 0:  # a unit at exponent 0: invert it
        top = max(cap, 0)
        inv = BiSeries([x], [top]).inv().slice(0)
        want = long_division([Fraction(1)], cs_at_zero(tx), top)
        cases.append((inv, laurent_terms(0, want)))
    for got, terms in cases:
        reads_as(got, terms)
        # the Fraction route to the same polynomial gives an equal object
        same = LaurentPoly(got.lo, got.coeffs)
        assert same == got and hash(same) == hash(got)
    # four kernel routes to one product
    routes = [x * y, sum_of_products([(x, y)], INF_EXP), y * x,
              sum_of_products([(x, y), (x, y), (-x, y)], INF_EXP)]
    assert all(r == routes[0] and hash(r) == hash(routes[0]) for r in routes)
    left, right = (x + y) * z, x * z + y * z
    assert left == right and hash(left) == hash(right)


@settings(max_examples=150, deadline=None)
@given(coeffs, coeffs, st.integers(0, 6), st.integers(0, 6),
       st.integers(0, 3), st.fractions(-5, 5, max_denominator=6))
def test_qseries_results_are_canonical_and_read_as_the_reference(
        ca, cb, oa, ob, k, scalar):
    a, b = QSeries(oa, ca), QSeries(ob, cb)
    o = min(oa, ob)

    def dense(cs, order):
        cs = [Fraction(c) for c in cs[: order + 1]]
        return cs + [Fraction(0)] * (order + 1 - len(cs))

    da, db = dense(ca, oa), dense(cb, ob)
    cases = [
        (a, da),
        (a + b, [x + y for x, y in zip(da, db)]),
        (a - b, [x - y for x, y in zip(da, db)]),
        (a * b, poly_mul(da, db, o)),
        (a * scalar, [x * scalar for x in da]),
        (a + scalar, [da[0] + scalar] + da[1:]),
        (a * QSeries(oa, [0] * k + [1]), ([Fraction(0)] * k + da)[: oa + 1]),
        (QSeries.from_poly(o, a.poly), da[: o + 1]),
    ]
    # D = q d/dq keeps the order: a known 0 at q^0, order 0 included
    cases.append((a.euler(), [i * x for i, x in enumerate(da)]))
    if da[0] != 0:
        cases.append((QSeries.one(oa) / a,
                      long_division([Fraction(1)], da, oa)))
        cases.append((b / a, long_division(db, da, o)))
    for got, want in cases:
        assert is_canonical(got.poly) and got.poly.lo >= 0
        assert got.poly.hi <= got.order == len(want) - 1
        assert got.coeffs == tuple(want)
        assert all(type(c) is Fraction for c in got.coeffs)
        assert [got.coeff(j) for j in range(got.order + 1)] == want
        assert repr(got) == f"QSeries({got.order}, {want!r})"
        same = QSeries(got.order, want)
        assert same == got and hash(same) == hash(got)


def test_the_hot_path_never_lifts(monkeypatch):
    """With operands built, products, inverses, capped sums of
    products, one-coefficient reads, F_p and the QSeries ring operations
    run on the stored integers: `_lift`, the entry point for outside
    data, is never called."""
    md = MultiDegree(6, (2, 3))
    ctx = FanoContext(md, 4)
    tables, f0, ft = ctx.tables, f_w_whole(md, 4, 7), ftilde_hbar(md, 4, 6)
    L, phi0 = ctx.L(), ctx.phi0()

    def hot_path():
        fp = fp_series(tables, f0, 3, -1)
        return (f0 * f0, f0.inv(), fp * f0.inv() - (f0 + -fp),
                fp_series(tables, ft, 3, +1) * ft.inv(),
                sum_of_products(list(zip(f0.slices, ft.slices)), 5),
                (f0.slice(2) + ft.slice(2)) * ft.slice(1) * Fraction(3, 7),
                shift_aux(f0, -2).mul_coeff(ft, 3, -1),
                fp_series(tables, ft, 3, +1).mul_coeff_of_aux(ft.inv(), 1),
                (L * phi0 / phi0 - L.pow(Fraction(1, 2)) / L + 1)
                .euler())

    want = hot_path()

    def refuse(xs):
        raise AssertionError("a stored operand was lifted again")

    monkeypatch.setattr(series, "_lift", refuse)
    assert hot_path() == want
    with pytest.raises(AssertionError, match="lifted"):
        LaurentPoly(0, [Fraction(1, 2)])  # outside data does lift
