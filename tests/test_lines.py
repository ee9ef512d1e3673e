"""The degree-1 row from the Fano scheme of lines: an oracle for
standard minus reduced at b = 1 that shares no code with the series.

A line cannot split, so at degree 1 Zinger's standard-minus-reduced
formula (Geom. Topol. 12 (2008), Theorem 1A) keeps only its
one-component terms, which are genus-0 degree-1 invariants.  With
X of dimension D and index nu in P^{n-1}, H the hyperplane class,
mu = H^(1+nu), l the line class and c_k = [H^k] (1+H)^n / prod(1 + d H):

    24 (standard - reduced)(b=1) =
        - sum_{k=0..D-2} c_k <tau_{D-2-k}(H^k), mu>_{0,2,l}
        + sum_{k=0..D-3} c_k <tau_{D-3-k}(H^k mu)>_{0,1,l}

The coefficients -1 and +1 are empirical, not derived here: an exact
linear fit per dimension found them (overdetermined and consistent in
every dimension from 3 to 14), and the formula is then checked as
stated, with nothing fitted.

Descendants reduce to primaries by the genus-0 TRR and the divisor
axiom (H.l = 1):

    <tau_j(H^a), H^b>_2 = <tau_{j-1}(H^a), H^{b+1}>_2 - <tau_{j-1}(H^{a+1}), H^b>_2
    <tau_j(H^a)>_1      = <tau_j(H^a), H>_2 - <tau_{j-1}(H^{a+1})>_1

and the primaries are integrals over G(2,n) against the class of the
Fano scheme of lines F(X):

    <H^a, H^b>_{0,2,l} = int [F(X)] h_{a-1} h_{b-1}    (0 when a or b is 0)
    [F(X)] = prod_d prod_{i=0..d} (i x1 + (d - i) x2)
    int_{G(2,n)} phi = -(1/2) [x1^(n-1) x2^(n-1)] phi (x1 - x2)^2

with x1, x2 the Chern roots of S^* and h_m complete homogeneous in them.
The oracle is plain dict-of-int polynomial arithmetic on a geometry's n
and degrees; it reads nothing else of `fanogw`.
"""

from fractions import Fraction
from functools import cache
from math import comb

from fanogw import invariants
from fanogw.geometry import MultiDegree
from fanogw.invariants import context_for, svr_difference

from helpers import valid_geometries


def _mul(a, b):
    """The product of two polynomials in x1, x2 as {(i, j): int}."""
    out = {}
    for (i1, j1), x in a.items():
        for (i2, j2), y in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + x * y
    return out


def _complete(m):
    """h_m(x1, x2), the sum of every monomial of degree m; 0 when m < 0."""
    return {(i, m - i): 1 for i in range(m + 1)}


def fano_scheme_class(degrees):
    """[F(X)] on G(2,n): the top Chern class of the sum of Sym^d S^*."""
    out = {(0, 0): 1}
    for d in degrees:
        for i in range(d + 1):
            out = _mul(out, {(1, 0): i, (0, 1): d - i})
    return out


def grassmannian_integral(n, phi):
    """int_{G(2,n)} phi by the Weyl integration formula."""
    top = _mul(phi, {(2, 0): 1, (1, 1): -2, (0, 2): 1})
    return Fraction(-top.get((n - 1, n - 1), 0), 2)


def degree1_difference_by_lines(md):
    """24 (standard - reduced) at b = 1 by the formula of the module
    docstring, from md.n and md.degrees alone."""
    n, degrees = md.n, md.degrees
    dim, nu = n - 1 - len(degrees), n - sum(degrees)
    fano = fano_scheme_class(degrees)

    def primary(a, b):  # <H^a, H^b>_{0,2,l}
        if a == 0 or b == 0:
            return 0
        return grassmannian_integral(
            n, _mul(fano, _mul(_complete(a - 1), _complete(b - 1))))

    @cache
    def two_point(j, a, b):  # <tau_j(H^a), H^b>_{0,2,l}
        if j == 0:
            return primary(a, b)
        return two_point(j - 1, a, b + 1) - two_point(j - 1, a + 1, b)

    @cache
    def one_point(j, a):  # <tau_j(H^a)>_{0,1,l}
        if j < 0:
            return 0
        return two_point(j, a, 1) - one_point(j - 1, a + 1)

    c = [comb(n, k) for k in range(dim + 1)]
    for d in degrees:  # divide by 1 + d H in place
        for k in range(1, dim + 1):
            c[k] -= d * c[k - 1]
    return (-sum(c[k] * two_point(dim - 2 - k, k, 1 + nu)
                 for k in range(dim - 1))
            + sum(c[k] * one_point(dim - 3 - k, k + 1 + nu)
                  for k in range(dim - 2)))


def _library_rows(geometries):
    return [24 * svr_difference(context_for(md, 1), 1) for md in geometries]


def test_27_lines_on_the_cubic_surface():
    assert grassmannian_integral(4, fano_scheme_class((3,))) == 27


def test_lines_through_a_point():
    """<H^dim>_{0,1,l} = <H^dim, H>_{0,2,l} is the degree times the lines
    through a general point: 3 * 6 on the cubic threefold, 4 * 4 on
    X_6(2,2)."""
    for md, want in ((MultiDegree(5, (3,)), 18), (MultiDegree(6, (2, 2)), 16)):
        fano = fano_scheme_class(md.degrees)
        assert grassmannian_integral(
            md.n, _mul(fano, _complete(md.dim - 1))) == want


def test_degree1_difference_is_the_lines_formula():
    """24 svr_difference at b = 1 equals the genus-0 sums on every valid
    geometry with n <= 12 and r <= 3: nonzero on 151 of the 156 with
    nu <= dim - 1 (so dim >= 2), and 0 on the 10 with nu >= dim (one
    curve and 9 of dim >= 2), where the difference vanishes a priori."""
    geometries = valid_geometries(12, 3)
    got = [degree1_difference_by_lines(md) for md in geometries]
    assert got == _library_rows(geometries)
    inside = [x for md, x in zip(geometries, got) if md.nu <= md.dim - 1]
    outside = [x for md, x in zip(geometries, got) if md.nu >= md.dim]
    assert (len(inside), sum(x != 0 for x in inside)) == (156, 151)
    assert outside == [0] * 10


def test_a_doubled_bracket_fails_the_lines_formula(monkeypatch):
    """With the F-bracket doubled, the library's b = 1 difference leaves
    the lines formula on every geometry where it is nonzero."""
    geometries = [md for md in valid_geometries(12, 3)
                  if md.nu <= md.dim - 1]
    want = [degree1_difference_by_lines(md) for md in geometries]
    real = invariants.f_residue_series
    monkeypatch.setattr(invariants, "f_residue_series",
                        lambda ctx, b: 2 * real(ctx, b))
    got = _library_rows(geometries)
    agree = [md.label() for md, x, y in zip(geometries, got, want) if x == y]
    assert agree == [md.label() for md, y in zip(geometries, want) if y == 0]
