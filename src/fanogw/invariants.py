"""Genus-1 one-point invariants of a Fano complete intersection.

Three paths produce the numbers: `standard_invariant` (the closed
genus-1 formula: type A, the n/24 block in L and Phi0, and a residue in
the ct constants), `reduced_invariant` (the localization terms type A
plus type B) and `svr_difference` (the standard-vs-reduced correction).
Standard = reduced + difference holds by construction: the rows route
of type B (`type_b`) shares the closed rows with the standard invariant
and the F-bracket with the difference.  The oracles are named functions:
`a_series`, the double residue of A(q) (`FanoContext.A`), which also
gives type A its second route (`checks.check_a_double_residue`);
`n24_by_residue`, the n/24 block by the residue at h = 0, for every
b >= 1 at every index; and `chern_degree0_oracle`, which shares no code
with the degree-0 row.  Everything is exact.  The hbar-side reads (the
double residue, the residue at h = 0) take the context's one hbar
window (`fanogw.hyper`); the w side reads the F-bracket at w^{n-2-r}
from slices cut at the windows `_bracket_numerator` derives.

A degree-b invariant reads one coefficient.  Each reader of q^b cuts its
series at b and reads the last product through `BiSeries.mul_coeff` or
`QSeries.mul_coeff`, which compute that coefficient alone.  The
F-bracket (`f_residue_series`) is read at q^b w^{n-2-r}.  Type A is q^b
of s0(p) A(q): the Phi0 in Theta^{(0)}_p cancels the 1/Phi0 of the
formula at every truncation order.

Type A and the closed rows (n/24 times the n/24 block at q^b, minus
prod(d)/24 times the ct residue row) enter both sides of a row.  Each
is kept per (context, degree) through `FanoContext.memo`, so the
standard invariant and the rows route of type B read one value.  The
F-bracket's numerator front * (F_0 - F_p) is kept per (context, degree)
too, so type B and the difference build F_p once per row; F_0^-1 is
made on each bracket read (`f_residue_series` says why).  The front
(1+w)^n / prod(1 + d_k w) is kept once per context (`_front`).  The
residue route of the n/24 block reads the context's Ft(1/hbar)^-1, and
its polynomial part is two ct entries (`_type_b_poly_parts`).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, prod
from typing import NamedTuple

from .geometry import MultiDegree
from .hyper import FanoContext, fp_series
from .series import (INF_EXP, BiSeries, LaurentPoly, QSeries, Rat,
                     linear_product, poly_div)


class OutOfRange(ValueError):
    """Degree b outside 0..floor((n-1)/nu)."""


class InvariantRow(NamedTuple):
    """One degree of the invariant table, with the consistency verdict
    between the three computational paths."""
    b: int
    insertion_power: int
    standard: Rat
    reduced: Rat
    difference: Rat

    @property
    def consistent(self) -> bool:
        return self.standard == self.reduced + self.difference


def _check_range(md: MultiDegree, b: int):
    if not 0 <= b <= md.bmax:
        raise OutOfRange(f"b={b} outside 0..{md.bmax} for {md.label()}")


def context_for(md: MultiDegree, max_b: int, pad: int = 0) -> FanoContext:
    """Series context at q-order exactly max_b + pad: a degree-b row
    reads its series at q^b, and D = q d/dq keeps the order, so no
    extra order is needed; results must not depend on the padding.
    Both must be >= 0."""
    for name, value in (("max_b", max_b), ("pad", pad)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, not {value}")
    return FanoContext(md, max_b + pad)


# ---------------------------------------------------------------------------
# degree 0: the Chern-class oracle


def chern_degree0_oracle(md: MultiDegree) -> Rat:
    """-(1/24) integral of c_{dim-1}(T_X) cup h: the h^m coefficient,
    m = dim - 1, of the total Chern class (1+h)^n / prod(1 + d_k h) is
    sum_j C(n, m-j) (-1)^j h_j(d), with h_j the complete homogeneous
    symmetric polynomial in the degrees.  It shares no code with the
    standard invariant's degree-0 row (`ct_residue_row`, `_ch_coeffs`)."""
    m = md.dim - 1
    coeff = sum(comb(md.n, m - j) * (-1) ** j
                * sum(prod(ds) for ds in combinations_with_replacement(
                    md.degrees, j))
                for j in range(m + 1))
    return -Fraction(prod(md.degrees), 24) * coeff


def _ch_coeffs(md: MultiDegree, cap: int) -> LaurentPoly:
    """(1+w)^n / prod(1 + d_k w) up to degree cap."""
    num = [comb(md.n, j) for j in range(min(md.n, cap) + 1)]
    den = linear_product(((1, d) for d in md.degrees), cap)
    return poly_div(LaurentPoly.from_ints(0, num), den, cap)


def _front(ctx: FanoContext) -> LaurentPoly:
    """`_ch_coeffs` up to w^{n-1-r}, kept once per context: the ct
    residue row reads its top two coefficients, and the F-bracket's
    numerator its cut at w^{n-2-r}."""
    md = ctx.md
    return ctx.memo(("front",), lambda: _ch_coeffs(md, md.n - 1 - md.r))


# ---------------------------------------------------------------------------
# type A


def a_series(ctx: FanoContext) -> QSeries:
    """The localization series A(q) by its second route (`FanoContext.A`
    is the first): Res_{h1} Res_{h2} of e^{-mu(1/h1+1/h2)}
    F(1/h1, 1/h2, q) divided by h1 h2 (h1 + h2), with 1/(h1+h2) expanded
    in the region |h2| < |h1|: for each pair the aux^1 coefficient of
    x_{p1}(aux) x_{p2}(-aux), the second factor cut to aux^{<=0}.
    Works on the raw Laurent data: regularity of the factors is not
    assumed, so the alternating tail is summed honestly (its terms
    vanish exactly when regularizability holds)."""
    pairs = [pq for block in ctx.md.theta_pairs() for pq in block]
    xs = {p: ctx.regularized_fp(p) for p in {p for pq in pairs for p in pq}}
    return sum((xs[p1].mul_coeff_of_aux(_reflect(xs[p2]), 1)
                for p1, p2 in pairs), QSeries.zero(ctx.order))


def _reflect(x: BiSeries) -> BiSeries:
    """x(-aux) cut to aux^{<=0}: fully known where x is known up to
    aux^0, otherwise with x's window."""
    slices = [LaurentPoly.from_ints(s.lo, [-c if e % 2 else c
                                          for e, c in enumerate(s.nums, s.lo)],
                                    s.den).cut_above(0) for s in x.slices]
    return BiSeries(slices, [INF_EXP if h >= 0 else h for h in x.his])


def type_a(ctx: FanoContext, b: int) -> Rat:
    """1/2 [q^b] Theta^{(0)}_p A / Phi0 with p = 1 + nu*b.  Theta^{(0)}_p
    is Phi0 times the ct-L sum s0 of p (the Theta lemma), so this is
    1/2 [q^b] s0 A, exactly at every truncation order: one coefficient
    of one product (`QSeries.mul_coeff`), kept per (context, degree):
    both sides of a row read it."""
    _check_range(ctx.md, b)
    p = 1 + ctx.md.nu * b
    return ctx.memo(("type_a", b), lambda: Fraction(1, 2)
                    * ctx.ct_sums(p).s0.mul_coeff(ctx.A(), b))


# ---------------------------------------------------------------------------
# the n/24 block shared by the closed formula and type B


def n24_block(ctx: FanoContext, b: int) -> Rat:
    """[q^b] of the L/Phi0 rows of the genus-1 formula for insertion
    power p = 1 + nu*b, in difference form: each row carries (L^k - 1)
    rather than L^k, so the block vanishes at q = 0 (matching the
    degree-0 genus-1 axiom).  Only q^b is read: the two ct-L sums at
    L = 1 have the single ct entries ct[p,1,b] and ct[p,0,b] there, and
    the two products are read through `QSeries.mul_coeff` against D L
    and against D Phi0 / Phi0 (D = q d/dq), kept once per context."""
    md = ctx.md
    p = 1 + md.nu * b
    e2 = Fraction(md.n - 1, 2) - md.inv_degree_sum()
    s, ct = ctx.ct_sums(p), ctx.tables.ctilde
    dlog_phi0 = ctx.memo(("dlog_phi0",),
                         lambda: ctx.phi0().euler() / ctx.phi0())
    return (-e2 * (s.s0.coeff(b) - ct(p, 1, b))
            - ctx.L().euler().mul_coeff(s.s3, b)
            - dlog_phi0.mul_coeff(s.s2, b)
            - (s.s1.coeff(b) - ct(p, 0, b)))


def _closed_rows(ctx: FanoContext, b: int) -> Rat:
    """n/24 n24_block(b) - prod(d)/24 ct_residue_row(b): the rows that
    the closed formula and the rows route of type B share, assembled
    once per (context, degree)."""
    md = ctx.md
    return ctx.memo(("closed_rows", b), lambda: (
        Fraction(md.n, 24) * n24_block(ctx, b)
        - Fraction(prod(md.degrees), 24) * ct_residue_row(ctx, b)))


def ct_residue_row(ctx: FanoContext, b: int) -> Rat:
    """Res_{w=0} (1+w)^n (ct[p,0,b] + ct[p,1,b] w) / (w^{n-r} prod(d_k w + 1))
    with p = 1 + nu*b."""
    md = ctx.md
    p = 1 + md.nu * b
    g = _front(ctx)
    return (ctx.tables.ctilde(p, 0, b) * g.coeff(md.n - md.r - 1)
            + ctx.tables.ctilde(p, 1, b) * g.coeff(md.n - md.r - 2))


# ---------------------------------------------------------------------------
# the w-residue of the F-family (shared by type B and the SvR difference)


def _q0_series(poly: LaurentPoly, hi: int, order: int) -> BiSeries:
    """poly, known up to aux^hi, as the q^0 slice of a BiSeries whose
    other slices are exactly zero."""
    return BiSeries([poly] + [LaurentPoly.zero()] * order,
                    [hi] + [INF_EXP] * order)


def f_residue_series(ctx: FanoContext, b: int) -> Rat:
    """The q^b w^{n-2-r} coefficient of the F-bracket
    (1+w)^n (F_0 - F_p) / (F_0 prod(1 + d_k w)) with p = 1 + nu*b: the
    kept numerator (`_bracket_numerator`) read against F_0^-1 at
    q^b w^{n-2-r} alone (`BiSeries.mul_coeff`).  F_0^-1 is known up to
    w^{n-2-r}, which is enough because F_0 - F_p has no w^0 term; a
    window short of the read raises WindowUnderflow, never a wrong
    coefficient.

    F_0 is inverted on each read, cut at q^b: keeping that inverse (or
    the bracket value) per context would move the inverse counts that
    the benchmark's trace pins, so it waits for their re-pin."""
    target = ctx.md.n - 2 - ctx.md.r
    return _bracket_numerator(ctx, b).mul_coeff(
        ctx.f_w((target,) * (b + 1)).inv(), b, target)


def _bracket_numerator(ctx: FanoContext, b: int) -> BiSeries:
    """front * (F_0 - F_p) with p = 1 + nu*b, cut at q^b, kept per
    (context, degree): type B and the difference read one build.

    Slice k of F_0, and so of its inverse, carries w^{nu k},
    so slice j of the numerator is read only up to
    w^max(n-2-r - nu(b-j), -1).  F_p's window falls up to p below its
    base's, so slice k of F_0 is cut at max(n-2-r+p - nu(b-k), p-1)
    before `fp_series` runs; the front is known up to w^{n-2-r}."""
    md = ctx.md
    p = 1 + md.nu * b
    target = md.n - 2 - md.r

    def build():
        f0 = ctx.f_w(tuple(max(target + p - md.nu * (b - k), p - 1)
                           for k in range(b + 1)))
        fp = fp_series(ctx.tables, f0, p, -1)
        front = _q0_series(_front(ctx).cut_above(target), target, b)
        return front * (f0 - fp)
    return ctx.memo(("bracket_num", b), build)


def svr_difference(ctx: FanoContext, b: int) -> Rat:
    """standard minus reduced at degree b; zero at b = 0 by convention
    and vanishing a priori for b*nu > n - 2 - r."""
    md = ctx.md
    _check_range(md, b)
    if b == 0:
        return Fraction(0)
    return Fraction(prod(md.degrees), 24) * f_residue_series(ctx, b)


# ---------------------------------------------------------------------------
# type B


def type_b(ctx: FanoContext, b: int) -> Rat:
    """Type B by the rows route: closed rows minus prod(d)/24 F-bracket."""
    _check_range(ctx.md, b)
    return (_closed_rows(ctx, b)
            - Fraction(prod(ctx.md.degrees), 24) * f_residue_series(ctx, b))


def _g_expansion(md: MultiDegree, hi: int) -> LaurentPoly:
    """((1+h)^n - 1) / (h^3 prod(d_k + h)) expanded from h^{-2} up to
    h^hi."""
    cap = hi + 2
    num = [comb(md.n, j + 1) for j in range(min(md.n, cap + 1))]
    den = linear_product(((d, 1) for d in md.degrees), cap)
    return poly_div(LaurentPoly.from_ints(0, num), den, cap).shift(-2)


def _residue_against_g(md: MultiDegree, series: BiSeries, b: int,
                       right: BiSeries) -> Rat:
    """The q^b coefficient of Res_{h=0} G(h) * series * right, the last
    product read at q^b h^-1 alone (`BiSeries.mul_coeff`).
    G = ((1+h)^n - 1)/(h^3 prod(d_k+h)) runs from h^-2 up to h^{-1-lo},
    lo the lowest exponent that slice b of series * right can hold
    (h^-1 when every product slice is zero).  A G cut shorter, or a
    slice b of series * right known below h^1, raises WindowUnderflow,
    never a wrong value."""
    right, series = right.truncate(b), series.truncate(b)
    lows = [u.lo + v.lo for u, v in zip(series.slices, right.slices[::-1])
            if u.nums and v.nums]
    depth = -min(lows, default=0)
    g = _q0_series(_g_expansion(md, depth - 1), depth - 1, b)
    return (g * series).mul_coeff(right, b, -1)


def n24_by_residue(ctx: FanoContext, b: int) -> Rat:
    """The n/24 block by its residue route (b >= 1): prod(d)/n times
    the residue at h = 0, [q^b h^-1] G (Ft - Ft_p) Ft^-1, less its
    polynomial part.  Type B by residues is prod(d)/24 times that
    residue and the one at infinity, each less its polynomial part;
    the second pair is minus the F-bracket and minus the ct residue
    row, which the rows route of type B reads as they are, so the n/24
    block is the part the two routes do not share.  Only q^b is read:
    every series is cut at q^b and the residue is read at q^b alone
    (`BiSeries.mul_coeff`), against the context's Ft^-1.  At b = 0 the
    block is 0 and the residue side is not, so b = 0 is refused."""
    md = ctx.md
    _check_range(md, b)
    if b == 0:
        raise ValueError("residue route of the n/24 block needs b >= 1")
    p = 1 + md.nu * b
    ft = ctx.ftilde_hbar().truncate(b)
    main = _residue_against_g(
        md, ft - fp_series(ctx.tables, ft, p, +1), b, ctx.ftilde_hbar_inv())
    return Fraction(prod(md.degrees), md.n) \
        * (main - _type_b_poly_parts(ctx, b))


def _type_b_poly_parts(ctx: FanoContext, b: int) -> Rat:
    """The polynomial part that `n24_by_residue` subtracts from the
    residue at h = 0: that residue with Ft replaced by 1 (D^l 1 = 1).
    As p = 1 + nu*b, slice q^b of 1 - F_p is -(ct[p,0,b] h + ct[p,1,b])
    in hbar, so it is -(ct[p,0,b] G_{-2} + ct[p,1,b] G_{-1})."""
    md = ctx.md
    p = 1 + md.nu * b
    g = _g_expansion(md, -1)
    return -(ctx.tables.ctilde(p, 0, b) * g.coeff(-2)
             + ctx.tables.ctilde(p, 1, b) * g.coeff(-1))


# ---------------------------------------------------------------------------
# assembled invariants


def standard_invariant(ctx: FanoContext, b: int) -> Rat:
    """The closed genus-1 formula."""
    _check_range(ctx.md, b)
    return type_a(ctx, b) + _closed_rows(ctx, b)


def reduced_invariant(ctx: FanoContext, b: int) -> Rat:
    return type_a(ctx, b) + type_b(ctx, b)


def invariant_row(ctx: FanoContext, b: int) -> InvariantRow:
    _check_range(ctx.md, b)
    return InvariantRow(
        b=b,
        insertion_power=1 + ctx.md.nu * b,
        standard=standard_invariant(ctx, b),
        reduced=reduced_invariant(ctx, b),
        difference=svr_difference(ctx, b),
    )


def invariant_table(md: MultiDegree, max_b: int | None = None,
                    pad: int = 0) -> list[InvariantRow]:
    top = md.bmax if max_b is None else min(max_b, md.bmax)
    ctx = context_for(md, top, pad)
    return [invariant_row(ctx, b) for b in range(top + 1)]
