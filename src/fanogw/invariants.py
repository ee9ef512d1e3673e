"""Genus-1 one-point invariants of a Fano complete intersection.

Three largely independent paths produce the numbers:

* standard_invariant -- the closed genus-1 formula (Theta/A block, the
  n/24 block in L and Phi0, and a residue in the ct constants);
* reduced_invariant  -- localization contributions type_a + type_b;
* svr_difference     -- the standard-vs-reduced correction.

They must satisfy standard = reduced + difference exactly, the degree-0
value must match an independent Chern-class count, and several residue
reformulations are kept alive as oracles.  Everything is exact rational
arithmetic; truncation orders and Laurent windows are derived from
(n, r, nu, b) up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod

from .geometry import MultiDegree
from .hyper import FanoContext
from .series import (BiSeries, LaurentPoly, QSeries, Rat, linear_product,
                     poly_inv, poly_mul)


class OutOfRange(ValueError):
    """Degree b outside 0..floor((n-1)/nu)."""


@dataclass(frozen=True)
class InvariantRow:
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
    """Series context sized for degrees up to max_b: one extra order for
    the q-derivatives that appear in the formula rows, plus requested
    padding (results must not depend on the padding)."""
    return FanoContext(md, max_b + 1 + pad)


# ---------------------------------------------------------------------------
# degree 0: the Chern-class oracle


def chern_degree0_oracle(md: MultiDegree) -> Rat:
    """-(1/24) integral of c_{dim-1}(T_X) cup h, by expanding the total
    Chern class (1+h)^n / prod(1 + d_k h) of the complete intersection."""
    cap = md.dim - 1
    num = [Fraction(comb(md.n, j)) for j in range(min(md.n, cap) + 1)]
    den = linear_product(((1, d) for d in md.degrees), cap)
    coeff = poly_mul(num, poly_inv(den, cap), cap)[cap]
    return -Fraction(prod(md.degrees), 24) * coeff


def _ch_coeffs(md: MultiDegree, cap: int, minus_wn: bool = False) -> list:
    """(1+w)^n / prod(1 + d_k w) as a list up to degree cap; optionally
    with the numerator replaced by (1+w)^n - w^n."""
    num = [Fraction(comb(md.n, j)) for j in range(min(md.n, cap) + 1)]
    if minus_wn and md.n <= cap:
        num[md.n] -= 1
    den = linear_product(((1, d) for d in md.degrees), cap)
    return poly_mul(num, poly_inv(den, cap), cap)


# ---------------------------------------------------------------------------
# type A


def _a_pairs(md: MultiDegree) -> list[tuple[int, int]]:
    pairs = [(p, md.n - 1 - md.r - p) for p in range(md.n - md.r)]
    pairs += [(md.n - p, md.n - 1 - md.r + p) for p in range(1, md.r + 1)]
    return pairs


def a_series(ctx: FanoContext, route: str = "theta",
             theta_route: str = "lemma") -> QSeries:
    """The localization series A(q): pairings of Theta^{(1)} against
    Theta^{(0)}, or the independent double-residue of the two-variable
    hypergeometric pairing (expanded where |h2| < |h1|)."""
    pairs = _a_pairs(ctx.md)
    if route == "theta":
        out = None
        for p1, p2 in pairs:
            term = ctx.theta(p1, 1, theta_route) * ctx.theta(p2, 0, theta_route)
            out = term if out is None else out + term
        return out
    if route == "double_residue":
        return _a_double_residue(ctx, pairs)
    raise ValueError(f"unknown A route {route!r}")


def _a_double_residue(ctx: FanoContext, pairs) -> QSeries:
    """Res_{h1} Res_{h2} of e^{-mu(1/h1+1/h2)} F(1/h1, 1/h2, q) divided
    by h1 h2 (h1 + h2), with 1/(h1+h2) expanded in the region
    |h2| < |h1|.  Works on the raw Laurent data: regularity of the
    factors is not assumed, so the alternating tail over j is summed
    honestly (its terms vanish exactly when regularizability holds)."""
    B = ctx.order
    hi = 2 * B + 3
    xs = {}
    for p in {p for pq in pairs for p in pq}:
        xs[p] = ctx.exp_neg_mu() * ctx.fp_hbar(p, hi)
    coeffs = []
    for btot in range(B + 1):
        total = Fraction(0)
        for p1, p2 in pairs:
            x1, x2 = xs[p1], xs[p2]
            for b1 in range(btot + 1):
                b2 = btot - b1
                lo2 = x2.slice(b2).support_lo()
                if lo2 is None:
                    continue
                for j in range(0, -lo2 + 1):
                    c2 = x2.coeff(b2, -j)
                    if c2 != 0:
                        total += (-1) ** j * x1.coeff(b1, j + 1) * c2
        coeffs.append(total)
    return QSeries(B, coeffs)


def type_a(ctx: FanoContext, b: int, theta_route: str = "lemma") -> Rat:
    _check_range(ctx.md, b)
    p = 1 + ctx.md.nu * b
    series = ctx.theta(p, 0, theta_route) \
        * a_series(ctx, "theta", theta_route) * ctx.phi0().inv()
    return Fraction(1, 2) * series.coeff(b)


# ---------------------------------------------------------------------------
# the n/24 block shared by the closed formula and type B


def n24_block(ctx: FanoContext, p: int) -> QSeries:
    """The L/Phi0 rows of the genus-1 formula for insertion power p, in
    difference form: each row carries (L^k - 1) rather than L^k, so the
    block vanishes at q = 0 (matching the degree-0 genus-1 axiom)."""
    e2 = Fraction(ctx.md.n - 1, 2) - ctx.md.inv_degree_sum()
    s, phi0 = ctx.ct_sums(p), ctx.phi0()
    return (-e2 * (s.s0 - s.s0_at_1)
            - ctx.L().deriv() * s.s3
            - phi0.deriv() * phi0.inv() * s.s2
            - (s.s1 - s.s1_at_1))


def ct_residue_row(ctx: FanoContext, b: int) -> Rat:
    """Res_{w=0} (1+w)^n (ct[p,0,b] + ct[p,1,b] w) / (w^{n-r} prod(d_k w + 1))
    with p = 1 + nu*b."""
    md = ctx.md
    p = 1 + md.nu * b
    g = _ch_coeffs(md, md.n - md.r - 1)
    c0 = ctx.tables.ctilde(p, 0, b)
    c1 = ctx.tables.ctilde(p, 1, b) if p - md.nu * b >= 1 else Fraction(0)
    out = c0 * g[md.n - md.r - 1]
    if md.n - md.r - 2 >= 0:
        out += c1 * g[md.n - md.r - 2]
    return out


# ---------------------------------------------------------------------------
# the w-residue of the F-family (shared by type B and the SvR difference)


def _f_bracket(ctx: FanoContext, p: int) -> BiSeries:
    """(1+w)^n (F_0 - F_p) / (F_0 prod(1 + d_k w)) as a w-window series."""
    md = ctx.md
    target = md.n - 2 - md.r
    hi = target + p + 2
    f0 = ctx.f_w(hi)
    fp = ctx.fp_w(p, hi)
    ch = _ch_coeffs(md, hi)
    front = BiSeries([LaurentPoly(0, ch)] + [LaurentPoly.zero()] * ctx.order)
    return front * (f0 - fp) * f0.inv()


def f_residue_series(ctx: FanoContext, p: int) -> QSeries:
    """Coeff_{w^{n-2-r}} of the F-bracket, extracted through the shifted
    residue (exponent -1 after dividing by w^{n-r-1})."""
    md = ctx.md
    return _f_bracket(ctx, p).shift_aux(-(md.n - md.r - 1)).residue()


def svr_difference(ctx: FanoContext, b: int) -> Rat:
    """standard minus reduced at degree b; zero at b = 0 by convention
    and vanishing a priori for b*nu > n - 2 - r."""
    md = ctx.md
    _check_range(md, b)
    if b == 0:
        return Fraction(0)
    p = 1 + md.nu * b
    bracket = _f_bracket(ctx, p)
    coeff = bracket.coeff(b, md.n - 2 - md.r)
    return Fraction(prod(md.degrees), 24) * coeff


# ---------------------------------------------------------------------------
# type B


def type_b(ctx: FanoContext, b: int, route: str = "rows") -> Rat:
    _check_range(ctx.md, b)
    md = ctx.md
    if route == "rows":
        p = 1 + md.nu * b
        block = n24_block(ctx, p)
        return (Fraction(md.n, 24) * block.coeff(b)
                - Fraction(prod(md.degrees), 24) * ct_residue_row(ctx, b)
                - Fraction(prod(md.degrees), 24) * f_residue_series(ctx, p).coeff(b))
    if route == "residues":
        if md.nu < 2:
            raise ValueError("residue-route type B oracle is restricted to nu >= 2")
        return _type_b_residues(ctx, b)
    raise ValueError(f"unknown type B route {route!r}")


def _g_expansion(md: MultiDegree, hi: int) -> LaurentPoly:
    """((1+h)^n - 1) / (h^3 prod(d_k + h)) expanded from h^{-2} up to
    h^hi."""
    cap = hi + 2
    num = [Fraction(comb(md.n, j + 1)) for j in range(min(md.n, cap + 1))]
    den = linear_product(((d, 1) for d in md.degrees), cap)
    vals = poly_mul(num, poly_inv(den, cap), cap)
    return LaurentPoly(-2, vals)


def _ct_polynomial(ctx: FanoContext, p: int, sign: int) -> BiSeries:
    """sum over beta, l of ct[p,l,beta] q^beta aux^{sign*(p-nu*beta-l)}:
    the fully known polynomial part subtracted when moving the residue
    at h = -d to h = 0 and infinity (sign=+1 is the hbar presentation,
    sign=-1 the w presentation)."""
    md = ctx.md
    slices = [LaurentPoly.zero() for _ in range(ctx.order + 1)]
    for beta in range(min(ctx.order, p // md.nu) + 1):
        vals = {}
        for l in range(p - md.nu * beta + 1):
            ct = ctx.tables.ctilde(p, l, beta)
            if ct != 0:
                vals[sign * (p - md.nu * beta - l)] = ct
        if vals:
            lo = min(vals)
            width = max(vals) - lo + 1
            coeffs = [vals.get(lo + i, Fraction(0)) for i in range(width)]
            slices[beta] = LaurentPoly(lo, coeffs)
    return BiSeries(slices)


def _residue_against_g(md: MultiDegree, series: BiSeries) -> QSeries:
    """Res_{h=0} of G(h) * series, G = ((1+h)^n - 1)/(h^3 prod(d_k+h))."""
    lows = [s.support_lo() for s in series.slices]
    depth = max((-lo for lo in lows if lo is not None), default=0)
    g = _g_expansion(md, depth - 1)
    out = []
    for beta in range(series.order + 1):
        if series.slice_hi(beta) < 1:
            raise ValueError("series window too small for the G residue")
        total = Fraction(0)
        for e, c in g.items():
            total += c * series.coeff(beta, -1 - e)
        out.append(total)
    return QSeries(series.order, out)


def _type_b_residues(ctx: FanoContext, b: int) -> Rat:
    """Oracle route: assemble type B from the residues at h = 0, at
    h = infinity, and (via the residue theorem) at h = -d, computed
    directly on the hypergeometric Laurent data."""
    md = ctx.md
    p = 1 + md.nu * b
    B = ctx.order
    hi_h = 2 * B + 3
    ft = ctx.ftilde_hbar(hi_h)
    ftp = ctx.fp_hbar(p, hi_h)
    main = (ft - ftp) * ft.inv()
    res0_main = _residue_against_g(md, main)

    res0_poly = _residue_against_g(
        md, BiSeries.one(B) - _ct_polynomial(ctx, p, +1))

    target = md.n - 2 - md.r
    hi_w = target + p + 2
    ftw = ctx.f_w(hi_w, tilde=True)
    ftpw = ctx.fp_w(p, hi_w, tilde=True)
    head = _ch_minus_wn_series(md, hi_w, B)
    main_w = head * (ftw - ftpw) * ftw.inv()
    resinf_main = -main_w.coeff_of_aux(target)

    poly_w = head * (BiSeries.one(B) - _ct_polynomial(ctx, p, -1))
    resinf_poly = -poly_w.coeff_of_aux(target)

    series = res0_main + resinf_main - res0_poly - resinf_poly
    return Fraction(prod(md.degrees), 24) * series.coeff(b)


def _ch_minus_wn_series(md: MultiDegree, hi: int, order: int) -> BiSeries:
    ch = _ch_coeffs(md, hi, minus_wn=True)
    return BiSeries([LaurentPoly(0, ch)] + [LaurentPoly.zero()] * order,
                    [hi] * (order + 1))


# ---------------------------------------------------------------------------
# assembled invariants


def standard_invariant(ctx: FanoContext, b: int) -> Rat:
    """The closed genus-1 formula."""
    md = ctx.md
    _check_range(md, b)
    p = 1 + md.nu * b
    return (type_a(ctx, b)
            + Fraction(md.n, 24) * n24_block(ctx, p).coeff(b)
            - Fraction(prod(md.degrees), 24) * ct_residue_row(ctx, b))


def reduced_invariant(ctx: FanoContext, b: int) -> Rat:
    return type_a(ctx, b) + type_b(ctx, b)


def invariant_row(md: MultiDegree, b: int, pad: int = 0,
                  ctx: FanoContext | None = None) -> InvariantRow:
    _check_range(md, b)
    if ctx is None:
        ctx = context_for(md, b, pad)
    return InvariantRow(
        b=b,
        insertion_power=1 + md.nu * b,
        standard=standard_invariant(ctx, b),
        reduced=reduced_invariant(ctx, b),
        difference=svr_difference(ctx, b),
    )


def invariant_table(md: MultiDegree, max_b: int | None = None,
                    pad: int = 0) -> list[InvariantRow]:
    top = md.bmax if max_b is None else min(max_b, md.bmax)
    ctx = context_for(md, top, pad)
    return [invariant_row(md, b, ctx=ctx) for b in range(top + 1)]
