"""Rational coefficient tables c_{p,l}^{(beta)} and ct_{p,l}^{(beta)}.

Both are read off the base slices: for each beta the power series in w

    base_beta(w) = prod_k prod_{i=1..d_k*beta} (d_k w + i)
                   / prod_{j=1..beta} (w + j)^n,

the q^beta slice of F(w, q) without its w^{nu*beta}.  `slice_chain`
builds each slice from the one before it,

    base_beta(w) = base_{beta-1}(w) prod_k prod_{d_k(beta-1) < i <= d_k beta}
                   (d_k w + i) / (w + beta)^n,

one `linear_product` of |d| factors, one `poly_mul` and one `poly_div`
by a denominator of degree n per slice.  With every factor reversed and
(w + beta)^n - w^n below, the same chain gives the Ft(1/hbar) slices of
`hyper.ftilde_hbar`.

The c numbers are c[p,l,beta] = [w^l] (w + beta)^p base_beta(w); no c
table is stored, `CoeffTables.c_entry` reads each entry on demand as
sum_j C(p,j) beta^(p-j) base_beta[l-j].  Only the base slices the ct
solve reads (beta <= p_max // nu, up to w^p_max) are stored, and
`CoeffTables.base` hands out those alone, whole: to the c reads and to
the one F(w) of `hyper.f_w`, which each reader cuts at its own window.

The ct numbers invert them through the convolution

    sum_{b1+b2=beta} sum_{k=0}^{p - nu*b1} ct[p,k,b1] c[k,l,b2]
        = delta(beta,0) delta(p,l),   for l <= p - nu*beta.

With the row T_{p,beta}(w) = sum_l ct[p,l,beta] w^l the sum over k is
T_{p,b1}(w + b2) base_b2(w), so T_{p,0} = w^p and each higher row is
one capped sum of Taylor-shifted rows (`series.poly_shift`) against
base slices:

    T_{p,beta}(w) = - sum_{b1<beta} T_{p,b1}(w + beta - b1) base_{beta-b1}(w)
                    up to w^(p - nu*beta).

Each shifted row is kept (`CoeffTables.shifted_row`), and the F_p sums
of `hyper.fp_series` and the F-bracket rows of
`invariants.f_residue_series` read the same rows again.  The genus-1 formulas
read a row through its top two entries only, weighted as the Theta
lemma weighs them (`CoeffTables.ct_l_terms`).

`convolution_defect` (behind `checks.check_convolution`) evaluates the
convolution entry by entry from the binomial c reads: a different
computation from this solve, not a rerun of it.  Entries with l < 0 or
p < 0 count as zero; at beta = 0 both tables are Kronecker deltas.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm

from .geometry import MultiDegree
from .series import (LaurentPoly, Rat, WindowUnderflow, linear_product,
                     poly_div, poly_mul, poly_shift, sum_of_products)


_ONE = LaurentPoly.from_ints(0, (1,))


def slice_chain(md: MultiDegree, count: int, cap: int,
                hbar: bool = False) -> list[LaurentPoly]:
    """Slices 0..count-1 of F(w, q) without their w^{nu*beta}, each cut
    at w^cap >= w^0 and built from the one before it; slice 0 is 1.

    Slice beta is slice beta-1 times the |d| new numerator factors
    d_k w + i, d_k(beta-1) < i <= d_k beta, over (w + beta)^n.  With
    hbar the denominator is the Ft one, (w + beta)^n - w^n, and every
    factor is reversed (w^deg f(1/w)): the numerator factors become
    d_k + i*hbar and the denominator ((1 + beta*hbar)^n - 1)/hbar, so
    the chain gives the Ft(1/hbar) slices before their shift by
    hbar^-beta.  Every factor has lowest exponent 0, so a capped step is
    exact up to its cap; a reader that needs a slice shorter cuts it."""
    n, out = md.n, [_ONE]
    for b in range(1, count):
        pairs = [(i, d) for d in md.degrees
                 for i in range(d * (b - 1) + 1, d * b + 1)]
        den = [comb(n, t) * b**(n - t) for t in range(n + (not hbar))]
        if hbar:
            pairs, den = [(d, i) for i, d in pairs], den[::-1]
        num = linear_product(pairs, cap)
        out.append(poly_div(poly_mul(out[-1], num, cap) if b > 1 else num,
                            LaurentPoly.from_ints(0, den), cap))
    return out


class CoeffTables:
    """Both tables for one geometry, built once and shared; the only
    state added after the build is the kept Taylor shifts of ct rows
    (`shifted_row`)."""

    __slots__ = ("md", "p_max", "beta_max", "_base", "_ct", "_shifted")

    def __init__(self, md: MultiDegree, p_max: int, beta_max: int):
        if p_max < 0 or beta_max < 0:
            raise ValueError("table bounds must be >= 0")
        self.md = md
        self.p_max = p_max
        self.beta_max = beta_max
        self._base = slice_chain(md, min(beta_max, p_max // md.nu) + 1, p_max)
        self._ct = {}
        self._shifted = {}
        for p in range(p_max + 1):
            self._ct[(p, 0)] = LaurentPoly.from_ints(p, (1,))
            for beta in range(1, min(beta_max, p // md.nu) + 1):
                self._ct[(p, beta)] = self._solve_ct(p, beta)

    def _solve_ct(self, p: int, beta: int) -> LaurentPoly:
        return -sum_of_products(
            ((self.shifted_row(p, b1, beta - b1), self._base[beta - b1])
             for b1 in range(beta)),
            p - self.md.nu * beta)

    # -- accessors (out-of-range index conventions live here)

    def c_entry(self, p: int, l: int, beta: int) -> tuple[int, int]:
        """c[p,l,beta] as an integer over its base slice's denominator
        (not reduced); (0, 1) when p < 0 or l < 0."""
        if p < 0 or l < 0:
            return 0, 1
        if max(p, l) > self.p_max or beta > self.beta_max:
            raise WindowUnderflow(
                f"c({p},{l},{beta}) beyond built bounds "
                f"(p, l<={self.p_max}, beta<={self.beta_max})")
        base = self.base(beta)
        return (sum(comb(p, j) * beta**(p - j) * base.nums[l - j - base.lo]
                    for j in range(max(l - base.hi, 0),
                                   min(p, l - base.lo) + 1)),
                base.den)

    def base(self, beta: int) -> LaurentPoly:
        """The stored base_beta(w), whole, known up to w^p_max; a read
        past the stored slices raises WindowUnderflow."""
        if beta >= len(self._base):
            raise WindowUnderflow(
                f"base slice {beta} beyond stored slices "
                f"(beta<={len(self._base) - 1})")
        return self._base[beta]

    def ct_row(self, p: int, beta: int) -> LaurentPoly:
        """T_{p,beta}(w) = sum_l ct[p,l,beta] w^l, zero when
        p - nu*beta < 0."""
        if p > self.p_max or beta > self.beta_max:
            raise WindowUnderflow(
                f"ct row ({p},{beta}) beyond built bounds "
                f"(p<={self.p_max}, beta<={self.beta_max})")
        return self._ct.get((p, beta), LaurentPoly.zero())

    def shifted_row(self, p: int, beta: int, s: int) -> LaurentPoly:
        """T_{p,beta}(w + s), the Taylor shift of `ct_row`, computed once
        per (p, beta, s) and kept: the ct solve makes every shift that
        an F-bracket row reads (`invariants.f_residue_series`)."""
        key = (p, beta, s)
        row = self._shifted.get(key)
        if row is None:
            row = self.ct_row(p, beta)
            if s and not row.is_zero():
                row = poly_shift(row, s)
            self._shifted[key] = row
        return row

    def ct_entry(self, p: int, l: int, beta: int) -> tuple[int, int]:
        """ct[p,l,beta] as the stored numerator over its row's
        denominator (not reduced); (0, 1) when p < 0 or l < 0.  The
        entry-by-entry read of `convolution_defect`."""
        if p < 0 or l < 0:
            return 0, 1
        row = self.ct_row(p, beta)
        if l > p - self.md.nu * beta >= 0:
            raise ValueError(
                f"ct({p},{l},{beta}) with l > p - nu*beta is never defined")
        return (row.nums[l - row.lo] if row.lo <= l <= row.hi else 0), row.den

    def ct_l_terms(self, p: int, beta: int) -> tuple[int, tuple]:
        """(den, (t0, t1, t2, t3)): the ct weights of the Theta lemma on
        row (p, beta), with e = p - nu*beta, as integers over the row's
        denominator den: t0 = ct[p,e,beta], t1 = ct[p,e-1,beta],
        t2 = e t0 and t3 = C(e,2) t0, the q^beta terms of s0..s3 at L^e,
        L^(e-1), L^(e-1) and L^(e-2) (`hyper.FanoContext.ct_sums`).  The
        bounds are those of `ct_row`; every term is 0 when e < 0."""
        row, e = self.ct_row(p, beta), p - self.md.nu * beta
        nums, k = row.nums, e - row.lo  # ct[p,e,beta] is nums[k]
        t0 = nums[k] if 0 <= k < len(nums) else 0
        t1 = nums[k - 1] if 0 < k <= len(nums) else 0
        # e (e - 1) / 2 is C(e, 2) for e >= 0, and t0 is 0 when e < 0
        return row.den, (t0, t1, e * t0, e * (e - 1) // 2 * t0)

    def convolution_defect(self, p: int, l: int, beta: int) -> Rat:
        """LHS of the defining convolution minus its Kronecker RHS;
        exactly zero whenever the tables are consistent.  Each term
        ct * c is an integer over the product of its two entries'
        denominators, and the terms are added over their lcm."""
        nu = self.md.nu
        if l > p - nu * beta:
            raise ValueError("convolution identity needs l <= p - nu*beta")
        terms = []
        for b1 in range(beta + 1):
            for k in range(p - nu * b1 + 1):
                a, da = self.ct_entry(p, k, b1)
                if a:
                    c, dc = self.c_entry(k, l, beta - b1)
                    terms.append((a * c, da * dc))
        d = lcm(*[t[1] for t in terms])
        want = d if (beta == 0 and p == l) else 0
        return Fraction(sum(x * (d // e) for x, e in terms) - want, d)
