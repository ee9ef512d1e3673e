"""Rational coefficient tables c_{p,l}^{(beta)} and ct_{p,l}^{(beta)}.

The c numbers are read off a generating function: for each beta expand

    (w + beta)^p * prod_k prod_{i=1..d_k*beta} (d_k w + i)
    -----------------------------------------------------
                prod_{j=1..beta} (w + j)^n

as a power series in w.  The ct numbers invert them through the
convolution

    sum_{b1+b2=beta} sum_{k=0}^{p - nu*b1} ct[p,k,b1] c[k,l,b2]
        = delta(beta,0) delta(p,l),   for l <= p - nu*beta,

which pins every entry recursively in beta.  Entries with l < 0 or
p < 0 count as zero; at beta = 0 both tables are Kronecker deltas.
"""

from __future__ import annotations

from fractions import Fraction
from .geometry import MultiDegree
from .series import Rat, linear_product, poly_div, poly_mul


class InsufficientBounds(Exception):
    """A table entry was asked for beyond the built bounds."""


def _c_base_slice(md: MultiDegree, beta: int, cap: int) -> list:
    """prod_k prod_i (d_k w + i) / prod_j (w + j)^n as a w-series."""
    num = linear_product(((i, d) for d in md.degrees
                          for i in range(1, d * beta + 1)), cap)
    den = linear_product(((j, 1) for j in range(1, beta + 1)
                          for _ in range(md.n)), cap)
    return poly_div(num, den, cap)


class CoeffTables:
    """Both tables for one geometry, built once and shared read-only."""

    __slots__ = ("md", "p_max", "beta_max", "_c", "_ct")

    def __init__(self, md: MultiDegree, p_max: int, beta_max: int):
        if p_max < 0 or beta_max < 0:
            raise ValueError("table bounds must be >= 0")
        self.md = md
        self.p_max = p_max
        self.beta_max = beta_max
        self._c = {}
        self._ct = {}
        self._build_c()
        self._build_ct()

    def _build_c(self):
        cap = self.p_max
        for beta in range(self.beta_max + 1):
            base = _c_base_slice(self.md, beta, cap)
            row = base
            for p in range(self.p_max + 1):
                self._c[(p, beta)] = tuple(row) + (Fraction(0),) * (cap + 1 - len(row))
                row = poly_mul(row, [Fraction(beta), Fraction(1)], cap)

    def _build_ct(self):
        nu = self.md.nu
        for beta in range(self.beta_max + 1):
            for p in range(self.p_max + 1):
                top = p - nu * beta
                if top < 0:
                    continue
                vals = []
                for l in range(top + 1):
                    v = Fraction(1) if (beta == 0 and p == l) else Fraction(0)
                    for b1 in range(beta):
                        ct_row = self._ct.get((p, b1))
                        if ct_row is None:
                            continue
                        b2 = beta - b1
                        for k, ck in enumerate(ct_row):
                            if ck != 0:
                                v -= ck * self.c(k, l, b2)
                    vals.append(v)
                self._ct[(p, beta)] = tuple(vals)

    # -- accessors (out-of-range index conventions live here)

    def c(self, p: int, l: int, beta: int) -> Rat:
        if p < 0 or l < 0:
            return Fraction(0)
        if max(p, l) > self.p_max or beta > self.beta_max:
            raise InsufficientBounds(
                f"c({p},{l},{beta}) beyond built bounds "
                f"(p, l<={self.p_max}, beta<={self.beta_max})")
        return self._c[(p, beta)][l]

    def ctilde(self, p: int, l: int, beta: int) -> Rat:
        if p < 0 or l < 0:
            return Fraction(0)
        if p > self.p_max or beta > self.beta_max:
            raise InsufficientBounds(
                f"ct({p},{l},{beta}) beyond built bounds "
                f"(p<={self.p_max}, beta<={self.beta_max})")
        top = p - self.md.nu * beta
        if top < 0:
            return Fraction(0)
        if l > top:
            raise ValueError(
                f"ct({p},{l},{beta}) with l > p - nu*beta is never defined")
        return self._ct[(p, beta)][l]

    def convolution_defect(self, p: int, l: int, beta: int) -> Rat:
        """LHS of the defining convolution minus its Kronecker RHS;
        exactly zero whenever the tables are consistent."""
        nu = self.md.nu
        if l > p - nu * beta:
            raise ValueError("convolution identity needs l <= p - nu*beta")
        s = Fraction(0)
        for b1 in range(beta + 1):
            top = p - nu * b1
            if top < 0:
                continue
            for k in range(top + 1):
                ck = self.ctilde(p, k, b1)
                if ck != 0:
                    s += ck * self.c(k, l, beta - b1)
        want = Fraction(1) if (beta == 0 and p == l) else Fraction(0)
        return s - want
