"""Hypergeometric series attached to a Fano complete intersection, and
the mirror-map package mu, L, Phi0, Phi1, Theta built from them.

mu, Phi0, Phi1 and Theta are each computed by two independent routes
(L = 1 + q mu' has its closed form only, checked against its algebraic
identity):

* a series route working directly on the hypergeometric sums (residues
  of exact Laurent windows in the auxiliary variable), and
* a closed route (Lagrange-inversion style formulas in L(q)).

The two must agree exactly; the check suite enforces this.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, lcm
from operator import mul

from .geometry import MultiDegree
from .series import (INF_EXP, BiSeries, LaurentPoly, QSeries, linear_product,
                     poly_inv, poly_mul, sum_of_products)
from .tables import CoeffTables


# ---------------------------------------------------------------------------
# slice-level builders


def ftilde_hbar(md: MultiDegree, order: int, hi: int) -> BiSeries:
    """Ft(1/hbar, q): the q^beta slice is
    prod_k prod_i (d_k + i*hbar) / prod_j ((1 + j*hbar)^n - 1),
    a Laurent series with lowest exponent -beta."""
    slices, his = [], []
    for beta in range(order + 1):
        cap = hi + beta
        num = linear_product(((d, i) for d in md.degrees
                              for i in range(1, d * beta + 1)), cap)
        unit = [Fraction(1)]
        for j in range(1, beta + 1):
            uj = [Fraction(comb(md.n, t + 1) * j**t, md.n)
                  for t in range(md.n)]
            unit = poly_mul(unit, uj, cap)
        lead = Fraction(1, md.n**beta * factorial(beta))
        vals = poly_mul(num, poly_inv(unit, cap), cap)
        slices.append(LaurentPoly(-beta, [lead * v for v in vals]))
        his.append(hi)
    return BiSeries(slices, his)


def f_w(md: MultiDegree, order: int, hi: int, tilde: bool = False,
        with_w_power: bool = True) -> BiSeries:
    """F(w, q) (or Ft(w, q) when tilde=True): regular at w = 0, with the
    q^beta slice carrying an explicit w^{nu*beta} prefactor.  Setting
    with_w_power=False drops that prefactor, which is the generating
    series of the c table after the substitution q -> q / w^nu."""
    nu = md.nu if with_w_power else 0
    slices, his = [], []
    for beta in range(order + 1):
        shift = nu * beta
        cap = max(hi - shift, 0)
        num = linear_product(((i, d) for d in md.degrees
                              for i in range(1, d * beta + 1)), cap)
        den = [Fraction(1)]
        for j in range(1, beta + 1):
            if tilde:
                dj = [Fraction(comb(md.n, t) * j**(md.n - t))
                      for t in range(md.n)]  # (w+j)^n - w^n
            else:
                dj = [Fraction(comb(md.n, t) * j**(md.n - t))
                      for t in range(md.n + 1)]
            den = poly_mul(den, dj, cap)
        vals = poly_mul(num, poly_inv(den, cap), cap)
        slices.append(LaurentPoly(shift, vals))
        his.append(hi)
    return BiSeries(slices, his)


def exp_neg_mu_over_aux(mu: QSeries, order: int) -> BiSeries:
    """exp(-mu(q)/hbar) as a fully known BiSeries: the q^beta slice is a
    Laurent polynomial supported on exponents -beta..0."""
    powers = [QSeries.one(order)]
    for _ in range(order):
        powers.append(powers[-1] * mu)
    slices = []
    for beta in range(order + 1):
        vals = [Fraction((-1)**k, factorial(k)) * powers[k].coeff(beta)
                for k in range(beta, -1, -1)]
        slices.append(LaurentPoly(-beta, vals))
    return BiSeries(slices)


def fp_series(tables: CoeffTables, base: BiSeries, p: int, shift: int) -> BiSeries:
    """F_p = sum over beta1 <= p/nu, l <= p - nu*beta1 of
    ct[p,l,beta1] * q^beta1 * aux^e * D^l(base), where
    D = 1 + aux^shift * q d/dq and e = l + nu*beta1 - p in the w
    presentation (shift=-1), -e in the hbar presentation (shift=+1).

    q d/dq multiplies q^b by b, so D^l is (1 + b*aux^shift)^l on slice
    b, and with s = -shift the ct-weighted factor in front of slice b
    is the Laurent polynomial

        P[beta1, b] = aux^(s*(nu*beta1 - p)) * sum_l ct[p,l,beta1] (b + aux^s)^l.

    Slice B of F_p is the capped sum of P[beta1, B-beta1] * base[B-beta1]
    over beta1 <= B.  Its window is the one the chain of D's gives:
    the least h[B-beta1] + e - l*[shift = -1 and B-beta1 >= 1] over the
    nonzero ct (each w-side D lowers the window of a slice b >= 1 by
    one; fully known slices stay fully known, and so does every slice
    when all ct vanish)."""
    nu, order, s = tables.md.nu, base.order, -shift
    rows = []  # (beta1, ct numerators over den, den, l of the nonzero ct)
    for beta1 in range(min(order, p // nu) + 1):
        row = [tables.ctilde(p, l, beta1) for l in range(p - nu * beta1 + 1)]
        nonzero = [l for l, c in enumerate(row) if c]
        if nonzero:
            den = lcm(*[c.denominator for c in row])
            rows.append((beta1, [c.numerator * (den // c.denominator) for c in row],
                         den, nonzero))
    slices, his = [], []
    for B in range(order + 1):
        pairs, h = [], INF_EXP
        for beta1, nums, den, nonzero in rows:
            b = B - beta1
            if b < 0:
                break
            if base.his[b] < INF_EXP:
                drop = shift == -1 and b > 0
                h = min(h, base.his[b] + min(s * (l + nu * beta1 - p) - l * drop
                                             for l in nonzero))
            # sum_l nums[l] (b + x)^l by Horner, x = aux^s
            poly = []
            for c in reversed(nums):
                poly = [b * x + y for x, y in zip(poly + [0], [0] + poly)]
                poly[0] += c
            poly = [Fraction(c, den) for c in poly]
            lead = s * (nu * beta1 - p)
            fac = (LaurentPoly(lead, poly) if s == 1
                   else LaurentPoly(lead - len(poly) + 1, poly[::-1]))
            pairs.append((fac, base.slices[b]))
        slices.append(sum_of_products(pairs, h))
        his.append(h)
    return BiSeries(slices, his)


# ---------------------------------------------------------------------------
# closed formulas


def mu_closed(md: MultiDegree, order: int) -> QSeries:
    """Lagrange-inversion closed form of the mirror transform mu(q)."""
    n, t, dd = md.n, md.total, md.dd
    coeffs = [Fraction(0)]
    for k in range(1, order + 1):
        num = 1
        for i in range(1, k):
            num *= k * t + 1 - i * n
        coeffs.append(Fraction(dd**k * num, factorial(k) * k * n**k))
    return QSeries(order, coeffs)


def l_closed(md: MultiDegree, order: int) -> QSeries:
    """L(q) = 1 + q mu'(q); satisfies L^n - q d^d L^{|d|} = 1."""
    n, t, dd = md.n, md.total, md.dd
    coeffs = []
    for k in range(order + 1):
        num = 1
        for i in range(1, k):
            num *= k * t + 1 - i * n
        coeffs.append(Fraction(num, factorial(k)) * Fraction(dd, n)**k)
    return QSeries(order, coeffs)


def phi0_closed(md: MultiDegree, order: int) -> QSeries:
    L = l_closed(md, order)
    y = 1 + QSeries.q(order) * Fraction(md.dd * (md.n - md.total), md.n) \
        * L.pow(md.total)
    return L.pow(Fraction(md.r + 1, 2)) * y.pow(Fraction(-1, 2))


def phi1_closed(md: MultiDegree, order: int) -> QSeries:
    n, t, r = md.n, md.total, md.r
    L = l_closed(md, order)
    y = 1 + QSeries.q(order) * Fraction(md.dd * (n - t), n) * L.pow(t)
    lead = Fraction(3 * r**2 - 1, 24 * t) \
        - md.inv_degree_sum() * Fraction(2, 24)
    first = lead * L.pow(Fraction(r - 1, 2)) * (L - 1) * y.pow(Fraction(-1, 2))
    a = t * n - t - 3 * r**2 + 1
    bracket = (
        Fraction(t**3 * a) * L
        + Fraction(t**2 * n * (2 * t**2 - 6 * t * n - 6 * t * r
                               + 3 * n**2 + 6 * n * r + n + 3 * r**2 - 1))
        * L.pow(n)
        + Fraction(3 * t**2 * (n - t) * a) * L.pow(n + 1)
        + Fraction(t * n * (n - t) * (4 * t**2 - 5 * t * n - 12 * t * r
                                      - 2 * n**2 + 6 * n * r + n
                                      + 6 * r**2 - 2)) * L.pow(2 * n)
        + Fraction(3 * t * (n - t)**2 * a) * L.pow(2 * n + 1)
        + Fraction(n * (n - t)**2 * (2 * t**2 + t * n - 6 * t * r
                                     + 3 * r**2 - 1)) * L.pow(3 * n)
        + Fraction((n - t)**3 * a) * L.pow(3 * n + 1)
    )
    second = L.pow(Fraction(r - 1, 2)) * y.pow(Fraction(-7, 2)) \
        * bracket * Fraction(1, 24 * t * n**3)
    return first + second


# ---------------------------------------------------------------------------
# the bundled context


#: the six ct-L sums of one insertion power (`FanoContext.ct_sums`)
CtSums = namedtuple("CtSums", "s0 s1 s2 s3 s0_at_1 s1_at_1")


class FanoContext:
    """All series data for one geometry at one q-order, built lazily
    and cached.  Immutable from the outside; share freely."""

    def __init__(self, md: MultiDegree, order: int):
        self.md = md
        self.order = order
        self.tables = CoeffTables(md, p_max=md.n, beta_max=order)
        self._cache: dict = {}

    def _get(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    # -- bivariate families

    def ftilde_hbar(self, hi: int) -> BiSeries:
        return self._get(("fth", hi), lambda: ftilde_hbar(self.md, self.order, hi))

    def f_w(self, hi: int, tilde: bool = False) -> BiSeries:
        return self._get(("fw", hi, tilde),
                         lambda: f_w(self.md, self.order, hi, tilde=tilde))

    def fp_hbar(self, p: int, hi: int) -> BiSeries:
        return self._get(("fph", p, hi),
                         lambda: fp_series(self.tables, self.ftilde_hbar(hi), p, +1))

    def fp_w(self, p: int, hi: int, tilde: bool = False) -> BiSeries:
        return self._get(
            ("fpw", p, hi, tilde),
            lambda: fp_series(self.tables, self.f_w(hi, tilde=tilde), p, -1))

    def exp_neg_mu(self) -> BiSeries:
        return self._get(("expmu",),
                         lambda: exp_neg_mu_over_aux(self.mu(), self.order))

    def regularized_fp(self, p: int, hi: int) -> BiSeries:
        """exp(-mu/hbar) * Ft_p(1/hbar, q); regular at hbar = 0 (the
        negative coefficients vanish identically, which the acceptance
        suite verifies rather than assumes)."""
        return self._get(("regfp", p, hi),
                         lambda: self.exp_neg_mu() * self.fp_hbar(p, hi))

    # -- univariate package

    def mu(self, route: str = "closed") -> QSeries:
        if route == "closed":
            return self._get(("mu",), lambda: mu_closed(self.md, self.order))
        if route == "residue":
            def build():
                ft = self.ftilde_hbar(self.order + 2)
                return ft.log().residue()
            return self._get(("mu_res",), build)
        raise ValueError(f"unknown mu route {route!r}")

    def L(self) -> QSeries:
        return self._get(("L",), lambda: l_closed(self.md, self.order))

    def phi0(self, route: str = "closed") -> QSeries:
        if route == "closed":
            return self._get(("phi0",), lambda: phi0_closed(self.md, self.order))
        if route == "series":
            return self._get(
                ("phi0_s",),
                lambda: self.regularized_fp(0, self.order + 2).coeff_of_aux(0))
        raise ValueError(f"unknown phi0 route {route!r}")

    def phi1(self, route: str = "closed") -> QSeries:
        if route == "closed":
            return self._get(("phi1",), lambda: phi1_closed(self.md, self.order))
        if route == "series":
            return self._get(
                ("phi1_s",),
                lambda: self.regularized_fp(0, self.order + 2).coeff_of_aux(1))
        raise ValueError(f"unknown phi1 route {route!r}")

    # -- Theta

    def theta(self, p: int, level: int, route: str = "lemma") -> QSeries:
        if level not in (0, 1):
            raise ValueError("theta level must be 0 or 1")
        if route == "lemma":
            return self._get(("th", p, level), lambda: self._theta_lemma(p, level))
        if route == "residue":
            return self._get(
                ("th_res", p, level),
                lambda: self.regularized_fp(p, self.order + 2).coeff_of_aux(level))
        raise ValueError(f"unknown theta route {route!r}")

    def ct_sums(self, p: int) -> CtSums:
        """The ct-L sums of insertion power p, over beta with
        e = p - nu*beta, built once from one list L^0..L^n:

            s0 = sum ct[p,e,beta] q^beta L^e
            s1 = sum ct[p,e-1,beta] q^beta L^(e-1)
            s2 = sum e ct[p,e,beta] q^(beta+1) L^(e-1)      = q dS0/dL
            s3 = sum C(e,2) ct[p,e,beta] q^(beta+1) L^(e-2) = (q/2) d2S0/dL2

        where S0 is s0 read as a polynomial in L; s0_at_1 and s1_at_1
        are s0 and s1 at L = 1."""
        return self._get(("ct", p), lambda: self._ct_sums(p))

    def _ct_sums(self, p: int) -> CtSums:
        order, nu, ct = self.order, self.md.nu, self.tables.ctilde
        pows = self._get(("Lpow",), lambda: list(accumulate(
            [self.L()] * self.md.n, mul, initial=QSeries.one(order))))
        acc = [[Fraction(0)] * (order + 1) for _ in range(6)]

        def add(i, c, k, shift):  # acc[i] += c q^shift L^k
            if c:
                for j, x in enumerate(pows[k].coeffs[: order + 1 - shift], shift):
                    acc[i][j] += c * x

        for beta in range(min(order, p // nu) + 1):
            e = p - nu * beta
            c0, c1 = ct(p, e, beta), ct(p, e - 1, beta)
            add(0, c0, e, beta)
            add(1, c1, e - 1, beta)
            add(2, e * c0, e - 1, beta + 1)
            add(3, comb(e, 2) * c0, e - 2, beta + 1)
            add(4, c0, 0, beta)
            add(5, c1, 0, beta)
        return CtSums(*(QSeries(order, a) for a in acc))

    def _theta_lemma(self, p: int, level: int) -> QSeries:
        phi0, s = self.phi0(), self.ct_sums(p)
        if level == 0:
            return phi0 * s.s0
        return (phi0 * s.s1 + self.phi1() * s.s0
                + phi0.deriv() * s.s2
                + self.L().deriv() * phi0 * s.s3)

