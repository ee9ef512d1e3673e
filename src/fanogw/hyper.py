"""Hypergeometric series attached to a Fano complete intersection, and
the mirror-map package mu, L, y, Phi0, Phi1 and Theta built from them.

`FanoContext.mu()`, `phi0()`, `phi1()` and `theta(p, level)` are the
closed route (Lagrange inversion in L(q), the Theta lemma).  The series
route, residues of exact Laurent windows in the auxiliary variable, is
`mu_by_residue(ctx)` and `theta_by_residue(ctx, p, level)`; Phi0 and
Phi1 are its p = 0 reads; mu reads D log Ft = (D Ft) Ft^-1 against the
context's one Ft(1/hbar)^-1.  L = 1 + D mu has its closed form only,
checked against its algebraic identity.  D = q d/dq (`QSeries.euler`)
keeps the q-order, so every series a context hands out has its order.

Every slice of F(w, q) and Ft(1/hbar, q) comes from one recurrence,
`tables.slice_chain`: the q^beta slice is the q^(beta-1) slice times
|d| new linear factors over one denominator of degree n.

`FanoContext` owns every per-context quantity: each is built once,
through `FanoContext.memo`, and every caller reads it from there.  The
closed chain is mu -> L -> y -> Phi0 -> Phi1, and each integer power of
L comes from the one list L^0..L^n that the ct-L sums read too.  Phi1
is Phi0 L^-1 (lead (L - 1) + y^-3 B / (24 t n^3)), B a Horner form in
L and X = L^n, so L^((r+1)/2) and y^(-1/2) are raised once, in Phi0.
F(w, q) builds no slice of its own: `f_w` reads slice k as w^(nu k)
times the base slice k of the context's `CoeffTables`.  A(q) is Phi0
times four kernel pair sums of the ct-L sums, weighted by the Theta
lemma; Theta itself is built only for its dual-route check, Theta^(1)
as one kernel pair sum of the four ct-L sums against those weights.

The context owns its hbar and F_p windows, so no reader passes one: one
hbar window order + 1 for every series route (`ftilde_hbar`,
`ftilde_hbar_inv`), F_p(w) at F's window p - 1 (`fp_w`).  F(w) is
kept per window tuple (`FanoContext.f_w`), and the F-bracket derives its
tuples (`invariants`).  A read past a window raises WindowUnderflow.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial
from operator import mul

from .geometry import MultiDegree
from .series import INF_EXP, BiSeries, LaurentPoly, QSeries, sum_of_products
from .tables import CoeffTables, slice_chain


# ---------------------------------------------------------------------------
# slice-level builders


def ftilde_hbar(md: MultiDegree, order: int, hi: int) -> BiSeries:
    """Ft(1/hbar, q): the q^beta slice is
    prod_k prod_i (d_k + i*hbar) / prod_j ((1 + j*hbar)^n - 1),
    a Laurent series with lowest exponent -beta: the reversed Ft chain
    of `tables.slice_chain`, slice beta read up to hbar^(hi+beta)
    before its shift."""
    slices = slice_chain(md, [hi + beta for beta in range(order + 1)],
                         hbar=True)
    return BiSeries([s.shift(-beta) for beta, s in enumerate(slices)],
                    [hi] * (order + 1))


def f_w(tables: CoeffTables, his) -> BiSeries:
    """F(w, q) with slice k cut at w^his[k], for k < len(his): w^(nu k)
    times the base slice k of the tables (`CoeffTables.base`), zero when
    his[k] < nu k.  A context's tables reach w^(n + nu k): F-bracket
    windows stay below that, so F builds no slice of its own."""
    nu, base = tables.md.nu, tables.base
    return BiSeries([base(k, h - nu * k).shift(nu * k) if h >= nu * k
                     else LaurentPoly.zero() for k, h in enumerate(his)], his)


def exp_neg_mu_over_aux(mu: QSeries) -> BiSeries:
    """exp(-mu(q)/hbar) as a fully known BiSeries at mu's order: the
    q^beta slice is a Laurent polynomial on exponents -beta..0."""
    powers = [QSeries.one(mu.order)]
    for _ in range(mu.order):
        powers.append(powers[-1] * mu)
    slices = []
    for beta in range(mu.order + 1):
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

        P[beta1, b] = aux^(s*(nu*beta1 - p)) * T(b + aux^s),

    where T(x) = sum_l ct[p,l,beta1] x^l is the ct row and T(x + b)
    its Taylor shift, read from `CoeffTables.shifted_row` (the ct solve
    has already made it for every bracket row).  Over the unit series
    1 (slice 0 is 1, every other slice 0) F_p is
    sum ct[p,l,beta] q^beta aux^(-s*(p-nu*beta-l)), since D^l 1 = 1.

    Slice B of F_p is the capped sum of P[beta1, B-beta1] * base[B-beta1]
    over beta1 <= B.  Its window is the one the chain of D's gives:
    the least h[B-beta1] + e - l*[shift = -1 and B-beta1 >= 1] over the
    nonzero ct (each w-side D lowers the window of a slice b >= 1 by
    one; fully known slices stay fully known, and so does every slice
    when all ct vanish)."""
    nu, order, s = tables.md.nu, base.order, -shift
    rows = [(beta1, tables.ct_row(p, beta1))
            for beta1 in range(min(order, p // nu) + 1)]
    rows = [(beta1, row) for beta1, row in rows if not row.is_zero()]
    slices, his = [], []
    for B in range(order + 1):
        pairs, h = [], INF_EXP
        for beta1, row in rows:
            b = B - beta1
            if b < 0:
                break
            drop = shift == -1 and b > 0
            # linear in l, so least at the lowest or highest nonzero ct
            h = min(h, base.his[b] + min(s * (l + nu * beta1 - p) - l * drop
                                         for l in (row.lo, row.hi)))
            poly = tables.shifted_row(p, beta1, b)  # T(b + x), x = aux^s
            lead = s * (nu * beta1 - p)
            fac = (poly.shift(lead) if s == 1 else LaurentPoly.from_ints(
                lead - poly.hi, poly.nums[::-1], poly.den))
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


def l_closed(mu: QSeries) -> QSeries:
    """L(q) = 1 + D mu(q), D = q d/dq, read off mu (L_k = k mu_k) at mu's
    order; satisfies L^n - q d^d L^{|d|} = 1."""
    return 1 + mu.euler()


def phi0_closed(md: MultiDegree, L: QSeries, y: QSeries) -> QSeries:
    """Phi0 = L^((r+1)/2) y^(-1/2), from the context's L and y."""
    return L.pow(Fraction(md.r + 1, 2)) * y.pow(Fraction(-1, 2))


def phi1_closed(md: MultiDegree, L: QSeries, y: QSeries, X: QSeries,
                phi0: QSeries) -> QSeries:
    """Phi1 = Phi0 L^-1 (lead (L - 1) + y^-3 B / (24 t n^3)), from the
    context's L, y, X = L^n and Phi0 = L^((r+1)/2) y^(-1/2), where the
    seven-term bracket in L is the Horner form in X
    B = L (c0 + c2 X + c4 X^2 + c6 X^3) + X (c1 + c3 X + c5 X^2).
    Phi0 L^-1 is L^((r-1)/2) y^(-1/2), so no power of L or y is raised
    here beyond y^-3."""
    n, t, r = md.n, md.total, md.r
    lead = Fraction(3 * r**2 - 1, 24 * t) \
        - md.inv_degree_sum() * Fraction(2, 24)
    a = t * n - t - 3 * r**2 + 1
    c = (t**3 * a,
         t**2 * n * (2 * t**2 - 6 * t * n - 6 * t * r + 3 * n**2 + 6 * n * r
                     + n + 3 * r**2 - 1),
         3 * t**2 * (n - t) * a,
         t * n * (n - t) * (4 * t**2 - 5 * t * n - 12 * t * r - 2 * n**2
                            + 6 * n * r + n + 6 * r**2 - 2),
         3 * t * (n - t)**2 * a,
         n * (n - t)**2 * (2 * t**2 + t * n - 6 * t * r + 3 * r**2 - 1),
         (n - t)**3 * a)
    bracket = L * (c[0] + X * (c[2] + X * (c[4] + X * c[6]))) \
        + X * (c[1] + X * (c[3] + X * c[5]))
    return phi0 * (lead * (L - 1)
                   + y.pow(-3) * bracket * Fraction(1, 24 * t * n**3)) / L


# ---------------------------------------------------------------------------
# the bundled context


#: the four ct-L sums of one insertion power (`FanoContext.ct_sums`)
CtSums = namedtuple("CtSums", "s0 s1 s2 s3")


class FanoContext:
    """All series data for one geometry at one q-order, built lazily:
    every per-context quantity is built once, through `memo`, and kept.
    Immutable from the outside; share freely."""

    def __init__(self, md: MultiDegree, order: int):
        self.md = md
        self.order = order
        self.tables = CoeffTables(md, p_max=md.n, beta_max=order)
        self._cache: dict = {}

    def memo(self, key, build):
        """The value kept under key, made by build() on the first call:
        the one place where a per-context quantity is built once."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    # -- bivariate families

    def ftilde_hbar(self) -> BiSeries:
        """Ft(1/hbar, q) at window order + 1: slice b of exp(-mu/hbar)
        starts at hbar^-b, so slice `order` of exp(-mu/hbar) Ft_p is known
        up to hbar^1, the highest power any reader takes (Theta^(1),
        the double residue and type B, each at q^b <= order)."""
        return self.memo(("fth",), lambda: ftilde_hbar(
            self.md, self.order, self.order + 1))

    def ftilde_hbar_inv(self) -> BiSeries:
        """Ft(1/hbar, q)^-1 at the window of `ftilde_hbar`: one inverse
        per context, read by `mu_by_residue` and the residue route of
        the n/24 block (`invariants.n24_by_residue`)."""
        return self.memo(("ftinv",), lambda: self.ftilde_hbar().inv())

    def f_w(self, his: tuple) -> BiSeries:
        """F with slice k cut at his[k] for k < len(his), the slices
        above dropped (`f_w` on the context's tables); kept per window
        tuple."""
        return self.memo(("fw", his), lambda: f_w(self.tables, his))

    def fp_hbar(self, p: int) -> BiSeries:
        return self.memo(("fph", p),
                         lambda: fp_series(self.tables, self.ftilde_hbar(), p, +1))

    def fp_w(self, p: int) -> BiSeries:
        """F_p(w, q) on F at window p - 1, the least at which every
        negative w power is known: F_p's window falls up to p below F's."""
        return self.memo(("fpw", p),
                         lambda: fp_series(self.tables, self.f_w(
                             (p - 1,) * (self.order + 1)), p, -1))

    def exp_neg_mu(self) -> BiSeries:
        return self.memo(("expmu",),
                         lambda: exp_neg_mu_over_aux(self.mu()))

    def regularized_fp(self, p: int) -> BiSeries:
        """exp(-mu/hbar) * Ft_p(1/hbar, q), for the double residue and
        the regularizability check; regular at hbar = 0 (the negative
        coefficients vanish identically, which the acceptance suite
        verifies rather than assumes)."""
        return self.memo(("regfp", p),
                         lambda: self.exp_neg_mu() * self.fp_hbar(p))

    # -- univariate package

    def mu(self) -> QSeries:
        return self.memo(("mu",), lambda: mu_closed(self.md, self.order))

    def L(self) -> QSeries:
        return self.memo(("L",), lambda: l_closed(self.mu()))

    def _l_powers(self) -> list:
        """L^0..L^n: every integer power of L the context reads (L^e in
        the ct-L sums, L^|d| in y, X = L^n in Phi1)."""
        return self.memo(("Lpow",), lambda: list(accumulate(
            [self.L()] * self.md.n, mul, initial=QSeries.one(self.order))))

    def y(self) -> QSeries:
        """y = 1 + q d^d (n - |d|)/n L^{|d|}, shared by Phi0 and Phi1."""
        md = self.md
        return self.memo(("y",), lambda: 1 + QSeries.q(self.order) * Fraction(
            md.dd * md.nu, md.n) * self._l_powers()[md.total])

    def A(self) -> QSeries:
        """The localization series A(q): Theta^{(1)}_{p1} Theta^{(0)}_{p2}
        summed over both blocks of `MultiDegree.theta_pairs`.

        Each Theta is a weighted sum of ct-L sums (`_theta_weights`):
        Theta^{(0)}_p = Phi0 s0(p) and Theta^{(1)}_p = sum_i w_i s_i(p)
        over i = 0..3.  So A = Phi0 sum_i w_i P_i, where P_i is the sum
        over all pairs of s_i(p1) s0(p2): four kernel pair sums, and no
        Theta is built."""
        return self.memo(("A",), self._a_from_pair_sums)

    def _a_from_pair_sums(self) -> QSeries:
        weights, top = self._theta_weights(), self.order
        pairs = [(self.ct_sums(p1), self.ct_sums(p2).s0.poly)
                 for block in self.md.theta_pairs() for p1, p2 in block]
        pair_sums = [sum_of_products(((s[i].poly, s0) for s, s0 in pairs), top)
                     for i in range(len(weights))]
        return self.phi0() * QSeries.from_poly(top, sum_of_products(
            zip((w.poly for w in weights), pair_sums), top))

    def phi0(self) -> QSeries:
        return self.memo(("phi0",),
                         lambda: phi0_closed(self.md, self.L(), self.y()))

    def phi1(self) -> QSeries:
        return self.memo(("phi1",), lambda: phi1_closed(
            self.md, self.L(), self.y(), self._l_powers()[self.md.n],
            self.phi0()))

    # -- Theta

    def theta(self, p: int, level: int) -> QSeries:
        if level not in (0, 1):
            raise ValueError("theta level must be 0 or 1")
        return self.memo(("th", p, level), lambda: self._theta_lemma(p, level))

    def ct_sums(self, p: int) -> CtSums:
        """The four ct-L sums of insertion power p, over beta with
        e = p - nu*beta, built once from one list L^0..L^n:

            s0 = sum ct[p,e,beta] q^beta L^e
            s1 = sum ct[p,e-1,beta] q^beta L^(e-1)
            s2 = sum e ct[p,e,beta] q^beta L^(e-1)      = dS0/dL
            s3 = sum C(e,2) ct[p,e,beta] q^beta L^(e-2) = (1/2) d2S0/dL2

        where S0 is s0 read as a polynomial in L.  At L = 1, s0 and s1
        have the single entries ct[p,1,b] and ct[p,0,b] at q^b for
        p = 1 + nu*b, so the n/24 block reads those instead of a sum."""
        return self.memo(("ct", p), lambda: self._ct_sums(p))

    def _ct_sums(self, p: int) -> CtSums:
        order, nu, ct = self.order, self.md.nu, self.tables.ctilde
        pows = [s.poly for s in self._l_powers()]
        terms = [[], [], [], []]  # (c q^beta, L^k) pairs of each sum
        for beta in range(min(order, p // nu) + 1):
            e = p - nu * beta
            c0, c1 = ct(p, e, beta), ct(p, e - 1, beta)
            for i, c, k in ((0, c0, e), (1, c1, e - 1), (2, e * c0, e - 1),
                            (3, comb(e, 2) * c0, e - 2)):
                if c:
                    terms[i].append((LaurentPoly.from_ints(
                        beta, (c.numerator,), c.denominator), pows[k]))
        return CtSums(*(QSeries.from_poly(order, sum_of_products(t, order))
                        for t in terms))

    def _theta_weights(self) -> tuple:
        """The weights of s0, s1, s2, s3 (`CtSums`) in Theta^{(1)}_p, the
        Theta lemma:

            Theta^{(1)}_p = Phi1 s0 + Phi0 s1 + D Phi0 s2 + D L Phi0 s3."""
        def build():
            phi0 = self.phi0()
            return (self.phi1(), phi0, phi0.euler(), self.L().euler() * phi0)
        return self.memo(("theta_w",), build)

    def _theta_lemma(self, p: int, level: int) -> QSeries:
        s = self.ct_sums(p)
        if level == 0:
            return self.phi0() * s.s0
        return QSeries.from_poly(self.order, sum_of_products(
            ((w.poly, si.poly) for w, si in zip(self._theta_weights(), s)),
            self.order))


# ---------------------------------------------------------------------------
# the series routes, read off the hypergeometric Laurent data


def mu_by_residue(ctx: FanoContext) -> QSeries:
    """mu as the hbar^-1 residue of log Ft(1/hbar, q).  With D = q d/dq,
    D log Ft = (D Ft) Ft^-1, so mu_k is 1/k times its q^k hbar^-1
    coefficient (`BiSeries.mul_coeff_of_aux`), and mu_0 = 0 since the
    q^0 slice of Ft is 1."""
    ft = ctx.ftilde_hbar()
    d_ft = BiSeries([s * k for k, s in enumerate(ft.slices)], ft.his)
    k_mu = d_ft.mul_coeff_of_aux(ctx.ftilde_hbar_inv(), -1).coeffs
    return QSeries(ctx.order, [0] + [c / k for k, c in enumerate(k_mu[1:], 1)])


def theta_by_residue(ctx: FanoContext, p: int, level: int) -> QSeries:
    """Theta^{(level)}_p as the aux^level coefficient of
    exp(-mu/hbar) Ft_p(1/hbar, q), read alone (`BiSeries.mul_coeff_of_aux`).
    At p = 0 this is Phi0 (level 0) and Phi1 (level 1): their series
    route."""
    if level not in (0, 1):
        raise ValueError("theta level must be 0 or 1")
    return ctx.exp_neg_mu().mul_coeff_of_aux(ctx.fp_hbar(p), level)
