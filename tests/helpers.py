"""Independent oracles used by the tests, the one corruption hook, and
the small series helpers only tests need.

The oracles deliberately avoid the library's own code paths: plain list
arithmetic on Fractions, long division, fixpoint iteration.  Expected
values asserted in the tests were computed with these and frozen.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, gcd, prod
from types import SimpleNamespace

from fanogw.geometry import MultiDegree
from fanogw.hyper import fp_series, ftilde_hbar
from fanogw.series import INF_EXP, BiSeries, LaurentPoly, QSeries, poly_shift
from fanogw.tables import slice_chain


def poly_mul(a, b, cap):
    """a * b up to exponent cap, over Fractions, or over ints when both
    factors are int lists (kept exact and fast for the slice oracle)."""
    ints = all(type(x) is int for x in (*a, *b))
    out = [0 if ints else Fraction(0)] * (cap + 1)
    for i, x in enumerate(a[: cap + 1]):
        if x == 0:
            continue
        for j, y in enumerate(b[: cap + 1 - i]):
            if y != 0:
                out[i + j] += x * y
    return out


def is_canonical(p):
    """p is in the kernel's canonical form: int numerators without zero
    margins over a positive denominator they share no factor with, and
    zero as lo = 0, no numerators, denominator 1."""
    if not p.nums:
        return p.lo == 0 and p.den == 1
    return (type(p.nums) is tuple and all(type(x) is int for x in p.nums)
            and p.nums[0] != 0 and p.nums[-1] != 0
            and type(p.den) is int and p.den > 0 and gcd(p.den, *p.nums) == 1)


def laurent_terms(lo, coeffs):
    """{exponent: Fraction} of the nonzero coefficients of the list
    coeffs at exponents lo, lo+1, ..."""
    return {lo + i: Fraction(c) for i, c in enumerate(coeffs) if c != 0}


def terms_product(x, y, cap):
    """The {exponent: Fraction} product of two term dicts, without the
    exponents above cap."""
    out = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            if e1 + e2 <= cap:
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def terms_sum(x, y):
    out = dict(x)
    for e, c in y.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c != 0}


def laurent_repr(terms):
    """The repr of the LaurentPoly with these {exponent: Fraction} terms."""
    body = ", ".join(f"{e}: {c}" for e, c in sorted(terms.items()))
    return f"LaurentPoly{{{body or '0'}}}"


def long_division(num, den, cap):
    """num/den as a power series via schoolbook long division
    (den[0] != 0)."""
    num = list(num) + [Fraction(0)] * (cap + 1 - len(num))
    out = []
    for k in range(cap + 1):
        c = Fraction(num[k], 1) / den[0]
        out.append(c)
        for j in range(1, min(len(den), cap + 1 - k)):
            num[k + j] -= c * den[j]
    return out


def c_entry_oracle(n, degrees, p, l, beta):
    """c_{p,l}^{(beta)} by direct expansion with long division."""
    cap = l
    num = [Fraction(1)]
    for d in degrees:
        for i in range(1, d * beta + 1):
            num = poly_mul(num, [Fraction(i), Fraction(d)], cap)
    for _ in range(p):
        num = poly_mul(num, [Fraction(beta), Fraction(1)], cap)
    den = [Fraction(1)]
    for j in range(1, beta + 1):
        for _ in range(n):
            den = poly_mul(den, [Fraction(j), Fraction(1)], cap)
    return long_division(num, den, cap)[l]


def l_fixpoint_oracle(md, order):
    """Solve L^n - q d^d L^{|d|} = 1 by iterating
    L <- (1 + q d^d L^{|d|})^(1/n); q-adic contraction, so order+1
    rounds pin every coefficient."""
    L = QSeries.one(order)
    q = QSeries.q(order)
    for _ in range(order + 1):
        L = (1 + q * md.dd * L.pow(md.total)).pow(Fraction(1, md.n))
    return L


def chern_series(n, degrees, cap):
    """(1+h)^n / prod(1 + d h) up to h^cap, via long division."""
    num = [Fraction(comb(n, j)) for j in range(min(n, cap) + 1)]
    den = [Fraction(1)]
    for d in degrees:
        den = poly_mul(den, [Fraction(1), Fraction(d)], cap)
    return long_division(num, den, cap)


def chern_value_oracle(n, degrees):
    """-(prod d / 24) [h^{dim-1}] (1+h)^n / prod(1+d h) via long
    division."""
    cap = n - 2 - len(degrees)
    return -Fraction(prod(degrees), 24) * chern_series(n, degrees, cap)[cap]


def g_terms(md, hi):
    """G(h) = ((1+h)^n - 1) / (h^3 prod(d_k + h)) from h^-2 up to h^hi,
    as {exponent: Fraction}: ((1+h)^n - 1)/h over prod(d_k + h) via
    long division, moved down by h^2."""
    cap = hi + 2
    num = [Fraction(comb(md.n, j + 1)) for j in range(md.n)]
    den = [Fraction(1)]
    for d in md.degrees:
        den = poly_mul(den, [Fraction(d), Fraction(1)], cap)
    return laurent_terms(-2, long_division(num, den, cap))


def corrupt_ctilde(monkeypatch, tables, p, l, beta):
    """Bump the entry ct[p, l, beta] of `tables` by 1 for one test, to
    show that the consistency checks bite."""
    monkeypatch.setitem(tables._ct, (p, beta),
                        tables._ct[(p, beta)] + LaurentPoly(l, (1,)))


def ctilde_oracle(n, degrees, nu, p_max, beta_max):
    """Standalone ct recursion (dict-based, no shared code with the
    library's table builder)."""
    ct = {}
    for beta in range(beta_max + 1):
        for p in range(p_max + 1):
            top = p - nu * beta
            if top < 0:
                continue
            for l in range(top + 1):
                v = Fraction(1) if (beta == 0 and p == l) else Fraction(0)
                for b1 in range(beta):
                    for k in range(p - nu * b1 + 1):
                        prev = ct.get((p, k, b1), Fraction(0))
                        if prev != 0:
                            v -= prev * c_entry_oracle(n, degrees, k, l,
                                                       beta - b1)
                ct[(p, l, beta)] = v
    return ct


def valid_geometries(n_max, r_max):
    """Every valid MultiDegree with n <= n_max and r <= r_max."""
    return [MultiDegree(n, ds)
            for n in range(3, n_max + 1) for r in range(1, r_max + 1)
            for ds in combinations_with_replacement(range(2, n), r)
            if n - 1 - r >= 1 and n - sum(ds) >= 1]


def _laurent(coeffs, hi):
    """LaurentPoly from an {exponent: Fraction} dict, cut above hi."""
    kept = {e: c for e, c in coeffs.items() if c != 0 and e <= hi}
    if not kept:
        return LaurentPoly.zero()
    lo = min(kept)
    return LaurentPoly(lo, [kept.get(e, Fraction(0))
                            for e in range(lo, max(kept) + 1)])


def _d_step(slices, his, shift):
    """D = 1 + aux^shift q d/dq on dict slices: slice b gains b times
    itself times aux^shift, and a known window of a slice b >= 1 becomes
    min(h, h + shift)."""
    out_sl, out_hs = [], []
    for b, (s, h) in enumerate(zip(slices, his)):
        t = dict(s)
        if b:
            for e, c in s.items():
                t[e + shift] = t.get(e + shift, Fraction(0)) + b * c
            h = min(h, h + shift)
        out_sl.append({e: c for e, c in t.items() if e <= h})
        out_hs.append(h)
    return out_sl, out_hs


def apply_d(base, shift, times=1):
    """D^times(base) for a BiSeries, one D at a time."""
    slices, his = [dict(s.items()) for s in base.slices], list(base.his)
    for _ in range(times):
        slices, his = _d_step(slices, his, shift)
    return BiSeries([_laurent(s, h) for s, h in zip(slices, his)], his)


def shift_aux(series, k):
    """aux^k times a BiSeries: every slice and every window moved by k
    (a fully known slice stays fully known)."""
    return BiSeries([s.shift(k) for s in series.slices],
                    [h + k for h in series.his])


def bi_one(order):
    """The unit BiSeries at q-order `order`: slice 0 is 1, every other
    slice is 0, all fully known."""
    return BiSeries([LaurentPoly(0, (1,))] + [LaurentPoly.zero()] * order)


def coeff_of_aux(x, e):
    """The aux^e coefficients of the BiSeries x across q-degrees, as a
    QSeries at x's order: `BiSeries.coeff` at each q-power, so a slice
    whose window stops below aux^e raises WindowUnderflow."""
    return QSeries(x.order, [x.coeff(b, e) for b in range(x.order + 1)])


def fp_series_by_d_chain(tables, base, p, shift):
    """F_p by the chain D^0(base), ..., D^p(base): the sum of
    ct[p,l,beta1] q^beta1 aux^e D^l(base) with e = l + nu*beta1 - p
    (w presentation, shift = -1) or -e (hbar, shift = +1).  A term's
    window is its chain window moved by e; a slice's window is the least
    over its terms (fully known when it has none)."""
    nu, order = tables.md.nu, base.order
    chain = [([dict(s.items()) for s in base.slices], list(base.his))]
    for _ in range(p):
        chain.append(_d_step(*chain[-1], shift))
    acc = [{} for _ in range(order + 1)]
    his = [INF_EXP] * (order + 1)
    for beta1 in range(min(order, p // nu) + 1):
        for l in range(p - nu * beta1 + 1):
            ct = Fraction(*tables.ct_entry(p, l, beta1))
            if ct == 0:
                continue
            e = l + nu * beta1 - p
            if shift == 1:
                e = -e
            slices, hs = chain[l]
            for b in range(order + 1 - beta1):
                t = acc[b + beta1]
                for x, c in slices[b].items():
                    t[x + e] = t.get(x + e, Fraction(0)) + ct * c
                his[b + beta1] = min(his[b + beta1], hs[b] + e)
    return BiSeries([_laurent(s, h) for s, h in zip(acc, his)], his)


def ct_polynomial(tables, order, p, sign):
    """sum over beta, l of ct[p,l,beta] q^beta aux^{sign*(p-nu*beta-l)}
    (sign=+1 is the hbar presentation, sign=-1 the w presentation),
    placed entry by entry: the reference for F_p of the unit series."""
    nu = tables.md.nu
    slices = [LaurentPoly.zero() for _ in range(order + 1)]
    for beta in range(min(order, p // nu) + 1):
        vals = {}
        for l in range(p - nu * beta + 1):
            ct = Fraction(*tables.ct_entry(p, l, beta))
            if ct != 0:
                vals[sign * (p - nu * beta - l)] = ct
        if vals:
            lo = min(vals)
            width = max(vals) - lo + 1
            coeffs = [vals.get(lo + i, Fraction(0)) for i in range(width)]
            slices[beta] = LaurentPoly(lo, coeffs)
    return BiSeries(slices)


def power(base, e, cap):
    """base**e by repeated `poly_mul`, up to exponent cap."""
    out = [1]
    for _ in range(e):
        out = poly_mul(out, base, cap)
    return out


def f_slice_oracle(md, beta, cap, tilde=False):
    """prod_k prod_i (i + d_k w) / prod_j ((w + j)^n - [tilde] w^n) up to
    w^cap, every factor multiplied out plainly in integers."""
    num = [1]
    for d in md.degrees:
        for i in range(1, d * beta + 1):
            num = poly_mul(num, [i, d], cap)
    den = [1]
    for j in range(1, beta + 1):
        factor = power([j, 1], md.n, md.n)
        if tilde:
            factor[md.n] -= 1
        den = poly_mul(den, factor, cap)
    return long_division(num, den, cap)


def ftilde_hbar_slice_oracle(md, beta, cap):
    """prod_k prod_i (d_k + i hbar) / prod_j (((1 + j hbar)^n - 1)/hbar)
    up to hbar^cap, every factor multiplied out plainly."""
    num = [Fraction(1)]
    for d in md.degrees:
        for i in range(1, d * beta + 1):
            num = poly_mul(num, [Fraction(d), Fraction(i)], cap)
    den = [Fraction(1)]
    for j in range(1, beta + 1):
        den = poly_mul(den, power([Fraction(1), Fraction(j)], md.n, md.n)[1:],
                       cap)
    return long_division(num, den, cap)


def u1_degree1_hypersurface(d):
    """U1 at beta = 1 on a hypersurface of degree d: the r = 1
    specialization of `sums.u1_degree1_lemma`."""
    return -Fraction((d - 1) * (d - 2) * (3 * d - 1) * d ** (d - 1), 24)


def d_power_tables(nu, p):
    """A stand-in for CoeffTables with ct[p,l,beta] = 1 exactly when
    l = p and beta = 0: F_p over these tables is D^p(base)."""
    def ct_row(pp, beta):
        return LaurentPoly(p, (int(pp == p and beta == 0),))

    return SimpleNamespace(
        md=SimpleNamespace(nu=nu),
        ct_entry=lambda pp, l, beta: (int(l == pp == p and beta == 0), 1),
        ct_row=ct_row,
        shifted_row=lambda pp, beta, s: poly_shift(ct_row(pp, beta), s))


def q_shift(series, k):
    """q^k times series, at its order, on its Fraction coefficient list."""
    return QSeries(series.order, [Fraction(0)] * k + list(series.coeffs))


def q_derivative(series):
    """q d/dq of series, at its order, on its Fraction coefficient list:
    q^k goes to k q^k, so the q^0 term is 0."""
    return QSeries(series.order, [k * c for k, c in enumerate(series.coeffs)])


def ct_l_sum(ctx, p, idx_drop, powfn, weightfn):
    """sum over beta (with e = p - nu*beta) of
    ct[p, e - idx_drop, beta] * weightfn(e) * q^beta * L^powfn(e),
    one `QSeries.pow` and `q_shift` per term."""
    md, L = ctx.md, ctx.L()
    out = QSeries.zero(ctx.order)
    for beta in range(min(ctx.order, p // md.nu) + 1):
        e = p - md.nu * beta
        if e - idx_drop < 0:
            continue
        ct = Fraction(*ctx.tables.ct_entry(p, e - idx_drop, beta))
        wgt = Fraction(weightfn(e))
        if ct == 0 or wgt == 0:
            continue
        term = L.pow(powfn(e)) * (ct * wgt)
        out = out + q_shift(term, beta)
    return out


def phi1_two_powers(md, L, y, X):
    """Phi1 = L^((r-1)/2) y^(-1/2) (lead (L - 1) + y^-3 bracket / (24 t n^3))
    with X = L^n, written with both powers L^((r-1)/2) and L^((r+1)/2):
    L^((r-1)/2) bracket is one Horner form in X whose coefficients mix
    the two, and y^(-7/2) is y^(-1/2) y^-3."""
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
    Lm, Lp = L.pow(Fraction(r - 1, 2)), L.pow(Fraction(r + 1, 2))
    bracket_Lm = c[0] * Lp + X * (c[1] * Lm + c[2] * Lp + X * (
        c[3] * Lm + c[4] * Lp + X * (c[5] * Lm + c[6] * Lp)))
    return y.pow(Fraction(-1, 2)) * (
        lead * (Lp - Lm) + y.pow(-3) * bracket_Lm * Fraction(1, 24 * t * n**3))


def theta_lemma_reference(ctx, p, level):
    """Theta^{(level)}_p written out from the Theta lemma on the ct-L
    sums: Phi0 s0, or Phi0 s1 + Phi1 s0 + q Phi0' s2 + q L' Phi0 s3,
    each q d/dq taken on a coefficient list (`q_derivative`)."""
    s, phi0 = ctx.ct_sums(p), ctx.phi0()
    if level == 0:
        return phi0 * s.s0
    return (phi0 * s.s1 + ctx.phi1() * s.s0 + q_derivative(phi0) * s.s2
            + q_derivative(ctx.L()) * phi0 * s.s3)


def a_by_theta_products(ctx):
    """A(q) as the sum of whole Theta^{(1)}_{p1} Theta^{(0)}_{p2}
    products over both blocks of the Theta pairing."""
    total = QSeries.zero(ctx.order)
    for block in ctx.md.theta_pairs():
        for p1, p2 in block:
            total = total + (theta_lemma_reference(ctx, p1, 1)
                             * theta_lemma_reference(ctx, p2, 0))
    return total


def f_w_whole(md, order, hi):
    """F(w, q) built whole, every slice q^0..q^order at window hi, past
    any context's tables: w^{nu*beta} in front of slice beta of
    `tables.slice_chain`, run at the one cap hi."""
    nu = md.nu
    slices = slice_chain(md, order + 1, hi)
    return BiSeries([s.shift(nu * beta) for beta, s in enumerate(slices)],
                    [hi] * (order + 1))


def f_w_cut(md, order, his):
    """F(w, q) built whole (`f_w_whole`) at the widest window in his,
    then slice k cut at his[k] and the slices above len(his) dropped."""
    wide = f_w_whole(md, order, max(his))
    return BiSeries(wide.slices[: len(his)], his)


def ct_sums_by_terms(ctx, p):
    """The four sums of `FanoContext.ct_sums`, in its field order, each
    built term by term with `ct_l_sum`."""
    return (ct_l_sum(ctx, p, 0, lambda e: e, lambda e: 1),
            ct_l_sum(ctx, p, 1, lambda e: e - 1, lambda e: 1),
            ct_l_sum(ctx, p, 0, lambda e: e - 1, lambda e: e),
            ct_l_sum(ctx, p, 0, lambda e: e - 2, lambda e: comb(e, 2)))


def n24_block_reference(ctx, p):
    """The whole n/24 block of insertion power p as a q-series, in
    difference form: the two ct-L sums at L = 1 built as whole sums
    (`ct_l_sum`), the Phi0 row divided by Phi0 as a series, and each
    q d/dq taken on a coefficient list (`q_derivative`)."""
    md = ctx.md
    e2 = Fraction(md.n - 1, 2) - md.inv_degree_sum()
    s, phi0 = ctx.ct_sums(p), ctx.phi0()
    s0_at_1 = ct_l_sum(ctx, p, 0, lambda e: 0, lambda e: 1)
    s1_at_1 = ct_l_sum(ctx, p, 1, lambda e: 0, lambda e: 1)
    return (-e2 * (s.s0 - s0_at_1)
            - q_derivative(ctx.L()) * s.s3
            - q_derivative(phi0) * s.s2 / phi0
            - (s.s1 - s1_at_1))


def _ct_or_zero(tables, p, l, beta):
    if p < 0 or l < 0:
        return Fraction(0)
    top = p - tables.md.nu * beta
    if top < 0 or l > top:
        return Fraction(0)
    return Fraction(*tables.ct_entry(p, l, beta))


def _u_sum(tables, beta, second_drop, weight):
    md = tables.md
    total = Fraction(0)
    for p in range(md.n - md.r):
        pp = md.n - 1 - md.r - p
        for b1 in range(beta + 1):
            b2 = beta - b1
            left = _ct_or_zero(tables, pp, pp - md.nu * b1, b1)
            if left == 0:
                continue
            right = _ct_or_zero(tables, p, p - md.nu * b2 - second_drop, b2)
            if right == 0:
                continue
            total += left * right * weight(p, b1, b2)
    return total


def _v_sum(tables, beta, second_drop, weight):
    md = tables.md
    total = Fraction(0)
    for p in range(1, md.r + 1):
        left_p = md.n - 1 - md.r + p
        right_p = md.n - p
        for b1 in range(beta + 1):
            b2 = beta - b1
            left = _ct_or_zero(tables, left_p, left_p - md.nu * b1, b1)
            if left == 0:
                continue
            right = _ct_or_zero(tables, right_p,
                                right_p - md.nu * b2 - second_drop, b2)
            if right == 0:
                continue
            total += left * right * weight(p, b1, b2)
    return total


def structure_sums_reference(tables, beta):
    """The ten fields of `sums.SumValues` (bar md and beta), each by its
    own weighted double loop: U over p in 0..n-r-1 paired with
    n-1-r-p, V over n-p paired with n-1-r+p for p in 1..r."""
    md, nu = tables.md, tables.md.nu
    one = lambda p, b1, b2: 1
    u_e1 = lambda p, b1, b2: p - nu * b2
    v_e1 = lambda p, b1, b2: md.n - p - nu * b2
    return {
        "u1": _u_sum(tables, beta, 1, one),
        "u2": _u_sum(tables, beta, 0, one),
        "u3": _u_sum(tables, beta, 0, lambda p, b1, b2:
                     u_e1(p, b1, b2) * (md.n - 1 - md.r - p - nu * b1)),
        "v1": _v_sum(tables, beta, 1, one),
        "v2": _v_sum(tables, beta, 0, one),
        "v3": _v_sum(tables, beta, 0, lambda p, b1, b2:
                     (md.n - 1 - md.r + p - nu * b1) * v_e1(p, b1, b2)),
        "u_linear": _u_sum(tables, beta, 0, u_e1),
        "u_binomial": _u_sum(tables, beta, 0, lambda p, b1, b2:
                             comb(u_e1(p, b1, b2), 2)
                             if u_e1(p, b1, b2) >= 2 else 0),
        "v_linear": _v_sum(tables, beta, 0, v_e1),
        "v_binomial": _v_sum(tables, beta, 0, lambda p, b1, b2:
                             comb(v_e1(p, b1, b2), 2)
                             if v_e1(p, b1, b2) >= 2 else 0),
    }


def log_by_mercator(f):
    """log F = sum_k (-1)^(k+1) (F - 1)^k / k over k <= order, one full
    BiSeries product per power (F's q^0 slice is 1)."""
    t = f - bi_one(f.order)
    out = BiSeries([LaurentPoly.zero()] * (f.order + 1))
    tk = bi_one(f.order)
    for k in range(1, f.order + 1):
        tk = tk * t
        c = Fraction((-1) ** (k + 1), k)
        out = out + BiSeries([s * c for s in tk.slices], tk.his)
    return out


def pairing_by_terms(x1, x2, order):
    """sum over b1 + b2 = beta and j >= 0 of
    (-1)^j x1[b1, aux^(j+1)] x2[b2, aux^(-j)], coefficient by
    coefficient: the aux^1 coefficient of x1(aux) x2(-aux) with x2 cut
    to aux^{<=0}."""
    coeffs = []
    for btot in range(order + 1):
        total = Fraction(0)
        for b1 in range(btot + 1):
            b2 = btot - b1
            s2 = x2.slice(b2)
            if not s2.nums:
                continue
            for j in range(0, -s2.lo + 1):
                c2 = x2.coeff(b2, -j)
                if c2 != 0:
                    total += (-1) ** j * x1.coeff(b1, j + 1) * c2
        coeffs.append(total)
    return QSeries(order, coeffs)


def a_double_residue_by_terms(ctx):
    """A(q) as the double residue, each Theta pair summed by
    `pairing_by_terms`."""
    ft = ftilde_hbar(ctx.md, ctx.order, 2 * ctx.order + 3)
    pairs = [pq for block in ctx.md.theta_pairs() for pq in block]
    xs = {p: ctx.exp_neg_mu() * fp_series(ctx.tables, ft, p, +1)
          for p in {p for pq in pairs for p in pq}}
    total = QSeries.zero(ctx.order)
    for p1, p2 in pairs:
        total = total + pairing_by_terms(xs[p1], xs[p2], ctx.order)
    return total


def residue_against_g_by_terms(md, series):
    """Res_{h=0} G(h) series(h) slice by slice, as the sum of
    G[e] series[-1 - e] over the exponents e of G; a slice window below
    1 is refused."""
    depth = max((-s.lo for s in series.slices if s.nums), default=0)
    g = g_terms(md, depth - 1)
    out = []
    for beta in range(series.order + 1):
        if series.his[beta] < 1:
            raise ValueError("series window too small for the G residue")
        total = Fraction(0)
        for e, c in g.items():
            total += c * series.coeff(beta, -1 - e)
        out.append(total)
    return QSeries(series.order, out)


def type_b_poly_parts_by_unit_series(ctx, b):
    """The polynomial part of the residue at h = 0 that
    `invariants.n24_by_residue` subtracts, read off F_p of the unit
    series `bi_one(b)` (D^l 1 = 1): the G residue of 1 - F_p(1/hbar) at
    q^b, by `residue_against_g_by_terms`."""
    md = ctx.md
    one = bi_one(b)
    return residue_against_g_by_terms(
        md, one - fp_series(ctx.tables, one, 1 + md.nu * b, +1)).coeff(b)


def f_bracket_reference(ctx, p):
    """The whole F-bracket (1+w)^n (F_0 - F_p) / (F_0 prod(1 + d_k w))
    at the context's q-order, every slice up to its window, on F built
    whole (`f_w_whole`; its windows pass the context's tables): the
    product `front * (F_0 - F_p) * F_0.inv()` that the invariant rows
    read one coefficient of."""
    md = ctx.md
    hi = md.n - md.r + p
    f0 = f_w_whole(md, ctx.order, hi)
    front = BiSeries([LaurentPoly(0, chern_series(md.n, md.degrees, hi))]
                     + [LaurentPoly.zero()] * ctx.order,
                     [hi] + [INF_EXP] * ctx.order)
    return front * (f0 - fp_series(ctx.tables, f0, p, -1)) * f0.inv()
