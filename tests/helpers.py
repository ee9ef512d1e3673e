"""Independent oracles used by the tests, and the one corruption hook.

The oracles deliberately avoid the library's own code paths: plain list
arithmetic on Fractions, long division, fixpoint iteration.  Expected
values asserted in the tests were computed with these and frozen.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, prod
from types import SimpleNamespace

from fanogw.geometry import MultiDegree
from fanogw.series import INF_EXP, BiSeries, LaurentPoly, QSeries


def poly_mul(a, b, cap):
    out = [Fraction(0)] * (cap + 1)
    for i, x in enumerate(a[: cap + 1]):
        if x == 0:
            continue
        for j, y in enumerate(b[: cap + 1 - i]):
            if y != 0:
                out[i + j] += x * y
    return out


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


def chern_value_oracle(n, degrees):
    """-(prod d / 24) [h^{dim-1}] (1+h)^n / prod(1+d h) via long
    division."""
    dim = n - 1 - len(degrees)
    cap = dim - 1
    num = [Fraction(comb(n, j)) for j in range(min(n, cap) + 1)]
    den = [Fraction(1)]
    for d in degrees:
        den = poly_mul(den, [Fraction(1), Fraction(d)], cap)
    series = long_division(num, den, cap)
    return -Fraction(prod(degrees), 24) * series[cap]


def corrupt_ctilde(monkeypatch, tables, p, l, beta):
    """Bump the entry ct[p, l, beta] of `tables` by 1 for one test, to
    show that the consistency checks bite."""
    row = list(tables._ct[(p, beta)])
    row[l] += 1
    monkeypatch.setitem(tables._ct, (p, beta), tuple(row))


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
            if h < INF_EXP:
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
            ct = tables.ctilde(p, l, beta1)
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
                if hs[b] < INF_EXP:
                    his[b + beta1] = min(his[b + beta1], hs[b] + e)
    return BiSeries([_laurent(s, h) for s, h in zip(acc, his)], his)


def d_power_tables(nu, p):
    """A stand-in for CoeffTables with ct[p,l,beta] = 1 exactly when
    l = p and beta = 0: F_p over these tables is D^p(base)."""
    return SimpleNamespace(
        md=SimpleNamespace(nu=nu),
        ctilde=lambda pp, l, beta: Fraction(int(l == pp == p and beta == 0)))


def ct_l_sum(ctx, p, idx_drop, powfn, weightfn, qshift=0):
    """sum over beta (with e = p - nu*beta) of
    ct[p, e - idx_drop, beta] * weightfn(e) * q^(beta + qshift) * L^powfn(e),
    one `QSeries.pow`, `shift` and `truncate` per term."""
    md, L = ctx.md, ctx.L()
    out = QSeries.zero(ctx.order)
    for beta in range(min(ctx.order, p // md.nu) + 1):
        e = p - md.nu * beta
        if e - idx_drop < 0:
            continue
        ct = ctx.tables.ctilde(p, e - idx_drop, beta)
        wgt = Fraction(weightfn(e))
        if ct == 0 or wgt == 0:
            continue
        term = L.pow(powfn(e)) * (ct * wgt)
        out = out + term.shift(beta + qshift).truncate(ctx.order)
    return out


def ct_sums_by_terms(ctx, p):
    """The six sums of `FanoContext.ct_sums`, in its field order, each
    built term by term with `ct_l_sum`."""
    return (ct_l_sum(ctx, p, 0, lambda e: e, lambda e: 1),
            ct_l_sum(ctx, p, 1, lambda e: e - 1, lambda e: 1),
            ct_l_sum(ctx, p, 0, lambda e: e - 1, lambda e: e, qshift=1),
            ct_l_sum(ctx, p, 0, lambda e: e - 2, lambda e: comb(e, 2),
                     qshift=1),
            ct_l_sum(ctx, p, 0, lambda e: 0, lambda e: 1),
            ct_l_sum(ctx, p, 1, lambda e: 0, lambda e: 1))
