"""Independent oracles used by the tests, and the one corruption hook.

The oracles deliberately avoid the library's own code paths: plain list
arithmetic on Fractions, long division, fixpoint iteration.  Expected
values asserted in the tests were computed with these and frozen.
"""

from fractions import Fraction
from math import prod

from fanogw.series import QSeries


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
    from math import comb
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
