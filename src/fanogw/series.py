"""Exact truncated power series and windowed Laurent series over Q.

All coefficients are `fractions.Fraction`; there are no floats and no
rounding anywhere.  Truncation orders and exponent windows are explicit
constructor data, never global state.  A coefficient is only reported
when it is provably exact: reading past a window raises WindowUnderflow
instead of returning a silent zero.

Two series types:

* QSeries -- univariate power series in q, truncated at an explicit
  order B (coefficients of q^{B+1} and beyond are unknown).
* BiSeries -- series in q whose q^beta coefficients are Laurent
  polynomials in one auxiliary variable (w or hbar).  Each slice carries
  its window: the largest auxiliary exponent that is exactly known, or
  INF_EXP (math.inf) for a fully known slice, which adding a finite
  exponent leaves fixed.  Products, inverses and logs take their windows
  from one rule, `_window`: u known up to u_hi times v known up to v_hi
  is known up to min(u_hi + lowest(v), v_hi + lowest(u)), a slice that
  is zero up to its window having lowest exponent window + 1.
  BiSeries.inv reads its input's window; a fully known q^0 slice has an
  infinite inverse and raises WindowUnderflow.

Both are built on one exact kernel over plain coefficient lists:
poly_mul (truncated product), poly_div (truncated quotient by a unit),
poly_pow (rational power of a unit), poly_shift (Taylor shift
a(x) -> a(x + s)) and linear_product, plus sum_of_products, the capped
sum of products of Laurent slices.  Every other module uses it instead
of its own loops.  poly_pow needs no log or exp: g = a**alpha solves
a g' = alpha a' g, which fixes each coefficient of g from the lower
ones in one short sum.  BiSeries.log is one slice recurrence too, from
D(log F) F = D F.  The kernel computes on integer numerators over one
common denominator and returns lowest-term Fractions: one
normalisation per output coefficient, not one per term.

Everything is immutable; operations are pure functions, safe to share
across threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm, perm
from typing import Iterable

Rat = Fraction

#: the window of a slice known exactly at every exponent, and the cap
#: that keeps a whole product: adding a finite exponent leaves it fixed
INF_EXP = inf


class ZeroConstantTerm(ArithmeticError):
    """Division by, or a power of, a series with constant term 0."""


class BadConstantTerm(ArithmeticError):
    """A fractional power of a series whose constant term is not 1, or
    a BiSeries log whose q^0 slice is not 1."""


class NotInvertible(ArithmeticError):
    """BiSeries whose q^0 slice is not a unit (times a monomial)."""


class WindowUnderflow(ArithmeticError):
    """A coefficient outside the exact window was requested."""


def _rat(x) -> Rat:
    return x if isinstance(x, Fraction) else Fraction(x)


# ---------------------------------------------------------------------------
# the exact kernel: coefficient lists indexed by exponent, starting at 0


def _lift(xs) -> tuple[list, int]:
    """(numerators, d) with xs[k] == numerators[k] / d, d the lcm of the
    denominators (ints count as denominator 1)."""
    d = lcm(*[x.denominator for x in xs])
    return [x.numerator * (d // x.denominator) for x in xs], d


def _int_mul(a: list, b: list, n: int) -> list:
    """The first n coefficients of the product of two int lists."""
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[: n - i], i):
                out[j] += x * y
    return out


def _product_length(a, b, cap) -> int:
    n = len(a) + len(b) - 1 if a and b else 0
    return max(min(n, cap + 1), 0)


def poly_mul(a, b, cap=INF_EXP) -> list:
    """Product of two coefficient lists, without the exponents above
    `cap` (INF_EXP keeps the whole product)."""
    n = _product_length(a, b, cap)
    if not n:
        return []
    na, da = _lift(a[:n])
    nb, db = _lift(b[:n])
    d = da * db
    return [Fraction(c, d) for c in _int_mul(na, nb, n)]


def poly_div(num, den, cap: int) -> list:
    """num / den up to exponent cap (cap + 1 coefficients), den(0) != 0.

    With num = N/e and den = g*A/d for int lists N, A (A primitive), the
    quotient is d/(e*g) * N/A, and c[m] = A(0)^(m+1) [x^m] N/A is an
    integer:  c[m] = A(0)^m N(m) - sum_k A(k) A(0)^(k-1) c[m-k]."""
    if not den or den[0] == 0:
        raise ZeroConstantTerm("cannot divide by a series with constant term 0")
    na, d = _lift(den[: max(cap, 0) + 1])
    nn, e = _lift(num[: cap + 1])
    nn += [0] * (cap + 1 - len(nn))
    g = gcd(*na)
    a0 = na[0] // g
    scaled, p = [], 1  # A(k) A(0)^(k-1), for k = 1..len-1
    for x in na[1:]:
        scaled.append(x // g * p)
        p *= a0
    c, out, p = [], [], 1  # p = A(0)^m
    for m in range(cap + 1):
        s = nn[m] * p
        for k, x in enumerate(scaled[:m], 1):
            if x:
                s -= x * c[m - k]
        c.append(s)
        out.append(Fraction(d * s, e * g * a0 * p))
        p *= a0
    return out


def poly_pow(a, alpha, cap: int) -> list:
    """a**alpha up to exponent cap (cap + 1 coefficients), for rational
    alpha and a(0) != 0; a fractional alpha needs a(0) = 1.

    g = a**alpha solves a g' = alpha a' g, that is

        k a(0) g[k] = sum_{j=1..k} ((alpha + 1) j - k) a[j] g[k-j].

    With a = A/d for an int list A (d cancels) and alpha = u/v, the
    integers H[k] = g[k]/g[0] * k! (v A(0))^k obey
    H[k] = sum_j ((u + v) j - v k) A(j) (v A(0))^(j-1) (k-1)!/(k-j)! H[k-j]."""
    if not a or a[0] == 0:
        raise ZeroConstantTerm("cannot raise a series with a(0) = 0 to a power")
    alpha = _rat(alpha)
    u, v = alpha.numerator, alpha.denominator
    if v != 1 and a[0] != 1:
        raise BadConstantTerm("fractional power needs constant term 1")
    g0 = _rat(a[0]) ** u if v == 1 else Fraction(1)
    na, _ = _lift(a[: max(cap, 0) + 1])
    va0 = v * na[0]
    scaled, p = [], 1  # A(j) (v A(0))^(j-1), for j = 1..len-1
    for x in na[1:]:
        scaled.append(x * p)
        p *= va0
    h, out, p = [], [], g0.denominator  # p = g0.denominator * k! (v A(0))^k
    for k in range(cap + 1):
        s = 0 if k else 1
        for j, x in enumerate(scaled[:k], 1):
            if x:
                s += ((u + v) * j - v * k) * x * perm(k - 1, j - 1) * h[k - j]
        h.append(s)
        out.append(Fraction(g0.numerator * s, p))
        p *= (k + 1) * va0
    return out


def poly_shift(a, s: int) -> list:
    """The coefficients of a(x + s) for an int s: Horner's rule
    a(x + s) = (...(a[m] (x + s) + a[m-1]) (x + s) + ...) + a[0] on the
    integer numerators of a."""
    if not a:
        return []
    na, d = _lift(a)
    out = []
    for c in reversed(na):
        out = [s * x + y for x, y in zip(out + [0], [0] + out)]
        out[0] += c
    return [Fraction(c, d) for c in out]


def linear_product(pairs, cap=INF_EXP) -> list:
    """prod (a + b*x) over (a, b) pairs, without the exponents above cap."""
    p, den = [1], 1
    for a, b in pairs:
        (na, nb), d = _lift((a, b))
        den *= d
        n = _product_length(p, (na, nb), cap)
        q = [na * x for x in p[:n]]
        if n > len(p):
            q.append(0)
        for k in range(1, n):
            q[k] += nb * p[k - 1]
        p = q
    return [Fraction(x, den) for x in p]


# ---------------------------------------------------------------------------
# univariate power series


class QSeries:
    """Power series in q with exact rational coefficients, truncated at
    an explicit order.  Binary operations truncate at the smaller order
    of the two operands."""

    __slots__ = ("coeffs",)

    def __init__(self, order: int, coeffs: Iterable = ()):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        cs = [c if c.__class__ is Fraction else Fraction(c)
              for c in coeffs][: order + 1]
        cs.extend(Fraction(0) for _ in range(order + 1 - len(cs)))
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("QSeries is immutable")

    # -- construction helpers

    @staticmethod
    def zero(order: int) -> "QSeries":
        return QSeries(order)

    @staticmethod
    def one(order: int) -> "QSeries":
        return QSeries(order, (1,))

    @staticmethod
    def q(order: int) -> "QSeries":
        return QSeries(order, (0, 1))

    # -- basic queries

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> Rat:
        """Coefficient of q^k; k beyond the truncation order is unknown."""
        if k < 0:
            return Fraction(0)
        if k > self.order:
            raise WindowUnderflow(
                f"coefficient of q^{k} unknown at truncation order {self.order}")
        return self.coeffs[k]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def matches(self, other: "QSeries") -> bool:
        """Exact equality on the common truncation order."""
        b = min(self.order, other.order)
        return self.coeffs[: b + 1] == other.coeffs[: b + 1]

    def truncate(self, order: int) -> "QSeries":
        if order > self.order:
            raise WindowUnderflow(
                f"cannot extend truncation order {self.order} to {order}")
        return QSeries(order, self.coeffs)

    # -- ring operations

    def __add__(self, other) -> "QSeries":
        if not isinstance(other, QSeries):
            return QSeries(self.order,
                           (self.coeffs[0] + _rat(other),) + self.coeffs[1:])
        b = min(self.order, other.order)
        return QSeries(b, [x + y for x, y in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self) -> "QSeries":
        return QSeries(self.order, [-x for x in self.coeffs])

    def __sub__(self, other) -> "QSeries":
        return self + (-other if isinstance(other, QSeries) else -_rat(other))

    def __mul__(self, other) -> "QSeries":
        if not isinstance(other, QSeries):
            c = _rat(other)
            return QSeries(self.order, [c * x for x in self.coeffs])
        b = min(self.order, other.order)
        return QSeries(b, poly_mul(self.coeffs, other.coeffs, b))

    __rmul__ = __mul__

    def __truediv__(self, other: "QSeries") -> "QSeries":
        """Quotient; the divisor needs a nonzero constant term."""
        b = min(self.order, other.order)
        return QSeries(b, poly_div(self.coeffs, other.coeffs, b))

    def __eq__(self, other) -> bool:
        return isinstance(other, QSeries) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"QSeries({self.order}, {list(self.coeffs)!r})"

    # -- series-specific operations

    def inv(self) -> "QSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        return QSeries(self.order, poly_div([1], self.coeffs, self.order))

    def deriv(self) -> "QSeries":
        """d/dq; the truncation order drops by one (floored at 0)."""
        if self.order == 0:
            return QSeries(0)
        return QSeries(self.order - 1,
                       [(k + 1) * c for k, c in enumerate(self.coeffs[1:])])

    def shift(self, k: int) -> "QSeries":
        """Multiply by q^k (k >= 0); known order grows by k."""
        if k < 0:
            raise ValueError("shift exponent must be >= 0")
        return QSeries(self.order + k, (0,) * k + self.coeffs)

    def pow(self, alpha) -> "QSeries":
        """self**alpha for rational alpha: needs a nonzero constant term,
        and constant term 1 when alpha is fractional."""
        return QSeries(self.order, poly_pow(self.coeffs, alpha, self.order))


# ---------------------------------------------------------------------------
# Laurent polynomials (single q-degree slices)


class LaurentPoly:
    """Laurent polynomial in one variable: exponents below `lo` are
    exactly zero.  Standalone instances are complete objects; inside a
    BiSeries the enclosing window says how far up the slice is exact."""

    __slots__ = ("lo", "coeffs")

    def __init__(self, lo: int, coeffs: Iterable = ()):
        cs = [c if c.__class__ is Fraction else Fraction(c) for c in coeffs]
        # trim zero margins so `lo` doubles as a tight support bound
        while cs and cs[0] == 0:
            cs.pop(0)
            lo += 1
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "lo", lo if cs else 0)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly(0, ())

    @property
    def hi(self) -> int:
        """Largest exponent with a stored coefficient (lo-1 when zero)."""
        return self.lo + len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def support_lo(self) -> int | None:
        return self.lo if self.coeffs else None

    def coeff(self, e: int) -> Rat:
        if self.lo <= e <= self.hi:
            return self.coeffs[e - self.lo]
        return Fraction(0)

    def items(self):
        for i, c in enumerate(self.coeffs):
            if c != 0:
                yield self.lo + i, c

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        return LaurentPoly(lo, [self.coeff(e) + other.coeff(e)
                                for e in range(lo, hi + 1)])

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.lo, [-c for c in self.coeffs])

    def __mul__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            c = _rat(other)
            if c == 0:
                return LaurentPoly.zero()
            return LaurentPoly(self.lo, [c * x for x in self.coeffs])
        return LaurentPoly(self.lo + other.lo,
                           poly_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by aux^k (any sign)."""
        return LaurentPoly(self.lo + k, self.coeffs)

    def cut_above(self, hi: int) -> "LaurentPoly":
        """Drop all exponents above hi."""
        if self.hi <= hi:
            return self
        n = hi - self.lo + 1
        return LaurentPoly(self.lo, self.coeffs[:n]) if n > 0 else LaurentPoly.zero()

    def __eq__(self, other) -> bool:
        return (isinstance(other, LaurentPoly)
                and self.lo == other.lo and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.lo, self.coeffs))

    def __repr__(self) -> str:
        terms = ", ".join(f"{e}: {c}" for e, c in self.items()) or "0"
        return f"LaurentPoly{{{terms}}}"


# ---------------------------------------------------------------------------
# bivariate series: q-power series of Laurent slices


def _window(u: LaurentPoly, u_hi, v: LaurentPoly, v_hi):
    """The exact window of u * v for u known up to u_hi and v up to
    v_hi.  A slice that is zero up to its window has lowest exponent
    window + 1 (INF_EXP when fully known)."""
    return min(u_hi + (v.lo if v.coeffs else v_hi + 1),
               v_hi + (u.lo if u.coeffs else u_hi + 1))


def sum_of_products(pairs, h) -> LaurentPoly:
    """sum of u * v over (u, v) pairs of LaurentPolys, without the
    exponents above h (INF_EXP keeps them all), added up on one common
    denominator: one Fraction per output coefficient."""
    parts = []  # (lowest exponent, int coefficients, denominator)
    for u, v in pairs:
        lo = u.lo + v.lo
        n = _product_length(u.coeffs, v.coeffs, h - lo)
        if n:
            nu, du = _lift(u.coeffs[:n])
            nv, dv = _lift(v.coeffs[:n])
            parts.append((lo, _int_mul(nu, nv, n), du * dv))
    if not parts:
        return LaurentPoly.zero()
    lo = min(p[0] for p in parts)
    d = lcm(*[p[2] for p in parts])
    acc = [0] * (max(p[0] + len(p[1]) for p in parts) - lo)
    for p_lo, cs, p_d in parts:
        s = d // p_d
        for k, c in enumerate(cs, p_lo - lo):
            acc[k] += c * s
    return LaurentPoly(lo, [Fraction(c, d) for c in acc])


def _convolve_slices(terms) -> tuple[LaurentPoly, int]:
    """sum of u * v over (u, u_hi, v, v_hi) terms, with its exact window:
    the least `_window` of the terms, fixed first to cap every product."""
    terms = list(terms)
    h = INF_EXP
    for t in terms:
        h = min(h, _window(*t))
    return sum_of_products(((u, v) for u, _, v, _ in terms), h), h


class BiSeries:
    """Truncated series in q whose q^beta coefficient is a Laurent
    polynomial in the auxiliary variable.  `his[beta]` is the largest
    auxiliary exponent at which slice beta is exactly known (INF_EXP for
    completely known slices); reads above it raise WindowUnderflow."""

    __slots__ = ("slices", "his")

    def __init__(self, slices: Iterable[LaurentPoly], his: Iterable[int] | None = None):
        sl = tuple(slices)
        if not sl:
            raise ValueError("need at least the q^0 slice")
        if his is None:
            hs = tuple(INF_EXP for _ in sl)
        else:
            hs = tuple(his)
        if len(hs) != len(sl):
            raise ValueError("slice/window length mismatch")
        cut = []
        for p, h in zip(sl, hs):
            cut.append(p if h >= p.hi else p.cut_above(h))
        object.__setattr__(self, "slices", tuple(cut))
        object.__setattr__(self, "his", hs)

    def __setattr__(self, name, value):
        raise AttributeError("BiSeries is immutable")

    @staticmethod
    def one(order: int) -> "BiSeries":
        return BiSeries([LaurentPoly(0, (1,))] + [LaurentPoly.zero()] * order)

    @property
    def order(self) -> int:
        return len(self.slices) - 1

    def slice(self, beta: int) -> LaurentPoly:
        if not 0 <= beta <= self.order:
            raise WindowUnderflow(f"q^{beta} slice beyond truncation order {self.order}")
        return self.slices[beta]

    def coeff(self, beta: int, e: int) -> Rat:
        """Exact coefficient of q^beta aux^e."""
        if e > self.his[beta]:
            raise WindowUnderflow(
                f"aux^{e} of q^{beta} slice outside exact window (hi={self.his[beta]})")
        return self.slice(beta).coeff(e)

    def coeff_of_aux(self, e: int) -> QSeries:
        """The QSeries of aux^e coefficients across q-degrees."""
        return QSeries(self.order, [self.coeff(b, e) for b in range(self.order + 1)])

    def residue(self) -> QSeries:
        """Coefficient of aux^{-1} across q-degrees."""
        return self.coeff_of_aux(-1)

    # -- arithmetic

    def __add__(self, other: "BiSeries") -> "BiSeries":
        n = min(self.order, other.order)
        sl = [self.slices[b] + other.slices[b] for b in range(n + 1)]
        hs = [min(self.his[b], other.his[b]) for b in range(n + 1)]
        return BiSeries(sl, hs)

    def __neg__(self) -> "BiSeries":
        return BiSeries([-s for s in self.slices], self.his)

    def __sub__(self, other: "BiSeries") -> "BiSeries":
        return self + -other

    def shift_aux(self, k: int) -> "BiSeries":
        return BiSeries([s.shift(k) for s in self.slices],
                        [h + k for h in self.his])

    def __mul__(self, other: "BiSeries") -> "BiSeries":
        n = min(self.order, other.order)
        sl, hs = [], []
        for b in range(n + 1):
            acc, h = _convolve_slices(
                (self.slices[b1], self.his[b1],
                 other.slices[b - b1], other.his[b - b1])
                for b1 in range(b + 1))
            sl.append(acc)
            hs.append(h)
        return BiSeries(sl, hs)

    def inv(self) -> "BiSeries":
        """Inverse of a series whose q^0 slice is a monomial times a
        unit; the monomial is factored out.  The windows follow from the
        input's by `_window`; a fully known q^0 slice has an infinite
        inverse, so it raises WindowUnderflow."""
        s0 = self.slices[0]
        if s0.is_zero():
            raise NotInvertible("q^0 slice is zero within its window")
        m = s0.lo
        a = self.shift_aux(-m) if m else self  # unit at exponent 0
        top0 = a.his[0]
        if top0 == INF_EXP:
            raise WindowUnderflow("the inverse of a fully known q^0 slice "
                                  "has no window")
        inv0 = LaurentPoly(0, poly_div([1], a.slices[0].coeffs, top0))
        out_sl = [inv0]
        out_hs = [top0]
        for b in range(1, self.order + 1):
            acc, h = _convolve_slices(
                (a.slices[j], a.his[j], out_sl[b - j], out_hs[b - j])
                for j in range(1, b + 1))
            h = _window(acc, h, inv0, top0)
            out_sl.append(sum_of_products([(-acc, inv0)], h))
            out_hs.append(h)
        res = BiSeries(out_sl, out_hs)
        return res.shift_aux(-m) if m else res

    def log(self) -> "BiSeries":
        """log of a series F with q^0 slice 1.  With D = q d/dq,
        D(log F) F = D F: the slices m_b = b l_b of D log F solve
        m_b = b f_b - sum_{0<k<b} m_k f_{b-k}.  f_0 = 1 is known up to
        his[0] only, which bounds each window as in `inv`."""
        f, fh = self.slices, self.his
        if not (f[0].coeffs == (Fraction(1),) and f[0].lo == 0):
            raise BadConstantTerm("BiSeries log needs q^0 slice 1")
        neg = [-s for s in f]
        m, mh = [LaurentPoly.zero()], [fh[0]]  # l_0 = 0 as far as f_0 = 1
        for b in range(1, self.order + 1):
            acc, h = _convolve_slices(
                [(LaurentPoly(0, (b,)), INF_EXP, f[b], fh[b])]
                + [(m[k], mh[k], neg[b - k], fh[b - k]) for k in range(1, b)])
            m.append(acc)
            mh.append(_window(acc, h, f[0], fh[0]))
        return BiSeries([m[0]] + [m[b] * Fraction(1, b) for b in range(1, len(m))],
                        mh)

    def __eq__(self, other) -> bool:
        return (isinstance(other, BiSeries)
                and self.slices == other.slices and self.his == other.his)

    def __hash__(self):
        return hash((self.slices, self.his))

    def __repr__(self) -> str:
        rows = "; ".join(f"q^{b}: {s!r}" for b, s in enumerate(self.slices))
        return f"BiSeries[{rows}]"
