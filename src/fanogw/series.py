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
  the largest auxiliary exponent that is exactly known; multiplication
  narrows these bounds conservatively.

Both are built on one exact kernel over plain coefficient lists:
poly_mul (truncated product), poly_inv (unit inverse) and
linear_product.  Every other module uses it instead of its own loops.
The kernel computes on integer numerators over one common denominator
and returns lowest-term Fractions: one normalisation per output
coefficient, not one per term.

Everything is immutable; operations are pure functions, safe to share
across threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

Rat = Fraction

#: sentinel: "this slice is known exactly at every exponent"
INF_EXP = 10**9


class ZeroConstantTerm(ArithmeticError):
    """Inversion of a power series with vanishing constant term."""


class BadConstantTerm(ArithmeticError):
    """log/pow need constant term 1; exp needs constant term 0."""


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


def _product_length(a, b, cap: int | None) -> int:
    n = len(a) + len(b) - 1 if a and b else 0
    return n if cap is None else max(min(n, cap + 1), 0)


def poly_mul(a, b, cap: int | None = None) -> list:
    """Product of two coefficient lists, without the exponents above
    `cap` (None keeps the whole product)."""
    n = _product_length(a, b, cap)
    if not n:
        return []
    na, da = _lift(a[:n])
    nb, db = _lift(b[:n])
    d = da * db
    return [Fraction(c, d) for c in _int_mul(na, nb, n)]


def poly_inv(a, cap: int) -> list:
    """Inverse of a coefficient list with a(0) != 0, up to exponent cap.

    With a = g*A/d for a primitive int list A, the inverse is d/(g*A),
    and c[m] = A(0)^(m+1) [x^m] 1/A is an integer:
    c[0] = 1, c[m] = -sum_k A(k) A(0)^(k-1) c[m-k]."""
    if not a or a[0] == 0:
        raise ZeroConstantTerm("cannot invert a series with a(0) = 0")
    if cap < 0:
        return []
    na, d = _lift(a[: cap + 1])
    g = gcd(*na)
    a0 = na[0] // g
    # A(k) * A(0)^(k-1), for k = 1..len-1
    scaled, p = [], 1
    for x in na[1:]:
        scaled.append(x // g * p)
        p *= a0
    c = [1]
    for m in range(1, cap + 1):
        s = 0
        for k, x in enumerate(scaled[:m], 1):
            if x:
                s += x * c[m - k]
        c.append(-s)
    out, p = [], g * a0
    for x in c:
        out.append(Fraction(d * x, p))
        p *= a0
    return out


def linear_product(pairs, cap: int | None = None) -> list:
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
        cs = [_rat(c) for c in coeffs][: order + 1]
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

    def __rsub__(self, other) -> "QSeries":
        return (-self) + other

    def __mul__(self, other) -> "QSeries":
        if not isinstance(other, QSeries):
            c = _rat(other)
            return QSeries(self.order, [c * x for x in self.coeffs])
        b = min(self.order, other.order)
        return QSeries(b, poly_mul(self.coeffs, other.coeffs, b))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, QSeries) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"QSeries({self.order}, {list(self.coeffs)!r})"

    # -- series-specific operations

    def inv(self) -> "QSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        return QSeries(self.order, poly_inv(self.coeffs, self.order))

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

    def log(self) -> "QSeries":
        if self.coeffs[0] != 1:
            raise BadConstantTerm("log needs constant term 1")
        t = self - 1  # valuation >= 1, so powers terminate
        out = QSeries.zero(self.order)
        tk = QSeries.one(self.order)
        for k in range(1, self.order + 1):
            tk = tk * t
            out = out + tk * Fraction((-1) ** (k + 1), k)
        return out

    def exp(self) -> "QSeries":
        if self.coeffs[0] != 0:
            raise BadConstantTerm("exp needs constant term 0")
        out = QSeries.one(self.order)
        tk = QSeries.one(self.order)
        fact = 1
        for k in range(1, self.order + 1):
            tk = tk * self
            fact *= k
            out = out + tk * Fraction(1, fact)
        return out

    def pow(self, alpha) -> "QSeries":
        """self**alpha.  Integer alpha needs only an invertible constant
        term (for alpha < 0); fractional alpha needs constant term 1 and
        goes through exp(alpha*log)."""
        a = _rat(alpha)
        if a.denominator == 1:
            return self._int_pow(a.numerator)
        if self.coeffs[0] != 1:
            raise BadConstantTerm("fractional power needs constant term 1")
        return (self.log() * a).exp()

    def __pow__(self, alpha) -> "QSeries":
        return self.pow(alpha)

    def _int_pow(self, e: int) -> "QSeries":
        base = self.inv() if e < 0 else self
        e = abs(e)
        out = QSeries.one(self.order)
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out


# ---------------------------------------------------------------------------
# Laurent polynomials (single q-degree slices)


class LaurentPoly:
    """Laurent polynomial in one variable: exponents below `lo` are
    exactly zero.  Standalone instances are complete objects; inside a
    BiSeries the enclosing window says how far up the slice is exact."""

    __slots__ = ("lo", "coeffs")

    def __init__(self, lo: int, coeffs: Iterable = ()):
        cs = [_rat(c) for c in coeffs]
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

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

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


def _slice_support_lo(poly: LaurentPoly, hi: int) -> int:
    # certified lower bound on the true support: everything <= hi is known
    s = poly.support_lo()
    return s if s is not None else (hi + 1 if hi < INF_EXP else INF_EXP)


def _sum_of_products(pairs, h: int) -> LaurentPoly:
    """sum of u * v over (u, v) pairs, without the exponents above h
    (INF_EXP keeps them all), added up on one common denominator."""
    parts = []  # (lowest exponent, int coefficients, denominator)
    for u, v in pairs:
        lo = u.lo + v.lo
        n = _product_length(u.coeffs, v.coeffs,
                            None if h >= INF_EXP else h - lo)
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
    """sum of u * v over (u, u_hi, v, v_hi) terms, with its exact window.
    The window depends only on the operands' windows and lowest
    exponents, so it is fixed first and caps every product."""
    terms = list(terms)
    h = INF_EXP
    for u, u_h, v, v_h in terms:
        h = min(h, u_h + _slice_support_lo(v, v_h),
                v_h + _slice_support_lo(u, u_h))
    return _sum_of_products(((u, v) for u, _, v, _ in terms), h), h


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

    @staticmethod
    def zero(order: int) -> "BiSeries":
        return BiSeries([LaurentPoly.zero()] * (order + 1))

    @property
    def order(self) -> int:
        return len(self.slices) - 1

    def slice(self, beta: int) -> LaurentPoly:
        if not 0 <= beta <= self.order:
            raise WindowUnderflow(f"q^{beta} slice beyond truncation order {self.order}")
        return self.slices[beta]

    def slice_hi(self, beta: int) -> int:
        return self.his[beta]

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

    def truncate(self, order: int) -> "BiSeries":
        if order > self.order:
            raise WindowUnderflow(
                f"cannot extend q-order {self.order} to {order}")
        return BiSeries(self.slices[: order + 1], self.his[: order + 1])

    # -- arithmetic

    def __add__(self, other) -> "BiSeries":
        if not isinstance(other, BiSeries):
            other = BiSeries.one(self.order) * _rat(other)
        n = min(self.order, other.order)
        sl = [self.slices[b] + other.slices[b] for b in range(n + 1)]
        hs = [min(self.his[b], other.his[b]) for b in range(n + 1)]
        return BiSeries(sl, hs)

    __radd__ = __add__

    def __neg__(self) -> "BiSeries":
        return BiSeries([-s for s in self.slices], self.his)

    def __sub__(self, other) -> "BiSeries":
        return self + (-other if isinstance(other, BiSeries) else -_rat(other))

    def __rsub__(self, other) -> "BiSeries":
        return (-self) + other

    def scale(self, c) -> "BiSeries":
        return BiSeries([s * c for s in self.slices], self.his)

    def shift_aux(self, k: int) -> "BiSeries":
        his = [h if h >= INF_EXP else h + k for h in self.his]
        return BiSeries([s.shift(k) for s in self.slices], his)

    def shift_q(self, k: int) -> "BiSeries":
        """Multiply by q^k; the new low slices are exactly zero."""
        if k < 0:
            raise ValueError("shift exponent must be >= 0")
        sl = [LaurentPoly.zero()] * k + list(self.slices)
        hs = [INF_EXP] * k + list(self.his)
        return BiSeries(sl, hs)

    def __mul__(self, other) -> "BiSeries":
        if not isinstance(other, BiSeries):
            return self.scale(other)
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

    __rmul__ = __mul__

    def inv(self, hi: int | None = None) -> "BiSeries":
        """Inverse of a series whose q^0 slice is a monomial times a
        unit; the monomial is factored out, per the exact-window rules.

        `hi` requests the exact window of the result; it is mandatory
        when the input is fully known (the inverse expansion is infinite
        and must be bounded somewhere)."""
        s0 = self.slices[0]
        m = s0.support_lo()
        if m is None:
            raise NotInvertible("q^0 slice is zero within its window")
        a = self.shift_aux(-m) if m else self  # unit at exponent 0
        cap = None if hi is None else hi + m
        top0 = a.his[0] if cap is None else min(a.his[0], cap)
        if top0 >= INF_EXP:
            raise WindowUnderflow(
                "inverting a fully-known series needs an explicit window")
        inv0 = LaurentPoly(0, poly_inv(a.slices[0].coeffs, top0))
        out_sl = [inv0]
        out_hs = [top0]
        for b in range(1, self.order + 1):
            acc, h = _convolve_slices(
                (a.slices[j], a.his[j], out_sl[b - j], out_hs[b - j])
                for j in range(1, b + 1))
            h = min(h, h + _slice_support_lo(inv0, top0),
                    top0 + _slice_support_lo(acc, h))
            if cap is not None:
                h = min(h, cap)
            out_sl.append(_sum_of_products([(-acc, inv0)], h))
            out_hs.append(h)
        res = BiSeries(out_sl, out_hs)
        return res.shift_aux(-m) if m else res

    def apply_D(self, shift: int) -> "BiSeries":
        """The operator 1 + aux^shift * q d/dq (shift = -1 in the w
        presentation, +1 in the hbar presentation)."""
        sl, hs = [self.slices[0]], [self.his[0]]
        for b in range(1, self.order + 1):
            extra = self.slices[b].shift(shift) * b
            sl.append(self.slices[b] + extra)
            h = self.his[b]
            if h < INF_EXP:
                h = min(h, h + shift)
            hs.append(h)
        return BiSeries(sl, hs)

    def log(self) -> "BiSeries":
        """log of a series with q^0 slice exactly 1."""
        s0 = self.slices[0]
        if not (s0.coeffs == (Fraction(1),) and s0.lo == 0):
            raise BadConstantTerm("BiSeries log needs q^0 slice 1")
        t = self - BiSeries.one(self.order)
        out = BiSeries.zero(self.order)
        tk = BiSeries.one(self.order)
        for k in range(1, self.order + 1):
            tk = tk * t
            out = out + tk.scale(Fraction((-1) ** (k + 1), k))
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, BiSeries)
                and self.slices == other.slices and self.his == other.his)

    def __hash__(self):
        return hash((self.slices, self.his))

    def __repr__(self) -> str:
        rows = "; ".join(f"q^{b}: {s!r}" for b, s in enumerate(self.slices))
        return f"BiSeries[{rows}]"
