"""Exact truncated power series and windowed Laurent series over Q.

There are no floats and no rounding anywhere.  A polynomial is stored
in the exact kernel's own form: its lowest exponent, a tuple of integer
numerators and one positive common denominator, kept canonical (no
zero margins, and the numerators share no factor with the denominator),
so equal polynomials are equal triples.  Reads -- `coeff`, `items`,
`coeffs`, `repr` -- build `fractions.Fraction`s when called; arithmetic
never does.  Truncation orders and exponent windows are explicit
constructor data, never global state.  A coefficient is only reported
when it is provably exact: reading past a window raises WindowUnderflow
instead of returning a silent zero.

Three types:

* LaurentPoly -- a Laurent polynomial in one variable, the kernel's
  form itself.
* QSeries -- univariate power series in q, truncated at an explicit
  order B (coefficients of q^{B+1} and beyond are unknown): a
  LaurentPoly with exponents 0..B.
* BiSeries -- series in q whose q^beta coefficients are Laurent
  polynomials in one auxiliary variable (w or hbar).  Each slice carries
  its window: the largest auxiliary exponent that is exactly known, or
  INF_EXP (math.inf) for a fully known slice, which adding a finite
  exponent leaves fixed.  Products and inverses take their windows
  from one rule, `product_window`: u known up to u_hi times v known up
  to v_hi is known up to min(u_hi + lowest(v), v_hi + lowest(u)), a
  slice that is zero up to its window having lowest exponent
  window + 1.
  BiSeries.inv inverts a series whose q^0 slice is a unit (nonzero at
  aux^0, nothing below) and raises NotInvertible on any other; it reads
  its input's window, and a fully known q^0 slice has an infinite
  inverse and raises WindowUnderflow.

All three are built on one exact kernel that takes and returns
LaurentPolys: poly_mul (capped product), poly_div (capped quotient by a
unit), poly_pow (rational power of a unit), poly_shift (Taylor shift
a(x) -> a(x + s)) and linear_product (of int factors a + b*x), plus
sum_of_products, the sum of products of Laurent slices kept in a band
of exponents lo..h.  sum_of_products is the kernel's one accumulation
loop: a sum (`LaurentPoly.__add__`) is the sum of its terms' products
with 1.  Every other module uses the kernel instead of its own loops.
The band [e, e] reads one coefficient, one integer dot product per
pair: BiSeries.mul_coeff(other, b, e) is (self * other).coeff(b, e),
window and WindowUnderflow included, without the rest of the
product, mul_coeff_of_aux(other, e) is that read at every q-power, and
QSeries.mul_coeff(other, k) is (self * other).coeff(k);
BiSeries.truncate keeps the first slices, an exact prefix of every
sum, product and inverse.  poly_pow
needs no log or exp: g = a**alpha solves a g' = alpha a' g, which
fixes each coefficient of g from the lower ones in one short sum.
No BiSeries log is kept either: with D = q d/dq, D log F = (D F) F^-1
is a product and an inverse (`hyper.mu_by_residue`).
The kernel loops on the stored numerators and brings each result to
canonical form with one gcd over its numerators; rationals from outside
(Fraction or int lists) are lifted to that form once, by `_lift`, when
a LaurentPoly or QSeries is constructed.

Everything is immutable; operations are pure functions, safe to share
across threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm, perm
from operator import index, mul
from typing import Iterable

Rat = Fraction

#: the window of a slice known exactly at every exponent, and the cap
#: that keeps a whole product: adding a finite exponent leaves it fixed
INF_EXP = inf


class ZeroConstantTerm(ArithmeticError):
    """Division by, or a power of, a series with constant term 0."""


class BadConstantTerm(ArithmeticError):
    """A fractional power of a series whose constant term is not 1."""


class NotInvertible(ArithmeticError):
    """BiSeries whose q^0 slice is not a unit."""


class WindowUnderflow(ArithmeticError):
    """A coefficient outside the exact window was requested."""


_set = object.__setattr__


def _lift(xs) -> tuple[list, int]:
    """(numerators, d) with xs[k] == numerators[k] / d, d the lcm of the
    denominators (ints count as denominator 1)."""
    d = lcm(*[x.denominator for x in xs])
    return [x.numerator * (d // x.denominator) for x in xs], d


def _canon(lo: int, nums, den: int) -> tuple[int, tuple, int]:
    """lo, nums/den in canonical form: zero margins trimmed (zero is
    (0, (), 1)), the numerators over a positive denominator they share
    no factor with."""
    i, j = 0, len(nums)
    while i < j and not nums[i]:
        i += 1
    while j > i and not nums[j - 1]:
        j -= 1
    if i == j:
        return 0, (), 1
    nums = nums[i:j]
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        nums = [x // g for x in nums]
        den //= g
    return lo + i, tuple(nums), den


# ---------------------------------------------------------------------------
# Laurent polynomials: the kernel's form


class LaurentPoly:
    """Laurent polynomial in one variable: the numerators `nums` of the
    exponents lo, lo+1, ... over the positive denominator `den`, in
    canonical form.  Standalone instances are complete objects; inside
    a BiSeries the enclosing window says how far up the slice is
    exact."""

    __slots__ = ("lo", "nums", "den")

    def __init__(self, lo: int, coeffs: Iterable = ()):
        """The rationals (ints or Fractions) `coeffs` at exponents lo,
        lo+1, ..."""
        for name, value in zip(self.__slots__, _canon(lo, *_lift(list(coeffs)))):
            _set(self, name, value)

    @staticmethod
    def from_ints(lo: int, nums, den: int = 1) -> "LaurentPoly":
        """The integers `nums` over `den` (nonzero, any sign) at
        exponents lo, lo+1, ..."""
        return _raw(*_canon(lo, nums, den))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @staticmethod
    def zero() -> "LaurentPoly":
        return _ZERO

    @property
    def hi(self) -> int:
        """Largest exponent with a stored coefficient (lo-1 when zero)."""
        return self.lo + len(self.nums) - 1

    @property
    def coeffs(self) -> tuple:
        """The coefficients of exponents lo..hi, as Fractions built on
        each read."""
        d = self.den
        return tuple(Fraction(c, d) for c in self.nums)

    def is_zero(self) -> bool:
        return not self.nums

    def coeff(self, e: int) -> Rat:
        if self.lo <= e <= self.hi:
            return Fraction(self.nums[e - self.lo], self.den)
        return Fraction(0)

    def items(self):
        for e, c in enumerate(self.nums, self.lo):
            if c:
                yield e, Fraction(c, self.den)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not self.nums:
            return other
        if not other.nums:
            return self
        return sum_of_products(((self, _ONE), (other, _ONE)))

    def __neg__(self) -> "LaurentPoly":
        return _raw(self.lo, tuple(-c for c in self.nums), self.den)

    def __mul__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):  # an int or Fraction
            return LaurentPoly.from_ints(
                self.lo, [other.numerator * c for c in self.nums],
                other.denominator * self.den)
        return poly_mul(self, other)

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by aux^k (any sign)."""
        return _raw(self.lo + k, self.nums, self.den) if self.nums else self

    def cut_above(self, hi: int) -> "LaurentPoly":
        """Drop all exponents above hi."""
        if self.hi <= hi:
            return self
        n = hi - self.lo + 1
        return LaurentPoly.from_ints(self.lo, self.nums[:n], self.den) \
            if n > 0 else _ZERO

    def __eq__(self, other) -> bool:
        return (isinstance(other, LaurentPoly) and self.lo == other.lo
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self):
        return hash((self.lo, self.nums, self.den))

    def __repr__(self) -> str:
        terms = ", ".join(f"{e}: {c}" for e, c in self.items()) or "0"
        return f"LaurentPoly{{{terms}}}"


def _raw(lo: int, nums: tuple, den: int) -> LaurentPoly:
    """A LaurentPoly from a triple already in canonical form."""
    p = object.__new__(LaurentPoly)
    _set(p, "lo", lo)
    _set(p, "nums", nums)
    _set(p, "den", den)
    return p


_ZERO = _raw(0, (), 1)
_ONE = _raw(0, (1,), 1)


# ---------------------------------------------------------------------------
# the exact kernel: LaurentPolys in, LaurentPolys out, integer loops


def sum_of_products(pairs, h=INF_EXP, lo=-INF_EXP) -> LaurentPoly:
    """sum of u * v over (u, v) pairs of LaurentPolys, keeping only the
    exponents lo..h (the defaults keep them all; lo = h reads one
    coefficient, one dot product per pair): one schoolbook loop over
    the numerators, accumulated on one common denominator.  It is the
    kernel's one accumulation loop: a sum of polynomials is their
    products with 1."""
    terms = []  # (lowest exponent, first and last+1 index kept, numerators, den)
    for u, v in pairs:
        a, b = u.nums, v.nums
        if a and b:
            t_lo = u.lo + v.lo
            n = min(len(a) + len(b) - 1, h - t_lo + 1)
            m = max(lo - t_lo, 0)
            if n > m:
                terms.append((t_lo, m, n, a, b, u.den * v.den))
    if not terms:
        return _ZERO
    base = min([t[0] + t[1] for t in terms])
    d = lcm(*[t[5] for t in terms])
    acc = [0] * (max([t[0] + t[2] for t in terms]) - base)
    for t_lo, m, n, a, b, t_d in terms:
        s, k0 = d // t_d, t_lo - base
        if n - m == 1:  # one coefficient: a dot product, summed in C
            i0, i1 = max(m - len(b) + 1, 0), min(len(a), n)
            acc[k0 + m] += s * sum(map(mul, a[i0:i1],
                                       reversed(b[m - i1 + 1:m - i0 + 1])))
            continue
        for i in range(max(m - len(b) + 1, 0), min(len(a), n)):
            x = a[i]
            if x:
                if s != 1:
                    x *= s
                j0 = m - i if m > i else 0
                for j, y in enumerate(b[j0: n - i], k0 + i + j0):
                    acc[j] += x * y
    return LaurentPoly.from_ints(base, acc, d)


def poly_mul(a: LaurentPoly, b: LaurentPoly, cap=INF_EXP) -> LaurentPoly:
    """a * b without the exponents above `cap` (INF_EXP keeps the whole
    product)."""
    return sum_of_products(((a, b),), cap)


def poly_div(num: LaurentPoly, den: LaurentPoly, cap: int) -> LaurentPoly:
    """num / den up to exponent cap, for den(0) != 0 (den.lo == 0).

    With num = x^lo N/e and den = g*A/d for int lists N, A (A primitive,
    A(0) > 0), the quotient is x^lo d/(e*g) * N/A, and
    c[m] = A(0)^(m+1) [x^m] N/A is an integer:
    c[m] = A(0)^m N(m) - sum_k A(k) A(0)^(k-1) c[m-k].  Over the common
    denominator e*g*A(0)^(M+1), M = cap - lo, the numerator of x^(lo+m)
    is d c[m] A(0)^(M-m)."""
    if not den.nums or den.lo != 0:
        raise ZeroConstantTerm("cannot divide by a series with constant term 0")
    top = cap - num.lo
    if top < 0 or not num.nums:
        return _ZERO
    na = den.nums[: top + 1]
    g = gcd(*na)
    if na[0] < 0:
        g = -g
    a0 = na[0] // g
    scaled, p = [], 1  # A(k) A(0)^(k-1), for k = 1..len-1
    for x in na[1:]:
        scaled.append(x // g * p)
        p *= a0
    nn = list(num.nums[: top + 1])
    nn += [0] * (top + 1 - len(nn))
    c, p = [], 1  # p = A(0)^m
    for m in range(top + 1):
        s = nn[m] * p
        for k, x in enumerate(scaled[:m], 1):
            if x:
                s -= x * c[m - k]
        c.append(s)
        p *= a0
    t = den.den  # d A(0)^(M-m)
    for m in range(top, -1, -1):
        c[m] *= t
        t *= a0
    return LaurentPoly.from_ints(num.lo, c, num.den * g * p)


def poly_pow(a: LaurentPoly, alpha, cap: int) -> LaurentPoly:
    """a**alpha up to exponent cap, for rational alpha (int or Fraction)
    and a(0) != 0; a fractional alpha needs a(0) = 1.

    g = a**alpha solves a g' = alpha a' g, that is

        k a(0) g[k] = sum_{j=1..k} ((alpha + 1) j - k) a[j] g[k-j].

    With a = A/d for an int list A (d cancels) and alpha = u/v, the
    integers H[k] = g[k]/g[0] * k! (v A(0))^k obey
    H[k] = sum_j ((u + v) j - v k) A(j) (v A(0))^(j-1) (k-1)!/(k-j)! H[k-j];
    over the common denominator M! (v A(0))^M, M = cap, the numerator of
    g[k]/g[0] is H[k] M!/k! (v A(0))^(M-k)."""
    if not a.nums or a.lo != 0:
        raise ZeroConstantTerm("cannot raise a series with a(0) = 0 to a power")
    u, v = alpha.numerator, alpha.denominator
    if v != 1 and a.nums[0] != a.den:
        raise BadConstantTerm("fractional power needs constant term 1")
    if cap < 0:
        return _ZERO
    # g[0] = a(0)**u when alpha is an int, else 1
    g0n, g0d = (a.nums[0], a.den) if u >= 0 else (a.den, a.nums[0])
    g0n, g0d = (g0n ** abs(u), g0d ** abs(u)) if v == 1 else (1, 1)
    na = a.nums[: cap + 1]
    va0 = v * na[0]
    scaled, p = [], 1  # A(j) (v A(0))^(j-1), for j = 1..len-1
    for x in na[1:]:
        scaled.append(x * p)
        p *= va0
    h = []
    for k in range(cap + 1):
        s = 0 if k else 1
        for j, x in enumerate(scaled[:k], 1):
            if x:
                s += ((u + v) * j - v * k) * x * perm(k - 1, j - 1) * h[k - j]
        h.append(s)
    t = 1  # M!/k! (v A(0))^(M-k)
    for k in range(cap, -1, -1):
        h[k] *= g0n * t
        if k:
            t *= k * va0
    return LaurentPoly.from_ints(0, h, g0d * t)


def poly_shift(a: LaurentPoly, s: int) -> LaurentPoly:
    """a(x + s) for a polynomial a (no negative exponent) and an int s:
    repeated synthetic division by x - s, in place on the numerators of
    a.  Pass i leaves c[i] as the x^i coefficient of a(x + s)."""
    if not a.nums:
        return _ZERO
    if a.lo < 0:
        raise ValueError("Taylor shift of a polynomial with negative exponents")
    c = [0] * a.lo + list(a.nums)
    m = len(c) - 1
    for i in range(m):
        for j in range(m - 1, i - 1, -1):
            c[j] += s * c[j + 1]
    return LaurentPoly.from_ints(0, c, a.den)


def linear_product(pairs, cap=INF_EXP) -> LaurentPoly:
    """prod (a + b*x) over (a, b) pairs of ints, without the exponents
    above cap; a non-integral a or b raises TypeError."""
    p = [1]
    for a, b in pairs:
        na, nb = index(a), index(b)
        n = max(min(len(p) + 1, cap + 1), 0)
        q = [na * x for x in p[:n]]
        if n > len(p):
            q.append(0)
        for k in range(1, n):
            q[k] += nb * p[k - 1]
        p = q
    return LaurentPoly.from_ints(0, p)


# ---------------------------------------------------------------------------
# univariate power series


class QSeries:
    """Power series in q with exact rational coefficients, truncated at
    an explicit order: `poly` holds the known coefficients, exponents 0
    to `order`.  Binary operations truncate at the smaller order of the
    two operands."""

    __slots__ = ("order", "poly")

    def __init__(self, order: int, coeffs: Iterable = ()):
        """The rationals `coeffs` at q^0, q^1, ..., cut at `order`."""
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        _set(self, "order", order)
        _set(self, "poly", LaurentPoly(0, list(coeffs)[: order + 1]))

    @staticmethod
    def from_poly(order: int, poly: LaurentPoly) -> "QSeries":
        """poly, which has no negative exponent, cut at `order`."""
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        if poly.lo < 0:
            raise ValueError("a power series has no negative exponents")
        s = object.__new__(QSeries)
        _set(s, "order", order)
        _set(s, "poly", poly.cut_above(order))
        return s

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("QSeries is immutable")

    # -- construction helpers

    @staticmethod
    def zero(order: int) -> "QSeries":
        return QSeries.from_poly(order, _ZERO)

    @staticmethod
    def one(order: int) -> "QSeries":
        return QSeries.from_poly(order, _ONE)

    @staticmethod
    def q(order: int) -> "QSeries":
        return QSeries.from_poly(order, _ONE.shift(1))

    # -- basic queries

    @property
    def coeffs(self) -> tuple:
        """The coefficients of q^0..q^order, as Fractions built on each
        read."""
        return tuple(self.poly.coeff(k) for k in range(self.order + 1))

    def coeff(self, k: int) -> Rat:
        """Coefficient of q^k; k beyond the truncation order is unknown."""
        if k > self.order:
            raise WindowUnderflow(
                f"coefficient of q^{k} unknown at truncation order {self.order}")
        return self.poly.coeff(k)

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def matches(self, other: "QSeries") -> bool:
        """Exact equality on the common truncation order."""
        b = min(self.order, other.order)
        return self.poly.cut_above(b) == other.poly.cut_above(b)

    # -- ring operations

    def __add__(self, other) -> "QSeries":
        if not isinstance(other, QSeries):  # an int or Fraction
            return QSeries.from_poly(self.order, self.poly + _ONE * other)
        return QSeries.from_poly(min(self.order, other.order),
                                 self.poly + other.poly)

    __radd__ = __add__

    def __neg__(self) -> "QSeries":
        return QSeries.from_poly(self.order, -self.poly)

    def __sub__(self, other) -> "QSeries":
        return self + -other

    def __mul__(self, other) -> "QSeries":
        if not isinstance(other, QSeries):
            return QSeries.from_poly(self.order, self.poly * other)
        b = min(self.order, other.order)
        return QSeries.from_poly(b, poly_mul(self.poly, other.poly, b))

    __rmul__ = __mul__

    def mul_coeff(self, other: "QSeries", k: int) -> Rat:
        """(self * other).coeff(k), with the same WindowUnderflow past
        the smaller order: the product read in the band [k, k] only."""
        b = min(self.order, other.order)
        if k > b:
            raise WindowUnderflow(
                f"coefficient of q^{k} unknown at truncation order {b}")
        return sum_of_products(((self.poly, other.poly),), k, k).coeff(k)

    def __truediv__(self, other: "QSeries") -> "QSeries":
        """Quotient; the divisor needs a nonzero constant term."""
        b = min(self.order, other.order)
        return QSeries.from_poly(b, poly_div(self.poly, other.poly, b))

    def __eq__(self, other) -> bool:
        return (isinstance(other, QSeries) and self.order == other.order
                and self.poly == other.poly)

    def __hash__(self):
        return hash((self.order, self.poly))

    def __repr__(self) -> str:
        return f"QSeries({self.order}, {list(self.coeffs)!r})"

    # -- series-specific operations

    def euler(self) -> "QSeries":
        """D = q d/dq, which multiplies q^k by k: the order is kept, and
        the q^0 term is a known 0."""
        p = self.poly
        return QSeries.from_poly(self.order, LaurentPoly.from_ints(
            p.lo, [e * c for e, c in enumerate(p.nums, p.lo)], p.den))

    def pow(self, alpha) -> "QSeries":
        """self**alpha for rational alpha: needs a nonzero constant term,
        and constant term 1 when alpha is fractional."""
        return QSeries.from_poly(self.order,
                                 poly_pow(self.poly, alpha, self.order))


# ---------------------------------------------------------------------------
# bivariate series: q-power series of Laurent slices


def product_window(u: LaurentPoly, u_hi, v: LaurentPoly, v_hi):
    """The exact window of u * v for u known up to u_hi and v up to
    v_hi.  A slice that is zero up to its window has lowest exponent
    window + 1 (INF_EXP when fully known)."""
    return min(u_hi + (v.lo if v.nums else v_hi + 1),
               v_hi + (u.lo if u.nums else u_hi + 1))


def _check_window(beta: int, e: int, hi) -> None:
    """WindowUnderflow unless aux^e of slice beta, known up to hi, is
    known."""
    if e > hi:
        raise WindowUnderflow(
            f"aux^{e} of q^{beta} slice outside exact window (hi={hi})")


def _convolve_slices(terms, lo=-INF_EXP, hi=INF_EXP) -> tuple[LaurentPoly, int]:
    """sum of u * v over (u, u_hi, v, v_hi) terms, kept in lo..hi, with
    its exact window: the least `product_window` of the terms, fixed
    first to cap every product."""
    terms = list(terms)
    h = INF_EXP
    for t in terms:
        h = min(h, product_window(*t))
    return sum_of_products(((u, v) for u, _, v, _ in terms), min(h, hi), lo), h


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

    @property
    def order(self) -> int:
        return len(self.slices) - 1

    def slice(self, beta: int) -> LaurentPoly:
        if not 0 <= beta <= self.order:
            raise WindowUnderflow(f"q^{beta} slice beyond truncation order {self.order}")
        return self.slices[beta]

    def coeff(self, beta: int, e: int) -> Rat:
        """Exact coefficient of q^beta aux^e."""
        s = self.slice(beta)
        _check_window(beta, e, self.his[beta])
        return s.coeff(e)

    def cut(self, his) -> "BiSeries":
        """The first len(his) slices, slice k cut at aux^his[k]: exact,
        as `truncate` says.  A window past slice k's own, or more slices
        than the series holds, raises WindowUnderflow."""
        if len(his) > len(self.his):
            raise WindowUnderflow(f"cannot extend truncation order "
                                  f"{self.order} to {len(his) - 1}")
        for k, (h, known) in enumerate(zip(his, self.his)):
            _check_window(k, h, known)
        return BiSeries(self.slices[: len(his)], his)

    def truncate(self, order: int) -> "BiSeries":
        """The slices q^0..q^order with their windows (`cut`): exact,
        since slice b of a sum, product, inverse or `hyper.fp_series`
        reads only slices <= b."""
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        past = (INF_EXP,) * (order - self.order)  # more than self holds
        return self.cut(self.his[: order + 1] + past)

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

    def _product_terms(self, other: "BiSeries", b: int):
        """The (u, u_hi, v, v_hi) terms of slice b of self * other."""
        return ((self.slices[b1], self.his[b1],
                 other.slices[b - b1], other.his[b - b1])
                for b1 in range(b + 1))

    def __mul__(self, other: "BiSeries") -> "BiSeries":
        sl, hs = [], []
        for b in range(min(self.order, other.order) + 1):
            acc, h = _convolve_slices(self._product_terms(other, b))
            sl.append(acc)
            hs.append(h)
        return BiSeries(sl, hs)

    def _band(self, other: "BiSeries", b: int, e: int) -> LaurentPoly:
        """Slice b of self * other read in the band [e, e], or
        WindowUnderflow when aux^e is past its window."""
        c, h = _convolve_slices(self._product_terms(other, b), e, e)
        _check_window(b, e, h)
        return c

    def mul_coeff(self, other: "BiSeries", b: int, e: int) -> Rat:
        """(self * other).coeff(b, e), with the same window and the same
        WindowUnderflow: slice b of the product read in the band [e, e]
        only."""
        n = min(self.order, other.order)
        if not 0 <= b <= n:
            raise WindowUnderflow(f"q^{b} slice beyond truncation order {n}")
        return self._band(other, b, e).coeff(e)

    def mul_coeff_of_aux(self, other: "BiSeries", e: int) -> QSeries:
        """The aux^e coefficients of self * other across q-powers, as a
        QSeries: the band [e, e] of each q-power, moved to q^b and summed
        on the stored integers."""
        n = min(self.order, other.order)
        return QSeries.from_poly(n, sum_of_products(
            (self._band(other, b, e).shift(b - e), _ONE)
            for b in range(n + 1)))

    def inv(self) -> "BiSeries":
        """Inverse of a series whose q^0 slice is a unit: nonzero at
        aux^0 and nothing below, else NotInvertible.  The windows follow
        from the input's by `product_window`; a fully known q^0 slice
        has an infinite inverse, so it raises WindowUnderflow."""
        s0, top0 = self.slices[0], self.his[0]
        if s0.is_zero() or s0.lo != 0:
            raise NotInvertible("q^0 slice is not a unit within its window")
        if top0 == INF_EXP:
            raise WindowUnderflow("the inverse of a fully known q^0 slice "
                                  "has no window")
        inv0 = poly_div(_ONE, s0, top0)
        out_sl = [inv0]
        out_hs = [top0]
        for b in range(1, self.order + 1):
            acc, h = _convolve_slices(
                (self.slices[j], self.his[j], out_sl[b - j], out_hs[b - j])
                for j in range(1, b + 1))
            h = product_window(acc, h, inv0, top0)
            out_sl.append(sum_of_products([(-acc, inv0)], h))
            out_hs.append(h)
        return BiSeries(out_sl, out_hs)

    def __eq__(self, other) -> bool:
        return (isinstance(other, BiSeries)
                and self.slices == other.slices and self.his == other.his)

    def __hash__(self):
        return hash((self.slices, self.his))

    def __repr__(self) -> str:
        rows = "; ".join(f"q^{b}: {s!r}" for b, s in enumerate(self.slices))
        return f"BiSeries[{rows}]"
