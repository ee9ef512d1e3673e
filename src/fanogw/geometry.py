"""The geometry: a Fano complete intersection in projective space and
the handful of integer constants every formula is built from."""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod
from operator import index


def _integer(value, name: str) -> int:
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, not {value!r}") from None


class MultiDegree:
    """A smooth complete intersection of hypersurfaces of the given
    degrees in P^{n-1}.  Degrees are normalized (sorted); all formulas
    are symmetric in them.  r (the number of degrees), total (their
    sum) and nu (the Fano index n - total) are stored once.

    Rejects a non-integral n or degree (a float, Fraction or str is not
    truncated), projective space itself (no degrees), non-Fano input
    (index <= 0), linear factors (d < 2) and dimension < 1.
    """

    __slots__ = ("n", "degrees", "r", "total", "nu")

    def __init__(self, n: int, degrees):
        n = _integer(n, "n")
        degs = tuple(sorted(_integer(d, "degree") for d in degrees))
        if not degs:
            raise ValueError(
                "need at least one degree (r = 0 is projective space)")
        if any(d < 2 for d in degs):
            raise ValueError("every degree must be >= 2")
        if n - 1 - len(degs) < 1:
            raise ValueError("complete intersection must have dimension >= 1")
        if n - sum(degs) < 1:
            raise ValueError("Fano index must be >= 1")
        for name, value in (("n", n), ("degrees", degs), ("r", len(degs)),
                            ("total", sum(degs)), ("nu", n - sum(degs))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("MultiDegree is immutable")

    @property
    def dd(self) -> int:
        """prod d_k^{d_k}."""
        return prod(d**d for d in self.degrees)

    @property
    def dfact(self) -> int:
        """prod d_k!."""
        return prod(factorial(d) for d in self.degrees)

    @property
    def dim(self) -> int:
        return self.n - 1 - self.r

    @property
    def bmax(self) -> int:
        """Largest degree b of a table row, insertion power
        1 + nu*b <= n.  The rows above `svr_threshold` are 0 a priori,
        so the largest degree with a possibly nonzero invariant is
        `svr_threshold`."""
        return (self.n - 1) // self.nu

    @property
    def svr_threshold(self) -> int:
        """Largest degree b with 1 + nu*b <= dim: above it the insertion
        H^(1+nu b) is the zero class on X, so standard, reduced and
        their difference all vanish a priori."""
        return (self.n - 2 - self.r) // self.nu

    def theta_pairs(self) -> tuple[tuple, tuple]:
        """The insertion pairs (p1, p2) over which the type-A term pairs
        Theta^{(1)}_{p1} with Theta^{(0)}_{p2}, as two blocks:
        (p, n-1-r-p) for 0 <= p < n-r, and (n-p, n-1-r+p) for
        1 <= p <= r.  The structure sums U* and V* are these blocks
        with the Theta closed forms put in."""
        n, r = self.n, self.r
        return (tuple((p, n - 1 - r - p) for p in range(n - r)),
                tuple((n - p, n - 1 - r + p) for p in range(1, r + 1)))

    def inv_degree_sum(self) -> Fraction:
        return sum((Fraction(1, d) for d in self.degrees), Fraction(0))

    def __eq__(self, other) -> bool:
        return (isinstance(other, MultiDegree)
                and self.n == other.n and self.degrees == other.degrees)

    def __hash__(self):
        return hash((self.n, self.degrees))

    def __repr__(self) -> str:
        return f"MultiDegree({self.n}, {self.degrees})"

    def label(self) -> str:
        return f"X_{self.n}({','.join(str(d) for d in self.degrees)})"
