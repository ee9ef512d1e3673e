"""Structure sums over the ct tables: brute-force evaluation, the
proven closed forms, and the conjecture harness.

The six sums U1..U3, V1..V3 are finite double sums of products of two
ct entries, U over the first block of the Theta pairing
(`MultiDegree.theta_pairs`) and V over the second.  Some have proven
formulas (acceptance-gated: they must hold exactly), the rest only
conjectured ones (report-only: a mismatch is recorded verbatim, never
asserted).  The u1 formula at level beta=2 involves a symbol h_j(d)
with no definition anywhere; it is evaluated only against a
user-supplied interpretation table and skipped otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from typing import Iterable, NamedTuple

from .geometry import MultiDegree
from .series import Rat, WindowUnderflow
from .tables import CoeffTables


class SumValues(NamedTuple):
    """The sums of both blocks of the Theta pairing at one degree: U*
    over the first block of `MultiDegree.theta_pairs`, V* over the
    second, each with its linear and binomial weighted sums."""
    md: MultiDegree
    beta: int
    u1: Rat
    u2: Rat
    u3: Rat
    v1: Rat
    v2: Rat
    v3: Rat
    u_linear: Rat
    u_binomial: Rat
    v_linear: Rat
    v_binomial: Rat


def tables_for_sums(md: MultiDegree, beta_max: int) -> CoeffTables:
    """ct entries with first index up to n-1 drive every sum."""
    return CoeffTables(md, p_max=md.n - 1, beta_max=beta_max)


def _block_sums(tables: CoeffTables, block, beta: int) -> tuple:
    """(S1, S2, S3, linear, binomial) over the pairs (p1, p2) of one
    block and b1 + b2 = beta, with e1 = p1 - nu*b2, e2 = p2 - nu*b1:

        S1       = sum ct[p2,e2,b1] ct[p1,e1-1,b2]
        S2       = sum ct[p2,e2,b1] ct[p1,e1,b2]
        S3       = sum ct[p2,e2,b1] ct[p1,e1,b2] e1 e2
        linear   = sum ct[p2,e2,b1] ct[p1,e1,b2] e1
        binomial = sum ct[p2,e2,b1] ct[p1,e1,b2] C(e1,2)

    With the Theta-lemma terms t of rows (p2, b1) on the left and
    (p1, b2) on the right (`CoeffTables.ct_l_terms`), these are the
    products (t0, t1), (t0, t0), (t2, t2), (t0, t2) and (t0, t3), all
    five added up in integers over one common denominator in one pass
    over the pairs.  Each row's terms are read once per call."""
    terms = {(p, b): tables.ct_l_terms(p, b)
             for p in {p for pair in block for p in pair}
             for b in range(beta + 1)}
    pairs = []  # (left den * right den, left terms, right terms)
    for p1, p2 in block:
        for b1 in range(beta + 1):
            dl, left = terms[p2, b1]
            if left[0]:
                dr, right = terms[p1, beta - b1]
                pairs.append((dl * dr, left, right))
    den = lcm(*[d for d, _, _ in pairs])
    s1 = s2 = s3 = lin = binw = 0
    for d, (l0, _, l2, _), (r0, r1, r2, r3) in pairs:
        k = den // d
        a = l0 * k
        s1 += a * r1
        s2 += a * r0
        s3 += l2 * k * r2
        lin += a * r2
        binw += a * r3
    return tuple(Fraction(x, den) for x in (s1, s2, s3, lin, binw))


def compute_sums(tables: CoeffTables, beta: int) -> SumValues:
    """All ten sums at one degree, by brute force over the ct tables."""
    md = tables.md
    if beta > tables.beta_max or tables.p_max < md.n - 1:
        raise WindowUnderflow(
            f"sums at beta={beta} need p_max>={md.n - 1}, "
            f"beta_max>={beta}; built (p<={tables.p_max}, "
            f"beta<={tables.beta_max})")
    u_block, v_block = md.theta_pairs()
    u1, u2, u3, u_lin, u_bin = _block_sums(tables, u_block, beta)
    v1, v2, v3, v_lin, v_bin = _block_sums(tables, v_block, beta)
    return SumValues(md=md, beta=beta, u1=u1, u2=u2, u3=u3,
                     v1=v1, v2=v2, v3=v3, u_linear=u_lin, u_binomial=u_bin,
                     v_linear=v_lin, v_binomial=v_bin)


def sums_by_degree(tables: CoeffTables) -> list[SumValues]:
    """`compute_sums` at every beta up to the table's bound: the one
    list that the lemmas and the conjectures both read."""
    return [compute_sums(tables, beta) for beta in range(tables.beta_max + 1)]


# ---------------------------------------------------------------------------
# proven formulas (acceptance-gated)


def u2_lemma(md: MultiDegree, beta: int) -> Rat:
    if beta == 0:
        return Fraction(md.n - md.r)
    if beta == 1:
        return Fraction(-(md.n - md.r - md.nu) * md.dd)
    return Fraction(0)


def u1_degree1_lemma(md: MultiDegree) -> Rat:
    """Closed form of U1 at beta = 1."""
    half = sum(Fraction(d - 1, 2) for d in md.degrees)
    sq = sum(Fraction((d - 1) * (2 * d - 1), 6 * d) for d in md.degrees)
    return -Fraction(md.dd, 2) * (half * half - sq)


def u1_vanishing_hypothesis(md: MultiDegree, beta: int) -> bool:
    """n >= |d|+1 and (beta-1) n >= beta |d| - r - 1 force U1 = 0."""
    return (md.n >= md.total + 1
            and (beta - 1) * md.n >= beta * md.total - md.r - 1)


class IdentityCheck(NamedTuple):
    name: str
    md: MultiDegree
    beta: int
    computed: Rat
    expected: Rat

    @property
    def ok(self) -> bool:
        return self.computed == self.expected


def check_proven_identities(sums: Iterable[SumValues]) -> list[IdentityCheck]:
    """Every structure-sum identity with a proof, evaluated exactly on
    each of the given sums (for instance `sums_by_degree`): the U2
    closed form, the beta=1 U1 closed form, the U1 vanishing criterion
    and the four weighted identities tying the mixed sums back to U2/U3
    and V2/V3."""
    out = []
    for sv in sums:
        md, beta = sv.md, sv.beta
        out.append(IdentityCheck("u2-closed-form", md, beta, sv.u2,
                                 u2_lemma(md, beta)))
        if beta == 1:
            out.append(IdentityCheck("u1-degree1", md, beta, sv.u1,
                                     u1_degree1_lemma(md)))
        if u1_vanishing_hypothesis(md, beta):
            out.append(IdentityCheck("u1-vanishing", md, beta, sv.u1,
                                     Fraction(0)))
        e = md.n - 1 - md.r - md.nu * beta
        out.append(IdentityCheck("u-weighted-linear", md, beta, sv.u_linear,
                                 Fraction(e, 2) * sv.u2))
        out.append(IdentityCheck(
            "u-weighted-binomial", md, beta, sv.u_binomial,
            Fraction(e * (e - 1), 4) * sv.u2 - Fraction(1, 2) * sv.u3))
        f = 2 * md.n - 1 - md.r - md.nu * beta
        out.append(IdentityCheck("v-weighted-linear", md, beta, sv.v_linear,
                                 Fraction(f, 2) * sv.v2))
        out.append(IdentityCheck(
            "v-weighted-binomial", md, beta, sv.v_binomial,
            Fraction(f * (f - 1), 4) * sv.v2 - Fraction(1, 2) * sv.v3))
    return out


# ---------------------------------------------------------------------------
# conjectured formulas (report-only)


def u3_conjectured(md: MultiDegree, beta: int) -> Rat:
    if beta == 0:
        return Fraction(comb(md.n - md.r, 3))
    if beta == 1:
        return -Fraction(comb(md.total - md.r, 3) * md.dd)
    return Fraction(0)


def v1_conjectured(md: MultiDegree, beta: int) -> Rat:
    if beta == 1:
        return -Fraction(md.r * (md.total - 1) * md.dd, 2)
    if beta == 2:
        return Fraction(md.r * (md.total - 1) * md.dd**2, 2)
    return Fraction(0)


def v2_conjectured(md: MultiDegree, beta: int) -> Rat:
    if beta == 0:
        return Fraction(md.r)
    if beta == 1:
        return Fraction(-2 * md.r * md.dd)
    if beta == 2:
        return Fraction(md.r * md.dd**2)
    return Fraction(0)


def v3_conjectured(md: MultiDegree, beta: int) -> Rat:
    n, r, t = md.n, md.r, md.total
    ends = Fraction(6 * n**2 * r - 6 * n * (r**2 + r) + r * (r + 1) * (r + 2), 6)
    if beta == 0:
        return ends
    if beta == 1:
        inner = Fraction((2 * r * t - r**2 - r) * n) \
            - Fraction(3 * (r**2 + r) * t - r * (r + 1) * (r + 2), 3)
        return -inner * md.dd
    if beta == 2:
        return ends * md.dd**2
    return Fraction(0)


def u1_strict_vanishing_conjectured(md: MultiDegree, beta: int) -> bool | None:
    """The conjectured exact criterion for U1 = 0; None when the
    hypothesis n >= |d| does not apply or beta = 0 (where U1 vanishes
    for trivial Kronecker reasons outside the conjecture's content)."""
    if md.n < md.total or beta == 0:
        return None
    return (beta - 1) * md.n >= beta * md.total - md.r - 1


def u1_beta2_conjectured(md: MultiDegree, hj) -> Rat | None:
    """The conjectured beta = 2 closed form.  `hj` maps (j, d) to a
    rational; the symbol h_j(d) has no standard definition, so None
    (skip) is returned when no interpretation is supplied.

    Its sum over the partitions of s <= m, of prod_j inner_j^k_j / k_j!,
    is e_s = [x^s] exp(sum_j inner_j x^j), read off the recurrence
    e_0 = 1, s e_s = sum_j j inner_j e_{s-j}."""
    if hj is None:
        return None
    m = 2 * md.total - md.n - md.r - 2
    if m < 0:
        return Fraction(0)
    inner = [Fraction(-2, j) * sum(Fraction(d**j) * Fraction(hj(j, d))
                                   for d in md.degrees)
             for j in range(1, m + 1)]
    e = [Fraction(1)]
    for s in range(1, m + 1):
        e.append(sum(j * inner[j - 1] * e[s - j] for j in range(1, s + 1)) / s)
    total = sum(e_s * comb(2 * md.total - 2 * md.r - 3 - s, m - s)
                for s, e_s in enumerate(e))
    lead = Fraction(md.dfact**2 * (-1) ** (md.n + md.r), 2)
    return lead * total


class ConjectureCase(NamedTuple):
    md: MultiDegree
    beta: int
    expected: Rat | None  # None = skipped (undefined symbol)
    computed: Rat
    expect_nonzero: bool = False  # "iff"-style case: predicted != 0

    @property
    def verdict(self) -> str:
        if self.expect_nonzero:
            return "agree" if self.computed != 0 else "disagree"
        if self.expected is None:
            return "skipped: undefined symbol"
        return "agree" if self.expected == self.computed else "disagree"


class ConjectureReport(NamedTuple):
    conjecture: str
    cases: list[ConjectureCase]


def evaluate_conjectures(sums: Iterable[SumValues],
                         hj=None) -> list[ConjectureReport]:
    """Per-case comparison of brute force against the conjectured
    formulas, one case per given `SumValues` (a geometry at one beta),
    in the order given.  Disagreements become report rows, never
    errors."""
    u3 = ConjectureReport("U3", [])
    u1v = ConjectureReport("U1_vanishing", [])
    u1b2 = ConjectureReport("U1_beta2", [])
    v1 = ConjectureReport("V1", [])
    v2 = ConjectureReport("V2", [])
    v3 = ConjectureReport("V3", [])
    for sv in sums:
        md, beta = sv.md, sv.beta
        u3.cases.append(ConjectureCase(md, beta, u3_conjectured(md, beta), sv.u3))
        v1.cases.append(ConjectureCase(md, beta, v1_conjectured(md, beta), sv.v1))
        v2.cases.append(ConjectureCase(md, beta, v2_conjectured(md, beta), sv.v2))
        v3.cases.append(ConjectureCase(md, beta, v3_conjectured(md, beta), sv.v3))
        strict = u1_strict_vanishing_conjectured(md, beta)
        if strict is True:
            u1v.cases.append(ConjectureCase(md, beta, Fraction(0), sv.u1))
        elif strict is False:
            u1v.cases.append(ConjectureCase(md, beta, None, sv.u1,
                                            expect_nonzero=True))
        if beta == 2:
            expected = u1_beta2_conjectured(md, hj)
            u1b2.cases.append(ConjectureCase(md, beta, expected, sv.u1))
    return [u3, u1v, u1b2, v1, v2, v3]
