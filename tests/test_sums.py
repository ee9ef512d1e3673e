"""Structure sums: proven lemmas are exact assertions, conjectures are
report rows with verdict mechanics."""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanogw.geometry import MultiDegree
from fanogw.series import WindowUnderflow
from fanogw.sums import (SumValues, check_proven_identities, compute_sums,
                         evaluate_conjectures, sums_by_degree,
                         tables_for_sums, u1_beta2_conjectured,
                         u1_degree1_lemma, u1_vanishing_hypothesis, u2_lemma,
                         v2_conjectured, v3_conjectured)

from helpers import (structure_sums_reference, u1_degree1_hypersurface,
                     valid_geometries)

MD53 = MultiDegree(5, (3,))
MD722 = MultiDegree(7, (2, 2))
GRID = (MD53, MultiDegree(6, (3,)), MultiDegree(7, (3,)), MD722,
        MultiDegree(9, (2, 2)), MultiDegree(6, (2, 3)))


def test_u2_closed_form_on_grid():
    for md in GRID:
        t = tables_for_sums(md, 3)
        for beta in range(4):
            assert compute_sums(t, beta).u2 == u2_lemma(md, beta), (md, beta)


def test_u2_values_small():
    t = tables_for_sums(MD53, 1)
    assert compute_sums(t, 0).u2 == MD53.n - MD53.r
    assert compute_sums(t, 1).u2 == -(MD53.n - MD53.r - MD53.nu) * MD53.dd


def test_u1_degree1_hypersurfaces():
    for d, n in ((3, 5), (4, 6), (5, 7)):
        md = MultiDegree(n, (d,))
        got = compute_sums(tables_for_sums(md, 1), 1).u1
        assert got == u1_degree1_hypersurface(d)
        assert got == u1_degree1_lemma(md)
    assert u1_degree1_hypersurface(3) == -6


def test_u1_degree1_general_formula_on_grid():
    for md in GRID:
        got = compute_sums(tables_for_sums(md, 1), 1).u1
        assert got == u1_degree1_lemma(md), md


def test_u1_vanishing_lemma():
    cases = [(MD53, 2), (MD53, 3), (MD722, 2)]
    for md, beta in cases:
        assert u1_vanishing_hypothesis(md, beta)
        assert compute_sums(tables_for_sums(md, beta), beta).u1 == 0


def test_weighted_identities_on_grid():
    for md in GRID:
        sums = sums_by_degree(tables_for_sums(md, 3))
        for chk in check_proven_identities(sums):
            assert chk.ok, (chk.name, md, chk.beta, chk.computed, chk.expected)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(valid_geometries(9, 3)), st.integers(0, 3))
def test_sums_match_the_weighted_loop_reference(md, beta):
    """Every field of `SumValues`, built in one pass per block of the
    Theta pairing, equals its own weighted double loop."""
    tables = tables_for_sums(md, beta)
    sv = compute_sums(tables, beta)
    want = structure_sums_reference(tables, beta)
    names = list(SumValues._fields[2:])
    assert sorted(names) == sorted(want)
    for name in names:
        assert getattr(sv, name) == want[name], (md.label(), beta, name)


def test_insufficient_bounds():
    t = tables_for_sums(MD53, 1)
    with pytest.raises(WindowUnderflow):
        compute_sums(t, 2)


def test_v2_u3_conjectures_agree_on_grid():
    reports = evaluate_conjectures(
        [sv for md in GRID for sv in sums_by_degree(tables_for_sums(md, 2))])
    by_name = {r.conjecture: r for r in reports}
    for name in ("V2", "U3"):
        assert all(c.verdict == "agree" for c in by_name[name].cases), name
    # V2 at beta=0 equals r
    assert v2_conjectured(MD53, 0) == 1
    assert v2_conjectured(MD722, 0) == 2


def test_u3_conjecture_value():
    # U3 at beta=0 is C(n-r, 3); e.g. X_7(2,2): C(5,3) = 10
    t = tables_for_sums(MD722, 0)
    assert compute_sums(t, 0).u3 == 10


def test_v3_conjecture_disagreement_is_reported_not_raised():
    """The printed beta=2 closed form does not match brute force; the
    harness must record the mismatch verbatim."""
    reports = evaluate_conjectures(sums_by_degree(tables_for_sums(MD53, 2)))
    v3 = next(r for r in reports if r.conjecture == "V3")
    beta2 = next(c for c in v3.cases if c.beta == 2)
    assert beta2.verdict == "disagree"
    assert beta2.computed == 2916 and beta2.expected == v3_conjectured(MD53, 2)


def test_u1_strict_vanishing_conjecture_cases():
    reports = evaluate_conjectures(
        sums_by_degree(tables_for_sums(MD53, 3))
        + sums_by_degree(tables_for_sums(MultiDegree(6, (2, 3)), 2)))
    u1v = next(r for r in reports if r.conjecture == "U1_vanishing")
    assert u1v.cases and all(c.verdict == "agree" for c in u1v.cases)
    # below-threshold nonzero case: X_6(2,3) at beta=1 has U1 != 0
    nz = [c for c in u1v.cases if c.expect_nonzero]
    assert any(c.computed != 0 for c in nz)


def test_u1_beta2_skipped_without_hj():
    reports = evaluate_conjectures(sums_by_degree(tables_for_sums(MD53, 2)))
    u1b2 = next(r for r in reports if r.conjecture == "U1_beta2")
    assert [c.verdict for c in u1b2.cases] == ["skipped: undefined symbol"]


def test_u1_beta2_evaluates_with_hj_table():
    assert u1_beta2_conjectured(MD53, None) is None
    # X_5(3): 2|d| - n - r - 2 < 0, so any interpretation gives 0
    assert u1_beta2_conjectured(MD53, lambda j, d: Fraction(1)) == 0
    # a case with a nonempty sum: the value must be a finite rational
    md = MultiDegree(6, (2, 3)); assert 2 * md.total - md.n - md.r - 2 == 0
    got = u1_beta2_conjectured(md, lambda j, d: Fraction(1))
    assert got == Fraction(md.dfact**2, 2)


def test_u1_beta2_r2_specialization():
    """For r = 2 and n = 2|d| - 6 the general sum collapses to

        (d1! d2!)^2 [ (|d|-7/2)(|d|-4) + (8-2|d|) S1 + S1^2 - S2/2 ]

    with S1 = sum d*h1(d), S2 = sum d^2*h2(d)."""
    md = MultiDegree(8, (3, 4))
    assert md.n == 2 * md.total - 6
    vals = {(1, 3): Fraction(2, 7), (1, 4): Fraction(-1, 3),
            (2, 3): Fraction(5), (2, 4): Fraction(1, 2)}
    hj = lambda j, d: vals[(j, d)]
    t = md.total
    s1 = sum(Fraction(d) * vals[(1, d)] for d in md.degrees)
    s2 = sum(Fraction(d * d) * vals[(2, d)] for d in md.degrees)
    expected = Fraction(md.dfact**2) * (
        (Fraction(t) - Fraction(7, 2)) * (t - 4)
        + (8 - 2 * t) * s1 + s1 * s1 - s2 / 2)
    assert u1_beta2_conjectured(md, hj) == expected


@functools.cache
def beta2_sums() -> list:
    """The structure sums at beta = 2 on the 485 geometries of
    `valid_geometries(15, 5)`."""
    return [compute_sums(tables_for_sums(md, 2), 2)
            for md in valid_geometries(15, 5)]


def harmonic_hj(j: int, d: int) -> Fraction:
    """h_j(d) read as H_{d-1}^{(j)} = sum_{i=1..d-1} i^-j."""
    return sum((Fraction(1, i**j) for i in range(1, d)), Fraction(0))


def test_empirical_u1_beta2_with_harmonic_hj():
    """Empirical, not proven: with h_j(d) = sum_{i=1..d-1} i^-j the
    conjectured beta = 2 form of U1 equals brute force on all 485
    geometries of `valid_geometries(15, 5)`, 334 of them nonzero.  The
    `conjectures` verb still prints the form as stated."""
    sums = beta2_sums()
    assert len(sums) == 485
    for sv in sums:
        assert u1_beta2_conjectured(sv.md, harmonic_hj) == sv.u1, sv.md.label()
    assert sum(sv.u1 != 0 for sv in sums) == 334


def test_empirical_v3_beta2_has_the_degree_sum_for_n():
    """Empirical, not proven: V3 at beta = 2 is ends(|d|, r) dd^2 on all
    485 geometries of `valid_geometries(15, 5)`, where the printed form
    (`v3_conjectured`, which the `conjectures` verb still reports) is
    ends(n, r) dd^2: the data need |d| where it has n."""
    for sv in beta2_sums():
        t, r = sv.md.total, sv.md.r
        ends = Fraction(6 * t**2 * r - 6 * t * (r**2 + r)
                        + r * (r + 1) * (r + 2), 6)
        assert sv.v3 == ends * sv.md.dd**2, sv.md.label()


def test_sum_symmetry_left_right():
    """Swapping the two ct factors inside U2 reproduces the same value
    (the summation range is symmetric)."""
    for md in (MD53, MD722):
        t = tables_for_sums(md, 2)
        for beta in range(3):
            forward = compute_sums(t, beta).u2
            md_nu = md.nu
            total = Fraction(0)
            for p in range(md.n - md.r):
                pp = md.n - 1 - md.r - p
                for b1 in range(beta + 1):
                    b2 = beta - b1
                    if p - md_nu * b1 < 0 or pp - md_nu * b2 < 0:
                        continue
                    total += Fraction(*t.ct_entry(p, p - md_nu * b1, b1)) \
                        * Fraction(*t.ct_entry(pp, pp - md_nu * b2, b2))
            assert total == forward
