"""Acceptance gate: the cross-verification criteria this package
promises, each at its pinned q-order, one pass/fail line per criterion.
All tolerances are exact equality of rationals."""

from fractions import Fraction

from fanogw.checks import (check_a_double_residue, check_convolution,
                           check_degree0, check_l_identity, check_mu_routes,
                           check_phi_routes, check_regularizable,
                           check_svr_vanishing, check_theta_routes,
                           check_three_path, check_truncation_stability,
                           check_w_regular, default_grid)
from fanogw.cli import main
from fanogw.geometry import MultiDegree
from fanogw.invariants import chern_degree0_oracle
from fanogw.sums import (check_proven_identities, compute_sums,
                         evaluate_conjectures, sums_by_degree,
                         tables_for_sums)
from fanogw.tables import CoeffTables

from helpers import u1_degree1_hypersurface

GRID = default_grid()


def report(num, label, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {label}")
    assert ok, f"criterion {num}: {label}"


def test_criterion_1_l_identity():
    ok = all(check_l_identity(md, order=12) for md in GRID)
    report(1, "L^n - q d^d L^{|d|} = 1 exactly to q-order 12 on the grid", ok)


def test_criterion_2_dual_routes():
    ok = True
    for md in GRID:
        ok = ok and check_mu_routes(md, 8) and check_phi_routes(md, 8) \
            and check_theta_routes(md, 8)
    report(2, "mu/Phi0/Phi1/Theta dual-route equality to q-order 8", ok)


def test_criterion_3_regularity():
    ok = all(check_regularizable(md, 8) and check_w_regular(md, 8)
             for md in GRID)
    report(3, "regularizability in hbar and w-regularity of F_p", ok)


def test_criterion_4_degree0_axiom():
    ok = all(check_degree0(md) for md in GRID)
    ok = ok and chern_degree0_oracle(MultiDegree(5, (3,))) == Fraction(-1, 2)
    ok = ok and chern_degree0_oracle(MultiDegree(6, (2, 2))) == Fraction(-1, 2)
    report(4, "degree-0 invariant equals the Chern-class count", ok)


def test_criterion_5_three_path_consistency():
    ok = all(check_three_path(md) for md in GRID)
    report(5, "standard = (type A + type B) + SvR difference on all degrees", ok)


def test_criterion_6_svr_vanishing():
    ok = all(check_svr_vanishing(md) for md in GRID)
    report(6, "standard, reduced and SvR difference vanish beyond "
              "b*nu > n-2-r", ok)


def test_criterion_7_a_double_residue():
    ok = all(check_a_double_residue(md, 6)
             for md in (MultiDegree(5, (3,)), MultiDegree(7, (2, 2))))
    report(7, "A(q) equals the double-residue oracle to q-order 6", ok)


def test_criterion_8_proven_structure_lemmas():
    ok = all(c.ok for md in GRID
             for c in check_proven_identities(
                 sums_by_degree(tables_for_sums(md, 3))))
    for d, n in ((3, 5), (4, 6), (5, 7)):
        md = MultiDegree(n, (d,))
        got = compute_sums(tables_for_sums(md, 1), 1).u1
        ok = ok and got == u1_degree1_hypersurface(d)
    report(8, "proven U/V lemmas exact for beta <= 3 (incl. U1 at d=3,4,5)", ok)


def test_criterion_9_conjecture_harness():
    reports = evaluate_conjectures(
        [sv for md in GRID for sv in sums_by_degree(tables_for_sums(md, 2))])
    by_name = {r.conjecture: r for r in reports}
    ok = all(c.verdict == "agree" for c in by_name["V2"].cases)
    ok = ok and all(c.verdict == "agree" for c in by_name["U3"].cases)
    ok = ok and all(c.verdict == "skipped: undefined symbol"
                    for c in by_name["U1_beta2"].cases)
    disagreements = [(r.conjecture, c.md.label(), c.beta)
                     for r in reports for c in r.cases
                     if c.verdict == "disagree"]
    for item in disagreements:  # emitted verbatim, never asserted
        print("  reported disagreement:", item)
    report(9, "V2/U3 agree with brute force; h_j cases skipped", ok)


def test_criterion_10_truncation_and_determinism(tmp_path):
    ok = all(check_truncation_stability(md) for md in GRID)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code = main(["compute", "--ambient", "6", "--degrees", "2,3",
                     "--format", "json", "--out", str(path)])
        ok = ok and code == 0
    ok = ok and a.read_bytes() == b.read_bytes()
    report(10, "values stable under order padding; reruns byte-identical", ok)


def test_convolution_identity_grid():
    # not numbered in the gate but underpins every table: check exactly
    ok = all(check_convolution(CoeffTables(md, p_max=md.n, beta_max=3))
             for md in GRID)
    report("8b", "ct * c convolution identity exact on built tables", ok)
