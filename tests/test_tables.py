"""Coefficient tables against an independent long-division oracle, plus
the defining convolution identity."""

import random
import sys
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from fanogw import series, tables
from fanogw.geometry import MultiDegree
from fanogw.hyper import ftilde_hbar
from fanogw.invariants import invariant_table
from fanogw.series import BiSeries, LaurentPoly, WindowUnderflow
from fanogw.tables import CoeffTables

from helpers import (apply_d, c_entry_oracle, corrupt_ctilde, ctilde_oracle,
                     f_slice_oracle, f_w_whole, shift_aux, valid_geometries)

MD53 = MultiDegree(5, (3,))


def test_c_beta0_is_kronecker():
    t = CoeffTables(MD53, p_max=4, beta_max=2)
    for p in range(5):
        for l in range(5):
            assert Fraction(*t.c_entry(p, l, 0)) == (1 if p == l else 0)


def test_ctilde_beta0_is_kronecker():
    t = CoeffTables(MD53, p_max=4, beta_max=2)
    for p in range(5):
        for l in range(p + 1):
            assert Fraction(*t.ct_entry(p, l, 0)) == (1 if p == l else 0)


def test_c_values_cubic_threefold():
    # frozen from the long-division oracle
    assert c_entry_oracle(5, (3,), 0, 0, 1) == 6
    assert c_entry_oracle(5, (3,), 0, 1, 1) == 3
    t = CoeffTables(MD53, p_max=3, beta_max=1)
    assert Fraction(*t.c_entry(0, 0, 1)) == 6
    assert Fraction(*t.c_entry(0, 1, 1)) == 3
    assert Fraction(*t.c_entry(2, 0, 1)) == 6


def test_c_random_against_oracle():
    rng = random.Random(11)
    for md in (MD53, MultiDegree(7, (2, 2))):
        t = CoeffTables(md, p_max=6, beta_max=2)
        for _ in range(12):
            p = rng.randint(0, 5)
            l = rng.randint(0, 5)
            beta = rng.randint(0, 2)
            assert Fraction(*t.c_entry(p, l, beta)) == c_entry_oracle(
                md.n, md.degrees, p, l, beta)


def test_ctilde_beta1_collapses_to_minus_c():
    t = CoeffTables(MD53, p_max=3, beta_max=1)
    assert Fraction(*t.ct_entry(2, 0, 1)) == -Fraction(*t.c_entry(2, 0, 1)) == -6


def test_ctilde_against_standalone_recursion():
    for md in (MD53, MultiDegree(6, (2, 3))):
        t = CoeffTables(md, p_max=4, beta_max=2)
        oracle = ctilde_oracle(md.n, md.degrees, md.nu, 4, 2)
        for (p, l, beta), v in oracle.items():
            assert Fraction(*t.ct_entry(p, l, beta)) == v


def test_ct_l_terms_are_the_weighted_top_entries():
    """`ct_l_terms(p, beta)` is, entry by entry, (top, second, e top,
    C(e,2) top) of `ct_entry` with e = p - nu*beta, as integers over one
    positive denominator, on every row p <= n, beta <= n // nu + 1 of
    `valid_geometries(9, 3)`: rows with e = 0, e = 1, e >= 2 and e < 0
    (all zero) each occur.  Past the built bounds it raises as
    `ct_row` does."""
    seen = set()
    for md in valid_geometries(9, 3):
        beta_max = md.n // md.nu + 1
        t = CoeffTables(md, p_max=md.n, beta_max=beta_max)
        for p in range(md.n + 1):
            for beta in range(beta_max + 1):
                e = p - md.nu * beta
                den, terms = t.ct_l_terms(p, beta)
                assert type(den) is int and den > 0
                assert all(type(x) is int for x in terms)
                got = [Fraction(x, den) for x in terms]
                seen.add(min(e, 2) if e >= 0 else "negative")
                if e < 0:
                    assert got == [0] * 4, (md, p, beta)
                    continue
                top = Fraction(*t.ct_entry(p, e, beta))
                second = Fraction(*t.ct_entry(p, e - 1, beta))
                assert got == [top, second, e * top, comb(e, 2) * top], \
                    (md, p, beta)
    assert seen == {0, 1, 2, "negative"}
    for p, beta in ((t.p_max + 1, 0), (0, t.beta_max + 1)):
        with pytest.raises(WindowUnderflow):
            t.ct_l_terms(p, beta)


def test_out_of_range_conventions():
    t = CoeffTables(MD53, p_max=3, beta_max=1)
    assert Fraction(*t.ct_entry(2, -1, 0)) == 0
    assert Fraction(*t.ct_entry(-1, 0, 0)) == 0
    assert Fraction(*t.ct_entry(1, 0, 1)) == 0  # nu*beta > p: entire term absent
    assert Fraction(*t.c_entry(3, -2, 1)) == 0
    with pytest.raises(WindowUnderflow):
        t.c_entry(9, 0, 0)


def test_convolution_identity_exhaustive_small():
    for md in (MD53, MultiDegree(7, (2, 2)), MultiDegree(6, (2, 3))):
        t = CoeffTables(md, p_max=md.n, beta_max=3)
        for p in range(md.n + 1):
            for beta in range(4):
                for l in range(p - md.nu * beta + 1):
                    assert t.convolution_defect(p, l, beta) == 0


def test_corrupted_entry_breaks_convolution(monkeypatch):
    t = CoeffTables(MD53, p_max=4, beta_max=2)
    assert t.convolution_defect(3, 1, 1) == 0
    corrupt_ctilde(monkeypatch, t, 3, 1, 1)
    assert t.convolution_defect(3, 1, 1) != 0


def test_generating_function_reproduces_c_table():
    """w^p D^p F(w, q/w^nu) has the c numbers as its coefficients."""
    for md in (MD53, MultiDegree(7, (2, 2))):
        order, hi = 2, 6
        # q -> q/w^nu moves slice beta down by nu*beta; build F wide
        # enough that every slice is still known up to w^hi
        full = f_w_whole(md, order, hi + md.nu * order)
        base = BiSeries([s.shift(-md.nu * beta)
                         for beta, s in enumerate(full.slices)],
                        [hi] * (order + 1))
        t = CoeffTables(md, p_max=hi, beta_max=order)
        for p in range(4):
            series = shift_aux(apply_d(base, -1, p), p)
            for beta in range(order + 1):
                for l in range(hi - p + 1):
                    want = Fraction(*t.c_entry(p, l, beta))
                    assert series.coeff(beta, l) == want, \
                        (md, p, l, beta)


def test_tables_match_the_oracles_over_valid_geometries():
    """Every ct and every c entry at p_max = n, beta_max = 2.  A c row
    with beta > p_max // nu reads a base slice that the ct solve never
    reads, so none is stored, and the read raises WindowUnderflow."""
    for md in valid_geometries(7, 3):
        t = CoeffTables(md, p_max=md.n, beta_max=2)
        for (p, l, beta), v in ctilde_oracle(md.n, md.degrees, md.nu,
                                             md.n, 2).items():
            assert Fraction(*t.ct_entry(p, l, beta)) == v, (md, p, l, beta)
        for p in range(md.n + 1):
            for l in range(md.n + 1):
                for beta in range(3):
                    if beta > md.n // md.nu:
                        with pytest.raises(WindowUnderflow):
                            t.c_entry(p, l, beta)
                        continue
                    assert Fraction(*t.c_entry(p, l, beta)) == c_entry_oracle(
                        md.n, md.degrees, p, l, beta), (md, p, l, beta)


def _patch_everywhere(monkeypatch, real, fake):
    """Replace the function `real` by `fake` in every fanogw module that
    holds it under some name."""
    for name, module in list(sys.modules.items()):
        if name == "fanogw" or name.startswith("fanogw."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, fake)


def test_each_taylor_shift_runs_once_per_table(monkeypatch):
    """The ct solve keeps each Taylor-shifted row it makes, and
    `hyper.fp_series` reads those rows: over invariant_table(X_8(7)),
    one context and one table, no (row, s) pair is shifted twice."""
    real = series.poly_shift
    shifts = Counter()

    def counting(a, s):
        shifts[(a, s)] += 1
        return real(a, s)

    _patch_everywhere(monkeypatch, real, counting)
    invariant_table(MultiDegree(8, (7,)))
    assert shifts
    assert [key for key, k in shifts.items() if k > 1] == []


def test_each_f_slice_is_built_once_per_geometry(monkeypatch):
    """F(w) slices come from the context's tables (`CoeffTables.base`),
    each made by one step of `tables.slice_chain`: over
    invariant_table(X_8(7)) no (geometry, beta) slice of either side is
    built twice."""
    real = tables.slice_chain
    builds = Counter()

    def counting(md, count, cap, hbar=False):
        for b in range(1, count):  # slice 0 is given
            builds[(md, b, hbar)] += 1
        return real(md, count, cap, hbar)

    _patch_everywhere(monkeypatch, real, counting)
    invariant_table(MultiDegree(8, (7,)))
    assert builds
    assert [key for key, k in builds.items() if k > 1] == []


def test_each_slice_step_is_one_kernel_call_of_each(monkeypatch):
    """Slice beta is slice beta-1 times |d| linear factors over one
    denominator of degree n: one `linear_product` of at most |d|
    factors and one `poly_div` per slice beyond beta = 0."""
    real_lp, real_div = series.linear_product, series.poly_div
    calls, widths = Counter(), []

    def linear_product(pairs, cap=series.INF_EXP):
        pairs = list(pairs)
        calls["linear_product"] += 1
        widths.append(len(pairs))
        return real_lp(pairs, cap)

    def poly_div(num, den, cap):
        calls["poly_div"] += 1
        return real_div(num, den, cap)

    _patch_everywhere(monkeypatch, real_lp, linear_product)
    _patch_everywhere(monkeypatch, real_div, poly_div)
    for md, build, steps in (
            (MultiDegree(12, (11,)), lambda md: CoeffTables(md, 12, 13), 12),
            (MultiDegree(9, (2, 2)), lambda md: ftilde_hbar(md, 8, 10), 8)):
        calls.clear()
        widths.clear()
        build(md)
        assert calls == {"linear_product": steps, "poly_div": steps}, md
        assert max(widths) <= md.total, md


def test_stored_base_slices_match_the_oracle_deep():
    """Every stored base slice of CoeffTables(md, n, n) on the index-1
    ladder, where the chain runs up to beta = n = 12, against plainly
    multiplied factors; a read past the stored slices raises
    WindowUnderflow."""
    for n in (8, 10, 12):
        md = MultiDegree(n, (n - 1,))
        t = CoeffTables(md, n, n)
        for beta in range(n + 1):
            assert t.base(beta) \
                == LaurentPoly(0, f_slice_oracle(md, beta, n)), (md, beta)
        for beta in (n + 1, n + 2):
            with pytest.raises(WindowUnderflow):
                t.base(beta)
