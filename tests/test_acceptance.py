"""Acceptance suite: one check per criterion, each reporting a single
pass/fail line, with the stated runtime limits asserted."""

import random
import time
from fractions import Fraction
from math import comb

import numpy as np

from ncpe.builders import (build_nc, build_pe_dref, catalan,
                           distinguished_chain, enumerate_noncrossing,
                           pe_join, pe_members)
from ncpe.labelings import (count_decreasing_chains, left_modular_labeling,
                            verify_el, verify_sn_el)
from ncpe.nbb import (Atom, classification_census,
                      enumerate_nbb_bases_top, moebius_via_nbb)
from ncpe.parking import build_pe_pchn, count_D
from reference import (chain_parking_word, from_leq_matrix,
                       is_parking_function, is_spanning_tree, iter_all_chains,
                       lattice_tables, leq_matrix, moebius_table, pe_meet,
                       unique_rising_chain, verify_restriction_el)


def _verdict(num: int, name: str, ok: bool, elapsed: float) -> None:
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} "
          f"[{elapsed:.1f}s]")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_1_cardinalities():
    start = time.monotonic()
    ok = all(len(enumerate_noncrossing(n)) == catalan(n) for n in range(1, 10))
    ok = ok and len(pe_members(3)) == 3
    for n in range(4, 10):
        count = len(pe_members(n))
        first = catalan(n) - 2 * catalan(n - 2)
        second = (Fraction(5, n + 1) + Fraction(9, n - 3)) * comb(2 * n - 4, n - 4)
        ok = ok and count == first == second
    elapsed = time.monotonic() - start
    _verdict(1, "cardinalities", ok and elapsed < 10, elapsed)


def test_criterion_2_lattice_graded_supersolvable():
    start = time.monotonic()
    ok = True
    for n in range(3, 8):
        p = build_pe_dref(n)
        tables = p.lattice_check()
        chain = [p.index(x) for x in distinguished_chain(n)]
        ok = ok and tables.is_lattice and p.is_graded() \
            and p.is_left_modular_chain(chain)
    elapsed = time.monotonic() - start
    _verdict(2, "lattice/graded/supersolvable", ok and elapsed < 120, elapsed)


def test_criterion_3_el_verification():
    start = time.monotonic()
    ok = True
    for build in (build_nc, build_pe_dref):
        for n in range(3, 7):
            p = build(n)
            lam = left_modular_labeling(p, distinguished_chain(n))
            ok = ok and verify_el(p, lam).el and verify_sn_el(p, lam)
            rising = unique_rising_chain(p, lam)
            ok = ok and tuple(p.keys[v] for v in rising) == \
                distinguished_chain(n)
    elapsed = time.monotonic() - start
    _verdict(3, "EL verification", ok and elapsed < 300, elapsed)


def test_criterion_4_mobius_triple_agreement():
    start = time.monotonic()
    ok = True
    for n in range(3, 8):
        nc = build_nc(n)
        lam = left_modular_labeling(nc, distinguished_chain(n))
        sign = (-1) ** (n - 1)
        values = {nc.moebius_bottom_top(), moebius_via_nbb(n, "nc"),
                  sign * count_decreasing_chains(nc, lam)}
        ok = ok and values == {sign * catalan(n - 1)}
        pe = build_pe_dref(n)
        mu = left_modular_labeling(pe, distinguished_chain(n))
        closed = sign * (comb(2 * n - 5, n - 4) * 4 // n if n >= 4 else 0)
        values = {pe.moebius_bottom_top(), moebius_via_nbb(n, "pe"),
                  sign * count_decreasing_chains(pe, mu)}
        ok = ok and values == {closed}
    elapsed = time.monotonic() - start
    _verdict(4, "Moebius triple agreement", ok, elapsed)


def test_criterion_5_nbb_census():
    start = time.monotonic()
    ok = True
    for n in range(4, 10):
        census = classification_census(n)
        ok = ok and len(enumerate_nbb_bases_top(n, "nc")) == catalan(n - 1)
        ok = ok and census["S2"] == catalan(n - 2)
        ok = ok and census["R"] == catalan(n - 2)
        ok = ok and census["kept"] == catalan(n - 1) - 2 * catalan(n - 2)
        # containment/disjointness of the classes is asserted inside
        # classify_base; census totals double-check it
        ok = ok and census["kept"] == catalan(n - 1) - census["S2"] - census["R"]
    bases5 = enumerate_nbb_bases_top(5, "nc")
    trees5 = {frozenset(b) for b in bases5 if is_spanning_tree(b, 5)}
    ok = ok and len(trees5) == 14 and classification_census(5)["kept"] == 4
    elapsed = time.monotonic() - start
    _verdict(5, "NBB census", ok and elapsed < 60, elapsed)


def test_criterion_6_parking_chains():
    start = time.monotonic()
    ok = True
    for n in range(3, 8):
        total = sum(1 for _ in iter_all_chains(n))
        ok = ok and total == n ** (n - 2)
    for n in range(3, 7):
        words = [chain_parking_word(c) for c in iter_all_chains(n)]
        ok = ok and len(set(words)) == len(words) == n ** (n - 2)
        ok = ok and all(is_parking_function(w) for w in words)
    for n in range(3, 8):
        ok = ok and build_pe_pchn(n).moebius_bottom_top() == 0
    for n in range(3, 7):
        ok = ok and verify_restriction_el(n).el.el
    ok = ok and not build_pe_pchn(5).lattice_check().is_lattice
    elapsed = time.monotonic() - start
    _verdict(6, "parking-chain suite", ok, elapsed)


def test_criterion_7_interval_regression():
    start = time.monotonic()
    expected = {4: 4, 5: 12, 6: 37, 7: 118, 8: 387, 9: 1298}
    ok = True
    for n, size in expected.items():
        atom = Atom(n - 2, n - 1).partition(n)
        ok = ok and sum(1 for z in pe_members(n) if atom.leq_dref(z)) == size
    elapsed = time.monotonic() - start
    _verdict(7, "interval regression", ok and elapsed < 300, elapsed)


def test_criterion_8_property_suites():
    start = time.monotonic()
    ok = True
    # lattice axioms on the PE tables, exhaustively for n <= 5
    for n in (4, 5):
        p = build_pe_dref(n)
        ok = ok and p.lattice_check().is_lattice
        t, leq = lattice_tables(p), leq_matrix(p)
        size = len(p.keys)
        for i in range(size):
            for j in range(size):
                m, jn = t.meet[i, j], t.join[i, j]
                ok = ok and leq[m, i] and leq[m, j]
                ok = ok and leq[i, jn] and leq[j, jn]
                ok = ok and t.meet[i, t.join[i, j]] == i  # absorption
                ok = ok and t.join[i, t.meet[i, j]] == i
    # Moebius dual recursion
    for p in (build_nc(4), build_pe_dref(5)):
        table, leq = moebius_table(p), leq_matrix(p)
        size = len(p.keys)
        for x in range(size):
            for y in range(size):
                if x != y and leq[x, y]:
                    total = sum(table[(z, y)] for z in range(size)
                                if z != x and leq[x, z] and leq[z, y])
                    ok = ok and table[(x, y)] == -total
    # transitive-reduction recomputation
    for p in (build_nc(5), build_pe_dref(5)):
        again = from_leq_matrix(p.keys, leq_matrix(p))
        ok = ok and sorted(again.covers) == sorted(p.covers)
        ok = ok and np.array_equal(leq_matrix(again), leq_matrix(p))
    # blockwise PE meet/join vs induced tables (exhaustive n <= 6)
    for n in range(3, 7):
        p = build_pe_dref(n)
        t = lattice_tables(p)
        for i, x in enumerate(p.keys):
            for j, y in enumerate(p.keys):
                ok = ok and pe_meet(x, y) == p.keys[t.meet[i, j]]
                ok = ok and pe_join(x, y) == p.keys[t.join[i, j]]
    # randomized pairs at n = 7 against the real tables
    p = build_pe_dref(7)
    t = lattice_tables(p)
    rng = random.Random(2026)
    size = len(p.keys)
    for _ in range(500):
        i, j = rng.randrange(size), rng.randrange(size)
        ok = ok and pe_meet(p.keys[i], p.keys[j]) == p.keys[t.meet[i, j]]
        ok = ok and pe_join(p.keys[i], p.keys[j]) == p.keys[t.join[i, j]]
    elapsed = time.monotonic() - start
    _verdict(8, "property suites", ok, elapsed)
