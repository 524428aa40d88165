"""Chains as parking functions, the avoiding family, the chain-defined
order on PE, and EL preservation under edge removal."""

from itertools import product

import pytest

from ncpe import builders, parking
from ncpe.builders import (CAPS, BuildError, build_pe_dref, distinguished_chain,
                           pe_members)
from ncpe.labelings import LabelingError, parking_label
from ncpe.parking import build_pe_pchn, count_D
from ncpe.partitions import parse_partition
from ncpe.posets import PosetError
from reference import (avoiding_chain_count, build_D, chain_family_order,
                       chain_parking_word, dominating_witness,
                       is_parking_function, iter_all_chains, leq_matrix,
                       removed_covers, same_block, verify_restriction_el)

_, PCHN_LOW, PCHN_HIGH = CAPS["pe-pchn"]
ADVERTISED_N = range(PCHN_LOW, PCHN_HIGH + 1)


class TestParkingFunctions:
    def test_examples(self):
        assert is_parking_function((1, 1, 1))
        assert not is_parking_function((2, 3, 3))
        assert is_parking_function((3, 1, 2))
        assert not is_parking_function((2, 2, 3))

    def test_sixteen_of_length_three(self):
        words = [(a, b, c) for a in (1, 2, 3) for b in (1, 2, 3)
                 for c in (1, 2, 3)]
        assert sum(map(is_parking_function, words)) == 16

    def test_positive_entries_required(self):
        with pytest.raises(ValueError):
            is_parking_function((0, 1))


class TestChainWords:
    def test_frozen_examples(self):
        chain = [parse_partition(s) for s in ("1|2|3|4", "12|3|4", "12|34", "1234")]
        assert chain_parking_word(chain) == (1, 3, 2)
        chain = [parse_partition(s) for s in ("1|2|3|4", "14|2|3", "134|2", "1234")]
        assert chain_parking_word(chain) == (1, 1, 1)

    def test_distinguished_chain_word(self):
        assert chain_parking_word(distinguished_chain(4)) == (1, 1, 2)
        assert chain_parking_word(distinguished_chain(6)) == (1, 1, 2, 3, 4)

    def test_rejects_partial_chain(self):
        with pytest.raises(LabelingError):
            chain_parking_word([parse_partition("1|2|3"), parse_partition("123")])

    def test_rejects_unbounded_chain(self):
        with pytest.raises(PosetError):
            chain_parking_word([parse_partition("12|3"), parse_partition("123")])

    @pytest.mark.parametrize("n", (3, 4, 5))
    def test_bijection_with_parking_functions(self, n):
        words = [chain_parking_word(c) for c in iter_all_chains(n)]
        assert len(words) == n ** (n - 2)
        assert len(set(words)) == len(words)
        assert all(is_parking_function(w) for w in words)
        universe = {w for w in product(range(1, n), repeat=n - 1)
                    if is_parking_function(w)}
        assert set(words) == universe


class TestAvoidingFamily:
    @pytest.mark.parametrize("n,count", [(3, 1), (4, 7), (5, 61), (6, 671)])
    def test_sizes(self, n, count):
        family = build_D(n)
        assert len(family) == count
        assert count_D(n) == count
        for chain in family:
            assert n - 1 not in chain_parking_word(chain)

    def test_count_only_reaches_8(self):
        assert count_D(7) == 9031
        assert count_D(8) == 144495

    def test_caps(self):
        with pytest.raises(BuildError):
            build_D(2)
        with pytest.raises(BuildError):
            count_D(9)


class TestChainOrder:
    def test_pchn_4(self):
        p = build_pe_pchn(4)
        assert len(p.keys) == 10
        assert len(p.covers) == 15
        assert p.lattice_check().is_lattice  # only n >= 5 fails
        removed = removed_covers(4)
        assert [(str(x), str(y)) for x, y in removed] == [("1|23|4", "1|234")]

    def test_pchn_5_not_lattice(self):
        p = build_pe_pchn(5)
        check = p.lattice_check()
        assert not check.is_lattice
        assert check.witness is not None

    @pytest.mark.parametrize("n", (4, 5, 6))
    def test_graded_with_partition_rank(self, n):
        p = build_pe_pchn(n)
        assert p.is_graded()
        assert all(p.height[i] == n - len(x.blocks) for i, x in enumerate(p.keys))

    @pytest.mark.parametrize("n", (3, 4, 5, 6, 7))
    def test_mobius_vanishes(self, n):
        assert build_pe_pchn(n).moebius_bottom_top() == 0

    @pytest.mark.parametrize("n", (4, 5))
    def test_maximal_chains_are_the_avoiding_family(self, n):
        p = build_pe_pchn(n)
        chains = {tuple(p.keys[v] for v in c) for c in p.iter_maximal_chains()}
        assert chains == set(build_D(n))

    @pytest.mark.parametrize("n", (4, 5, 6))
    def test_suborder_of_dref(self, n):
        p = build_pe_pchn(n)
        leq = leq_matrix(p)
        for i in range(len(p.keys)):
            for j in range(len(p.keys)):
                if leq[i, j]:
                    assert p.keys[i].leq_dref(p.keys[j])


class TestChainFamilyOracle:
    """The chain-defined order and the avoiding family, built from the
    dref order, against their definition on the chains of NC_n."""

    @pytest.mark.parametrize("n", ADVERTISED_N)
    def test_order_equals_chain_family(self, n):
        p, oracle = build_pe_pchn(n), chain_family_order(n)
        assert p.keys == oracle.keys
        assert p.covers == oracle.covers

    @pytest.mark.parametrize("n", ADVERTISED_N)
    def test_count_equals_nc_path_count(self, n):
        assert count_D(n) == avoiding_chain_count(n)

    @pytest.mark.parametrize("n", range(PCHN_LOW, 7))
    def test_family_equals_filtered_chains(self, n):
        assert build_D(n) == [c for c in iter_all_chains(n)
                              if n - 1 not in chain_parking_word(c)]

    @pytest.mark.parametrize("n", ADVERTISED_N)
    def test_removed_covers_are_the_dref_difference(self, n):
        pe, kept = build_pe_dref(n), set(build_pe_pchn(n).covers)
        difference = [(pe.keys[i], pe.keys[j]) for i, j in pe.covers
                      if (i, j) not in kept]
        removed = removed_covers(n)
        assert removed == difference
        assert all(parking_label(x, y) == n - 1 for x, y in removed)

    def test_restriction_builds_dref_once_and_no_nc(self, monkeypatch):
        """The chain-defined order is PE-dref restricted to its covers not
        labeled n-1: one dref build, and no noncrossing lattice."""
        def no_nc(n):
            raise AssertionError("noncrossing lattice built")

        calls = []

        def counting_dref(n):
            calls.append(n)
            return build_pe_dref(n)

        monkeypatch.setattr(parking, "build_nc", no_nc, raising=False)
        monkeypatch.setattr(builders, "build_nc", no_nc)
        monkeypatch.setattr(parking, "build_pe_dref", counting_dref)
        assert len(build_pe_pchn(5).keys) == len(pe_members(5))
        assert calls == [5]


class TestRestrictionEL:
    @pytest.mark.parametrize("n", (3, 4, 5, 6))
    def test_verdicts(self, n):
        verdict = verify_restriction_el(n)
        assert verdict.el.el
        assert verdict.decreasing_chains == 0
        assert verdict.mobius == 0
        assert verdict.ok
        assert len(verdict.removed) == len(verdict.witnesses)

    def test_witness_structure(self):
        from ncpe.labelings import left_modular_labeling
        n = 5
        pe = build_pe_dref(n)
        lam = left_modular_labeling(pe, distinguished_chain(n))
        for x, y in removed_covers(n):
            y_prime = dominating_witness(x, y, lam)
            # the witness merges the block of 1 with the singleton {n}
            assert same_block(y_prime, 1, n)
            assert x.leq_dref(y_prime)
            edge = (pe.index(x), pe.index(y_prime))
            assert lam.labels[edge] == 1

    def test_witness_rejects_retained_cover(self):
        from ncpe.labelings import left_modular_labeling
        pe = build_pe_dref(4)
        lam = left_modular_labeling(pe, distinguished_chain(4))
        with pytest.raises(BuildError):
            dominating_witness(parse_partition("1|2|3|4"),
                               parse_partition("14|2|3"), lam)
