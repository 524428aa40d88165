"""Poset builders, the PE membership rule, PE meet/join, and the
distinguished chain."""

import random
from itertools import combinations

import pytest

from ncpe.builders import (BuildError, _is_pe_code, _merge_covers, build_nc,
                           build_pe_dref, build_pi, catalan, chain_element,
                           distinguished_chain, enumerate_noncrossing,
                           enumerate_partitions, is_pe_member, pe_join,
                           pe_members)
from ncpe.partitions import (PartitionError, SetPartition, nc_join,
                             parse_partition)
from reference import (code_merge_covers, labelled_pe_join, lattice_tables, nc_meet,
                       pe_meet, same_block, sorted_by_blocks)

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


class TestEnumeration:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_partition_count_is_bell(self, n):
        assert len(enumerate_partitions(n)) == BELL[n]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_noncrossing_count_is_catalan(self, n):
        nc = enumerate_noncrossing(n)
        assert len(nc) == catalan(n)
        assert len(set(nc)) == len(nc)
        assert all(x.is_noncrossing for x in nc)

    def test_noncrossing_agrees_with_filter(self):
        # the same partitions, once each, in the order of their blocks
        for n in range(1, 8):
            assert enumerate_noncrossing(n) == sorted(
                (x for x in enumerate_partitions(n) if x.is_noncrossing),
                key=lambda x: x.blocks)

    @pytest.mark.parametrize("n", (8, 9, 10))
    def test_noncrossing_in_blocks_order(self, n):
        """Catalan(n) distinct noncrossing partitions, so all of them, in
        the order of their blocks."""
        members = enumerate_noncrossing(n)
        assert len(set(members)) == len(members) == catalan(n)
        assert all(x.is_noncrossing for x in members)
        assert members == sorted_by_blocks(members)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_pe_count(self, n):
        assert len(pe_members(n)) == catalan(n) - 2 * catalan(n - 2)


class TestPEMembership:
    def test_examples(self):
        assert not is_pe_member(parse_partition("1|2|34"))   # block {3,4}
        assert not is_pe_member(parse_partition("13|2|4"))   # {4} with 1~3
        assert not is_pe_member(parse_partition("123|4"))    # {4} with 1~3
        assert is_pe_member(parse_partition("14|23"))
        assert is_pe_member(parse_partition("134|2"))
        assert is_pe_member(SetPartition.bottom(4))
        assert is_pe_member(SetPartition.top(4))

    def test_rejects_small_n(self):
        with pytest.raises(BuildError):
            is_pe_member(SetPartition.bottom(2))

    def test_rejects_crossing_input(self):
        with pytest.raises(PartitionError):
            is_pe_member(parse_partition("13|24"))

    @pytest.mark.parametrize("n", range(3, 11))
    def test_code_predicate_matches_blocks(self, n):
        """The exclusions read off the code agree with the definition on
        blocks, on every noncrossing partition of [n]."""
        for x in enumerate_noncrossing(n):
            by_blocks = (n - 1, n) not in x.blocks and not (
                (n,) in x.blocks and same_block(x, 1, n - 1))
            assert _is_pe_code(x.code) == by_blocks == is_pe_member(x)


def oracle_merge_covers(members):
    """The cover search on partitions: each candidate is built by
    SetPartition.merge and looked up in an index keyed by partition."""
    index = {x: i for i, x in enumerate(members)}
    covers = []
    for i, x in enumerate(members):
        for a, b in combinations([blk[0] for blk in x.blocks], 2):
            j = index.get(x.merge(a, b))
            if j is not None:
                covers.append((i, j))
    return covers


FAMILIES = {"pi": enumerate_partitions, "nc": enumerate_noncrossing,
            "pe": lambda n: list(pe_members(n))}


class TestMergeCoversOracle:
    @pytest.mark.parametrize("family, n", [
        *(("pi", n) for n in range(1, 7)), *(("nc", n) for n in range(1, 9)),
        *(("pe", n) for n in range(3, 10))])
    def test_same_cover_list(self, family, n):
        members = FAMILIES[family](n)
        assert _merge_covers(members) == oracle_merge_covers(members)


class TestMergeCoversKernel:
    """The packed-int cover search against the per-member loop it
    replaced, up to n = 16, the largest ground set."""

    @pytest.mark.parametrize("family, n", [("nc", 9), ("nc", 10), ("pe", 10), ("pi", 7)])
    def test_same_cover_list_as_code_loop(self, family, n):
        members = FAMILIES[family](n)
        assert _merge_covers(members) == code_merge_covers(members)

    def test_sixteen_positions(self):
        """Random partitions of [16] and the discrete and full ones, with
        every merge of two of their blocks and the merges of those: keys
        of 16 positions, 64 bits, and block labels up to 15."""
        atom = SetPartition.bottom(15).merge(14, 15)
        assert _merge_covers([SetPartition.bottom(15), atom]) == [(0, 1)]
        rng = random.Random(16)
        members = {SetPartition.bottom(16), SetPartition.top(16)}
        for _ in range(12):
            code = [0]
            for _ in range(15):
                code.append(rng.randint(0, max(code) + 1))
            members.add(SetPartition(16, tuple(code)))
        for _ in range(2):
            members |= {x.merge(a, b) for x in list(members)
                        for a, b in combinations([blk[0] for blk in x.blocks], 2)}
        members = sorted(members, key=lambda x: x.code)
        covers = _merge_covers(members)
        assert covers == code_merge_covers(members)
        assert len(covers) > len(members)


class TestPosets:
    def test_pi_counts(self):
        p = build_pi(4)
        assert len(p.keys) == 15
        assert len(p.covers) == 31
        assert p.is_graded()

    def test_nc_counts(self):
        p = build_nc(4)
        assert len(p.keys) == 14
        # the three crossing-pair covers of the full lattice are absent
        assert len(p.covers) == 28

    def test_pe_counts(self):
        p = build_pe_dref(4)
        assert len(p.keys) == 10
        assert len(p.covers) == 16

    def test_caps(self):
        with pytest.raises(BuildError):
            build_pi(10)
        with pytest.raises(BuildError):
            build_nc(11)
        with pytest.raises(BuildError):
            build_pe_dref(2)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_pe_covers_are_induced_nc_covers(self, n):
        """No noncrossing element sits strictly between the endpoints of
        a PE cover, so the covers of PE are exactly the NC covers with
        both endpoints in PE."""
        nc = build_nc(n)
        pe = build_pe_dref(n)
        members = set(pe.keys)
        induced = {(nc.keys[i], nc.keys[j]) for i, j in nc.covers
                   if nc.keys[i] in members and nc.keys[j] in members}
        assert {(pe.keys[i], pe.keys[j]) for i, j in pe.covers} == induced


class TestPEMeetJoin:
    @pytest.mark.parametrize("n", range(3, 7))
    def test_against_induced_tables(self, n):
        """Blockwise meet/join with the repair steps match the meet and
        join of the finite lattice built from the order alone."""
        pe = build_pe_dref(n)
        assert pe.lattice_check().is_lattice
        check = lattice_tables(pe)
        for i, x in enumerate(pe.keys):
            for j, y in enumerate(pe.keys):
                assert pe_meet(x, y) == pe.keys[check.meet[i, j]]
                assert pe_join(x, y) == pe.keys[check.join[i, j]]

    def test_repair_cases_fire(self):
        # meet repair: the noncrossing meet has a {n-1, n} block
        assert not is_pe_member(nc_meet(parse_partition("1|234"),
                                        parse_partition("134|2")))
        m = pe_meet(parse_partition("1|234"), parse_partition("134|2"))
        assert m == parse_partition("1|2|3|4")
        # join repair: the noncrossing join has {n} singleton with 1~n-1
        a, b = parse_partition("12|3|4"), parse_partition("1|23|4")
        assert not is_pe_member(nc_join(a, b))
        assert pe_join(a, b) == parse_partition("1234")

    def test_requires_pe_inputs(self):
        with pytest.raises(BuildError):
            pe_meet(parse_partition("1|2|34"), SetPartition.bottom(4))

    def test_random_pairs_at_7(self):
        """Meet/join results are PE members and genuine bounds; meets
        lie below, joins above, and both are extremal among members."""
        members = pe_members(7)
        rng = random.Random(7)
        pairs = [(rng.choice(members), rng.choice(members)) for _ in range(200)]
        for x, y in pairs:
            m, j = pe_meet(x, y), pe_join(x, y)
            assert is_pe_member(m) and is_pe_member(j)
            assert m.leq_dref(x) and m.leq_dref(y)
            assert x.leq_dref(j) and y.leq_dref(j)
        # extremality, spot-checked against full scans for a subsample
        for x, y in pairs[:20]:
            m, j = pe_meet(x, y), pe_join(x, y)
            for z in members:
                if z.leq_dref(x) and z.leq_dref(y):
                    assert z.leq_dref(m)
                if x.leq_dref(z) and y.leq_dref(z):
                    assert j.leq_dref(z)


class TestPEJoinKernel:
    """`pe_join` on the code-level kernels against the labelled oracle,
    whose PE test reads the blocks; every result is a PE member."""

    @pytest.mark.parametrize("n", range(3, 7))
    def test_every_pair(self, n):
        members = pe_members(n)
        family = set(members)
        for x in members:
            for y in members:
                j = pe_join(x, y)
                assert j == labelled_pe_join(x, y) and j in family

    @pytest.mark.parametrize("n", (8, 9, 10))
    def test_sampled_pairs(self, n):
        members = pe_members(n)
        family = set(members)
        rng = random.Random(n)
        for _ in range(1500):
            x, y = rng.choice(members), rng.choice(members)
            j = pe_join(x, y)
            assert j == labelled_pe_join(x, y) and j in family


class TestNCJoinMinimality:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_join_least_upper_bound(self, n):
        members = enumerate_noncrossing(n)
        rng = random.Random(n)
        for _ in range(60):
            x, y = rng.choice(members), rng.choice(members)
            j = nc_join(x, y)
            assert x.leq_dref(j) and y.leq_dref(j)
            for z in members:
                if x.leq_dref(z) and y.leq_dref(z):
                    assert j.leq_dref(z)


class TestDistinguishedChain:
    def test_elements(self):
        c = distinguished_chain(4)
        assert [str(x) for x in c] == ["1|2|3|4", "14|2|3", "124|3", "1234"]
        assert chain_element(5, 3) == parse_partition("125|3|4")

    @pytest.mark.parametrize("n", range(3, 8))
    def test_chain_is_maximal_and_pe(self, n):
        c = distinguished_chain(n)
        assert len(c) == n
        assert all(is_pe_member(x) for x in c)
        assert all(a.leq_dref(b) and len(b.blocks) == len(a.blocks) - 1
                   for a, b in zip(c, c[1:]))

    @pytest.mark.parametrize("n", range(3, 7))
    def test_left_modular_in_nc_and_pe(self, n):
        for build in (build_nc, build_pe_dref):
            p = build(n)
            chain = [p.index(x) for x in distinguished_chain(n)]
            assert p.is_left_modular_chain(chain)
