"""Core set-partition type, order predicates, and lattice operations."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpe.builders import build_pi, enumerate_noncrossing, enumerate_partitions
from ncpe.partitions import (MAX_N, PartitionError, SetPartition, nc_closure,
                             nc_join, parse_partition)
from reference import (labelled_join_partition, labelled_nc_closure,
                       labelled_nc_join, meet_partition, nc_meet)


def random_partition(n: int):
    """Strategy: a partition of [n] via a restricted-growth assignment."""
    return st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(
        lambda raw: _from_assignment(n, raw))


def _from_assignment(n, raw):
    blocks = {}
    nxt = 0
    canon = {}
    for e, v in enumerate(raw, start=1):
        if v not in canon:
            canon[v] = nxt
            nxt += 1
        blocks.setdefault(canon[v], []).append(e)
    return SetPartition.of(n, blocks.values())


class TestConstruction:
    def test_canonical_form(self):
        x = SetPartition.of(4, [[3, 2], [4, 1]])
        assert x.blocks == ((1, 4), (2, 3))
        assert str(x) == "14|23"
        assert x.code == (0, 1, 1, 0) and x == SetPartition(4, (0, 1, 1, 0))

    def test_noncanonical_rejected(self):
        # the code must be a restricted growth string of length n
        for code in [(1, 0, 0), (0, 2, 1), (0, -1, 0), (0, 0)]:
            with pytest.raises(PartitionError):
                SetPartition(3, code)

    def test_cover_and_disjoint_validation(self):
        with pytest.raises(PartitionError):
            SetPartition.of(3, [[1, 2]])
        with pytest.raises(PartitionError):
            SetPartition.of(3, [[1, 2], [2, 3]])
        with pytest.raises(PartitionError):
            SetPartition.of(MAX_N + 1, [range(1, MAX_N + 2)])

    def test_bottom_top(self):
        assert SetPartition.bottom(3).blocks == ((1,), (2,), (3,))
        assert SetPartition.top(3).blocks == ((1, 2, 3),)
        assert SetPartition.bottom(1) == SetPartition.top(1)

    def test_parse_roundtrip(self):
        for text in ("1|23|4", "14|2|3", "1234"):
            assert str(parse_partition(text)) == text

    def test_parse_commas_for_large_ground_set(self):
        x = parse_partition("1,11|2,3,4,5,6,7,8,9,10")
        assert x.n == 11 and (1, 11) in x.blocks
        assert str(x) == "1,11|2,3,4,5,6,7,8,9,10"

    def test_parse_explicit_n(self):
        x = parse_partition("12", 3)
        assert x.blocks == ((1, 2), (3,))

    @pytest.mark.parametrize("text", ["1x|2", "1,x|2", "1|2,"])
    def test_parse_rejects_non_integer(self, text):
        with pytest.raises(PartitionError):
            parse_partition(text, 5)


class TestOrder:
    def test_leq_dref_examples(self):
        x = parse_partition("1|23|4")
        y = parse_partition("1|234")
        assert x.leq_dref(y) and not y.leq_dref(x)
        assert parse_partition("14|2|3").leq_dref(parse_partition("134|2"))
        assert not parse_partition("12|34").leq_dref(parse_partition("14|23"))

    def test_rank_is_n_minus_blocks(self):
        p = build_pi(5)
        assert all(p.height[i] == 5 - len(x.blocks) for i, x in enumerate(p.keys))

    def test_merge_rejects_out_of_range(self):
        x = parse_partition("14|23")
        assert x.merge(1, 4) is x
        with pytest.raises(PartitionError):
            x.merge(0, 1)


class TestNoncrossing:
    def test_crossing_examples(self):
        assert not parse_partition("13|24").is_noncrossing
        assert parse_partition("14|23").is_noncrossing
        assert not parse_partition("135|246").is_noncrossing
        assert parse_partition("1|2|3|4").is_noncrossing

    def test_closure(self):
        assert nc_closure(parse_partition("13|24")) == parse_partition("1234")
        x = parse_partition("13|2|4")
        assert nc_closure(x) == x

    def test_nc_join_beats_plain_join(self):
        x, y = parse_partition("13|2|4"), parse_partition("1|24|3")
        assert labelled_join_partition(x, y) == parse_partition("13|24")
        assert nc_join(x, y) == parse_partition("1234")

    def test_nc_ops_reject_crossing_input(self):
        with pytest.raises(PartitionError):
            nc_join(parse_partition("13|24"), parse_partition("1|2|3|4"))
        with pytest.raises(PartitionError):
            nc_meet(parse_partition("13|24"), parse_partition("1|2|3|4"))


class TestMeetJoin:
    def test_meet_examples(self):
        x, y = parse_partition("123|4"), parse_partition("1|234")
        assert meet_partition(x, y) == parse_partition("1|23|4")

    def test_mismatched_ground_sets(self):
        with pytest.raises(PartitionError):
            meet_partition(SetPartition.bottom(3), SetPartition.bottom(4))

    @given(random_partition(6), random_partition(6))
    @settings(max_examples=150, deadline=None)
    def test_meet_is_greatest_lower_bound(self, x, y):
        m = meet_partition(x, y)
        assert m.leq_dref(x) and m.leq_dref(y)
        # greatest: any common lower bound is below the meet
        j = labelled_join_partition(x, y)
        assert x.leq_dref(j) and y.leq_dref(j)
        assert m.leq_dref(j)

    @given(random_partition(5), random_partition(5), random_partition(5))
    @settings(max_examples=100, deadline=None)
    def test_lattice_axioms(self, x, y, z):
        assert meet_partition(x, y) == meet_partition(y, x)
        assert labelled_join_partition(x, y) == labelled_join_partition(y, x)
        assert labelled_join_partition(x, labelled_join_partition(y, z)) == \
            labelled_join_partition(labelled_join_partition(x, y), z)
        assert meet_partition(x, meet_partition(y, z)) == \
            meet_partition(meet_partition(x, y), z)
        assert labelled_join_partition(x, meet_partition(x, y)) == x
        assert meet_partition(x, labelled_join_partition(x, y)) == x

    @given(random_partition(6), random_partition(6))
    @settings(max_examples=100, deadline=None)
    def test_leq_iff_meet(self, x, y):
        assert x.leq_dref(y) == (meet_partition(x, y) == x)
        assert x.leq_dref(y) == (labelled_join_partition(x, y) == y)


# -- oracle: the pairwise and fixpoint definitions on block tuples ----------

def blocks_cross(a, b):
    """a and b cross iff their elements alternate a, b, a, b somewhere."""
    merged = sorted([(e, 0) for e in a] + [(e, 1) for e in b])
    alternations = sum(
        1 for (_, s), (_, t) in zip(merged, merged[1:]) if s != t)
    return alternations >= 3


def oracle_blocks(code):
    """Blocks of a restricted growth string, each sorted, by minimum."""
    groups = {}
    for e, c in enumerate(code, start=1):
        groups.setdefault(c, []).append(e)
    return tuple(sorted((tuple(sorted(b)) for b in groups.values()),
                        key=lambda b: b[0]))


def oracle_is_noncrossing(x):
    return not any(blocks_cross(a, b) for a, b in combinations(x.blocks, 2))


def oracle_nc_closure(x):
    """Merge a crossing pair and restart, until no pair crosses."""
    blocks = [set(b) for b in x.blocks]
    changed = True
    while changed:
        changed = False
        for i, j in combinations(range(len(blocks)), 2):
            if blocks_cross(sorted(blocks[i]), sorted(blocks[j])):
                blocks[i] |= blocks.pop(j)
                changed = True
                break
    return SetPartition.of(x.n, blocks)


def oracle_meet(x, y):
    return SetPartition.of(x.n, [set(b) & set(c) for b in x.blocks
                                 for c in y.blocks if set(b) & set(c)])


def oracle_join(x, y):
    """Connected components of the elements linked by a block of x or y."""
    blocks = [set(b) for b in x.blocks]
    for c in y.blocks:
        touched = [b for b in blocks if b & set(c)]
        blocks = [b for b in blocks if not b & set(c)] + [set().union(*touched)]
    return SetPartition.of(x.n, blocks)


def oracle_leq(x, y):
    return all(any(set(b) <= set(c) for c in y.blocks) for b in x.blocks)


def oracle_merge(x, i, j):
    bi = next(b for b in x.blocks if i in b)
    bj = next(b for b in x.blocks if j in b)
    rest = [b for b in x.blocks if b not in (bi, bj)]
    return SetPartition.of(x.n, rest + [set(bi) | set(bj)])


class TestOracle:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_unary_operations(self, n):
        for x in enumerate_partitions(n):
            assert x.blocks == oracle_blocks(x.code)
            assert SetPartition.of(n, reversed(x.blocks)) == x
            assert x.is_noncrossing == oracle_is_noncrossing(x)
            assert nc_closure(x) == oracle_nc_closure(x)
            assert len(x.blocks) == max(x.code) + 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_binary_operations(self, n):
        """Every pair at n <= 5; from n = 6 on, every x against a fixed
        sample of 8 partners."""
        members = enumerate_partitions(n)
        rng = random.Random(n)
        for x in members:
            partners = members if n <= 5 else rng.sample(members, 8)
            for y in partners:
                assert meet_partition(x, y) == oracle_meet(x, y)
                assert labelled_join_partition(x, y) == oracle_join(x, y)
                assert x.leq_dref(y) == oracle_leq(x, y)
            i, j = rng.randint(1, n), rng.randint(1, n)
            assert x.merge(i, j) == oracle_merge(x, i, j)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_merged_code(self, n):
        """Every block pair of every partition of [n]."""
        for x in enumerate_partitions(n):
            for a, b in combinations(range(len(x.blocks)), 2):
                want = oracle_merge(x, x.blocks[a][0], x.blocks[b][0])
                assert x.merged_code(a, b) == want.code


class TestJoinKernels:
    """The code-level join and closure against the labelled oracles they
    replaced."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_nc_closure_on_every_partition(self, n):
        for x in enumerate_partitions(n):
            assert nc_closure(x) == labelled_nc_closure(x)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_nc_join_on_every_pair(self, n):
        members = enumerate_noncrossing(n)
        for x in members:
            for y in members:
                assert nc_join(x, y) == labelled_nc_join(x, y)

    @pytest.mark.parametrize("n", (8, 9, 10))
    def test_nc_join_on_sampled_pairs(self, n):
        members = enumerate_noncrossing(n)
        rng = random.Random(n)
        for _ in range(1500):
            x, y = rng.choice(members), rng.choice(members)
            assert nc_join(x, y) == labelled_nc_join(x, y)

    def test_closure_is_known_noncrossing(self, monkeypatch):
        """A closure result used as a join input is not closed again, and a
        crossing input is still rejected."""
        x = parse_partition("13|24|5")
        w = nc_closure(x)
        assert w == parse_partition("1234|5")
        calls = []

        def counted(z):
            calls.append(z)
            return nc_closure(z)

        monkeypatch.setattr("ncpe.partitions.nc_closure", counted)
        assert w.is_noncrossing and not calls
        z = parse_partition("1|2|3|45")
        assert nc_join(w, z) == SetPartition.top(5)
        assert calls == [z]  # the unclosed right input; the join is not re-closed
        with pytest.raises(PartitionError):
            nc_join(w, x)

    def test_one_partition_per_join(self, monkeypatch):
        """`nc_join` constructs its result and no other partition: not the
        plain join 13|24|5, which the closure merges into 1234|5."""
        x, y = parse_partition("13|2|4|5"), parse_partition("1|24|3|5")
        assert x.is_noncrossing and y.is_noncrossing  # closed before counting
        built = []
        init = SetPartition.__post_init__
        monkeypatch.setattr(SetPartition, "__post_init__",
                            lambda self: built.append(self.code) or init(self))
        assert nc_join(x, y).code == (0, 0, 0, 0, 1)
        assert built == [(0, 0, 0, 0, 1)]
