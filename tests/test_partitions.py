"""Core set-partition type, order predicates, and lattice operations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpe.partitions import (MAX_N, PartitionError, SetPartition,
                             join_partition, meet_partition, nc_closure,
                             nc_join, nc_meet, parse_partition)


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

    def test_noncanonical_rejected(self):
        with pytest.raises(PartitionError):
            SetPartition(3, ((2, 1), (3,)))

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
        assert parse_partition("14|23").rank() == 2
        assert SetPartition.bottom(5).rank() == 0
        assert SetPartition.top(5).rank() == 4

    def test_same_block(self):
        x = parse_partition("14|23")
        assert x.same_block(1, 4) and not x.same_block(1, 2)
        with pytest.raises(PartitionError):
            x.same_block(0, 1)


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
        assert join_partition(x, y) == parse_partition("13|24")
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
        j = join_partition(x, y)
        assert x.leq_dref(j) and y.leq_dref(j)
        assert m.leq_dref(j)

    @given(random_partition(5), random_partition(5), random_partition(5))
    @settings(max_examples=100, deadline=None)
    def test_lattice_axioms(self, x, y, z):
        assert meet_partition(x, y) == meet_partition(y, x)
        assert join_partition(x, y) == join_partition(y, x)
        assert join_partition(x, join_partition(y, z)) == \
            join_partition(join_partition(x, y), z)
        assert meet_partition(x, meet_partition(y, z)) == \
            meet_partition(meet_partition(x, y), z)
        assert join_partition(x, meet_partition(x, y)) == x
        assert meet_partition(x, join_partition(x, y)) == x

    @given(random_partition(6), random_partition(6))
    @settings(max_examples=100, deadline=None)
    def test_leq_iff_meet(self, x, y):
        assert x.leq_dref(y) == (meet_partition(x, y) == x)
        assert x.leq_dref(y) == (join_partition(x, y) == y)
