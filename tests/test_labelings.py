"""Edge labelings: left-modular, parking, and the classical scheme, with
exhaustive EL verification."""

import re
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpe.builders import (build_nc, build_pe_dref, build_pi, distinguished_chain,
                           enumerate_partitions)
from ncpe.cli import _build, _labeling
from ncpe.labelings import (EdgeLabeling, LabelingError, count_decreasing_chains,
                            is_rising, left_modular_labeling, parking_label,
                            parking_labeling, usual_labeling, verify_el, verify_sn_el)
from ncpe.parking import build_pe_pchn
from ncpe.partitions import SetPartition, parse_partition
from ncpe.posets import FinitePoset, PosetError
from reference import (Built, block_set_parking_label, code_scan_parking_label,
                       count_decreasing_chains_by_words, is_weakly_decreasing,
                       meet_form_labels, unique_rising_chain, verify_el_by_intervals,
                       verify_sn_el_by_chains)

def label_or_error(label, x, y):
    try:
        return label(x, y)
    except LabelingError as exc:
        return str(exc)


def leftmod(n, build=build_pe_dref):
    p = build(n)
    return p, left_modular_labeling(p, distinguished_chain(n))


class TestWords:
    def test_predicates(self):
        assert is_rising((1, 2, 5))
        assert not is_rising((1, 1, 2))
        assert is_weakly_decreasing((3, 3, 1))
        assert not is_weakly_decreasing((1, 2))

    def test_domain_must_match_covers(self):
        p = build_pe_dref(4)
        with pytest.raises(LabelingError):
            EdgeLabeling(p, {})


class TestLeftModularLabeling:
    def test_frozen_pe4_labels(self):
        p, lam = leftmod(4)
        want = {
            ("1|2|3|4", "14|2|3"): 1,
            ("1|2|3|4", "1|23|4"): 3,
            ("1|2|3|4", "1|24|3"): 2,
            ("14|2|3", "134|2"): 3,
            ("1|23|4", "1|234"): 2,
            ("124|3", "1234"): 3,
        }
        for (x, y), value in want.items():
            edge = (p.index(parse_partition(x)), p.index(parse_partition(y)))
            assert lam.labels[edge] == value

    def test_labels_lie_in_rank_range(self):
        for n in (4, 5):
            p, lam = leftmod(n)
            assert set(lam.labels.values()) <= set(range(1, p.rank() + 1))

    def test_requires_left_modular_chain(self):
        p = build_pe_dref(4)
        bad = [parse_partition(s) for s in ("1|2|3|4", "1|23|4", "1|234", "1234")]
        with pytest.raises(LabelingError):
            left_modular_labeling(p, bad)

    @pytest.mark.parametrize("n", range(3, 6))
    @pytest.mark.parametrize("build", [build_nc, build_pe_dref])
    def test_el_and_sn(self, n, build):
        p, lam = leftmod(n, build)
        assert verify_el(p, lam).el
        assert verify_sn_el(p, lam)

    @pytest.mark.parametrize("n", range(3, 6))
    def test_rising_chain_is_distinguished(self, n):
        p, lam = leftmod(n)
        rising = unique_rising_chain(p, lam)
        assert tuple(p.keys[v] for v in rising) == distinguished_chain(n)

    @pytest.mark.parametrize("built", [Built("nc", n) for n in range(3, 8)]
                             + [Built("pe-dref", n) for n in range(3, 9)],
                             ids=[f"nc{n}" for n in range(3, 8)]
                             + [f"pe{n}" for n in range(3, 9)])
    def test_equals_meet_form(self, built):
        """The join form (least t with z <= y v c_t) equals the meet form
        (least t with c_t ^ z not below y) on every cover; the meet form
        reads the tables of the poset shared per (target, n)."""
        chain = distinguished_chain(built.n)
        lam = left_modular_labeling(built(), chain)
        assert lam.labels == meet_form_labels(built.oracle(), chain)


class TestParkingLabeling:
    def test_label_examples(self):
        assert parking_label(parse_partition("1|2|3|4"),
                             parse_partition("12|3|4")) == 1
        assert parking_label(parse_partition("12|3|4"),
                             parse_partition("12|34")) == 3
        assert parking_label(parse_partition("12|34"),
                             parse_partition("1234")) == 2
        assert parking_label(parse_partition("14|2|3"),
                             parse_partition("134|2")) == 1
        assert parking_label(parse_partition("124|3"),
                             parse_partition("1234")) == 2

    def test_non_cover_rejected(self):
        with pytest.raises(LabelingError):
            parking_label(parse_partition("1|2|3|4"), parse_partition("123|4"))

    def test_equals_block_set_rule_on_all_pairs(self):
        # every ordered pair of Pi_4 u Pi_5, mixed ground sets included:
        # the same label, or the same LabelingError
        family = enumerate_partitions(4) + enumerate_partitions(5)
        for x, y in product(family, repeat=2):
            assert (label_or_error(parking_label, x, y)
                    == label_or_error(block_set_parking_label, x, y)), (x, y)

    @pytest.mark.parametrize("build,n", [(build_pi, 6), (build_nc, 8)])
    def test_equals_block_set_rule_on_covers(self, build, n):
        p = build(n)
        for i, j in p.covers:
            x, y = p.keys[i], p.keys[j]
            assert parking_label(x, y) == block_set_parking_label(x, y), (x, y)

    @pytest.mark.parametrize("build,n", [(build_pi, 5), (build_nc, 7), (build_pe_dref, 8)])
    def test_equals_code_scan_on_covers(self, build, n):
        p = build(n)
        for i, j in p.covers:
            x, y = p.keys[i], p.keys[j]
            assert parking_label(x, y) == code_scan_parking_label(x, y), (x, y)

    def test_labeling_builds_no_partition(self, monkeypatch):
        p = build_nc(7)
        created = []
        original = SetPartition.__post_init__

        def counting(self):
            created.append(self)
            original(self)

        monkeypatch.setattr(SetPartition, "__post_init__", counting)
        parking_labeling(p)
        assert created == []

    @pytest.mark.parametrize("n", range(3, 6))
    def test_usual_is_el_on_nc(self, n):
        p = build_nc(n)
        assert verify_el(p, usual_labeling(p)).el

    def test_usual_fails_el_on_pchn_already_at_3(self):
        p = build_pe_pchn(3)
        verdict = verify_el(p, usual_labeling(p))
        assert not verdict.el
        assert verdict.witness["interval"] == ("1|2|3", "123")
        assert verdict.witness["rising_chains"] == []

    def test_usual_plus_parking_is_n(self):
        p = build_nc(5)
        parking = parking_labeling(p)
        usual = usual_labeling(p)
        assert all(parking.labels[e] + usual.labels[e] == 5
                   for e in parking.labels)


class TestDecreasingChains:
    @pytest.mark.parametrize("n,nc_count,pe_count", [(4, 5, 1), (5, 14, 4),
                                                     (6, 42, 14)])
    def test_counts_match_mobius_magnitude(self, n, nc_count, pe_count):
        p, lam = leftmod(n, build_nc)
        assert count_decreasing_chains(p, lam) == nc_count
        q, mu = leftmod(n)
        assert count_decreasing_chains(q, mu) == pe_count

    def test_restrict_to_foreign_keys_rejected(self):
        _, lam = leftmod(4)
        with pytest.raises(LabelingError, match="not in original poset"):
            lam.restrict(build_nc(4))

    def test_restrict_needs_the_same_key_order_and_original_covers(self):
        """Covers are matched by index pair, so the keys must come in the
        original order, and every cover must be one of the original's."""
        p, lam = leftmod(4)
        last = len(p.keys) - 1
        reversed_order = FinitePoset.from_covers(
            p.keys[::-1], [(last - i, last - j) for i, j in p.covers])
        with pytest.raises(LabelingError, match="not in its order"):
            lam.restrict(reversed_order)
        shortcut = FinitePoset.from_covers(p.keys, [(p.bottom, p.top)])
        with pytest.raises(LabelingError, match=re.escape("cover 1|2|3|4 < 1234 not in")):
            lam.restrict(shortcut)

    def test_restriction(self):
        n = 4
        p, lam = leftmod(n)
        pchn = build_pe_pchn(n)
        restricted = lam.restrict(pchn)
        assert len(restricted.labels) == len(pchn.covers)
        assert count_decreasing_chains(pchn, restricted) == 0


@lru_cache(maxsize=None)
def labeled(target, n, scheme):
    p, dref = _build(target, n)
    return p, _labeling(n, p, dref, scheme)


# pentagon: bottom < a < c < top (word (l01, l13, l34)), bottom < b < top
# (word (l02, l24)); each case gives the long word, then the short one
N5_COVERS = [(0, 1), (1, 3), (3, 4), (0, 2), (2, 4)]
N5 = FinitePoset.from_covers(["0", "a", "b", "c", "1"], N5_COVERS)
N5_WORDS = {
    "el": ((1, 2, 3), (2, 1)),
    "short-rising-prefix": ((1, 2, 3), (1, 2)),
    "short-least": ((1, 2, 3), (1, 0)),
    "short-least-tie": ((1, 2, 3), (1, 1)),
    "prefix-then-zero": ((1, 2, 0), (1, 2)),
    "fails-above-bottom": ((1, 3, 2), (0, 5)),
}


# hexagon: two strands 0 < a < c < 1 (first three covers) and 0 < b < d < 1;
# graded of rank 3, and each interval of length two is a single chain
HEXAGON_COVERS = [(0, 1), (1, 3), (3, 5), (0, 2), (2, 4), (4, 5)]
HEXAGON = FinitePoset.from_covers(["0", "a", "b", "c", "d", "1"], HEXAGON_COVERS)

# a diamond given top first, so that index order is not rank order; its
# covers are 0 < a, a < 1, 0 < b, b < 1
DIAMOND_COVERS = [(3, 2), (2, 0), (3, 1), (1, 0)]
DIAMOND = FinitePoset.from_covers(["1", "b", "a", "0"], DIAMOND_COVERS)
# two routes of different lengths to w below the top: 0 < a < w (first two
# covers) and 0 < b < c < w, then w < 1; the walk from 0 reads the short one first
TWO_LENGTHS_COVERS = [(0, 1), (1, 4), (4, 5), (0, 2), (2, 3), (3, 4)]
TWO_LENGTHS = FinitePoset.from_covers(["0", "a", "b", "c", "w", "1"], TWO_LENGTHS_COVERS)
SMALL_POSETS = {"N5": N5, "hexagon": HEXAGON, "diamond": DIAMOND,
                "two-lengths": TWO_LENGTHS, "nc4": build_nc(4)}


def listing_log(monkeypatch):
    """(x, y, number of chains) of every `interval_maximal_chains` call."""
    log = []
    original = FinitePoset.interval_maximal_chains

    def logged(self, x, y):
        chains = original(self, x, y)
        log.append((x, y, len(chains)))
        return chains

    monkeypatch.setattr(FinitePoset, "interval_maximal_chains", logged)
    return log


def pentagon_labeling(long, short):
    return EdgeLabeling(N5, dict(zip(N5_COVERS, long + short)))


def swapped(lam):
    """The labels of the first two covers out of the bottom that differ,
    exchanged."""
    bottom = lam.poset.bottom
    first, *rest = [e for e in lam.poset.covers if e[0] == bottom]
    other = next(e for e in rest if lam.labels[e] != lam.labels[first])
    labels = dict(lam.labels)
    labels[first], labels[other] = labels[other], labels[first]
    return EdgeLabeling(lam.poset, labels)


def assert_matches_definitions(p, lam):
    """`verify_el` gives the verdict and witness of the per-interval
    definition, and `count_decreasing_chains` the count of the chains
    whose whole word weakly decreases."""
    verdict = verify_el(p, lam)
    assert verdict == verify_el_by_intervals(p, lam)
    assert count_decreasing_chains(p, lam) == count_decreasing_chains_by_words(p, lam)
    return verdict


class TestELOracle:
    """`verify_el` walks once per lower endpoint; the per-interval
    definition must give the same verdict and the same witness.  The
    decreasing-chain count, which reads the same kind of walk, must
    equal its definition on each case."""

    @pytest.mark.parametrize("scheme", ["left-modular", "usual", "parking"])
    @pytest.mark.parametrize("target,n", [(t, n) for t in ("nc", "pe-dref", "pe-pchn")
                                          for n in range(3, 8)])
    def test_partition_posets(self, target, n, scheme):
        assert_matches_definitions(*labeled(target, n, scheme))

    @pytest.mark.parametrize("scheme", ["usual", "parking"])
    @pytest.mark.parametrize("n", [4, 5])
    def test_full_partition_lattice(self, n, scheme):
        assert_matches_definitions(*labeled("pi", n, scheme))

    @pytest.mark.parametrize("case", N5_WORDS)
    def test_pentagon_words_of_different_lengths(self, case):
        verdict = assert_matches_definitions(N5, pentagon_labeling(*N5_WORDS[case]))
        assert verdict.el == (case == "el")

    def test_pentagon_witnesses(self):
        least = verify_el(N5, pentagon_labeling(*N5_WORDS["short-least"]))
        assert least.witness == {"interval": ("0", "1"),
                                 "rising_chains": [["0", "a", "c", "1"]],
                                 "words": [(1, 0), (1, 2, 3)]}
        above = verify_el(N5, pentagon_labeling(*N5_WORDS["fails-above-bottom"]))
        assert above.witness["interval"] == ("a", "1")

    @pytest.mark.parametrize("target,n", [("nc", 5), ("pe-dref", 6), ("pe-pchn", 6)])
    def test_mutated_labelings_fail_alike(self, target, n):
        p, lam = labeled(target, n, "left-modular")
        flat = EdgeLabeling(p, dict.fromkeys(lam.labels, 1))
        for bad in (swapped(lam), flat):
            verdict = verify_el(p, bad)
            assert not verdict.el
            assert verdict == verify_el_by_intervals(p, bad)

    @pytest.mark.parametrize("target,n", [("nc", 6), ("pe-dref", 7), ("pe-pchn", 7)])
    def test_one_walk_per_lower_endpoint(self, target, n, monkeypatch):
        p, lam = labeled(target, n, "left-modular")
        log = listing_log(monkeypatch)
        assert verify_el(p, lam).el
        assert len(log) <= len(p.keys) - 1
        assert len({x for x, _, _ in log}) == len(log)

    @pytest.mark.parametrize("target,n,scheme", [("nc", 8, "parking"),
                                                 ("pe-dref", 8, "usual"),
                                                 ("pe-pchn", 8, "usual")])
    def test_failing_labeling_lists_few_chains(self, target, n, scheme, monkeypatch):
        """These labelings first fail in an interval of length two above the
        bottom: `verify_el` lists no more chains than the per-interval check
        and never walks to the top."""
        p, lam = labeled(target, n, scheme)
        log = listing_log(monkeypatch)
        verdict = verify_el(p, lam)
        ours = list(log)
        log.clear()
        assert verdict == verify_el_by_intervals(p, lam)
        assert not verdict.el
        assert sum(count for _, _, count in ours) <= sum(count for _, _, count in log)
        assert all(y != p.top for _, y, _ in ours)

    def test_failure_beyond_length_two(self):
        """Both strands of the hexagon rise, so every interval of length two
        passes and only the walk from the bottom finds [0, 1] failing."""
        lam = EdgeLabeling(HEXAGON, dict(zip(HEXAGON_COVERS, (1, 2, 3, 2, 3, 4))))
        verdict = assert_matches_definitions(HEXAGON, lam)
        assert verdict.witness == {
            "interval": ("0", "1"),
            "rising_chains": [["0", "a", "c", "1"], ["0", "b", "d", "1"]],
            "words": [(1, 2, 3), (2, 3, 4)]}

    def test_prune_compares_prefixes_of_one_length(self):
        """From 0 the prefix 0 < a < w, word (1, 2), is read before
        0 < b < c < w, word (1, 2, 1), which does not rise and is the
        larger word.  Yet (1, 2, 1, 3) < (1, 2, 3), so [0, 1] fails on its
        least word; a prune that compared prefixes of different lengths
        would skip that chain, pass every interval above 0 and report
        [b, w] instead."""
        lam = EdgeLabeling(TWO_LENGTHS, dict(zip(TWO_LENGTHS_COVERS, (1, 2, 3, 1, 2, 1))))
        verdict = assert_matches_definitions(TWO_LENGTHS, lam)
        assert verdict.witness == {"interval": ("0", "1"),
                                   "rising_chains": [["0", "a", "w", "1"]],
                                   "words": [(1, 2, 1, 3), (1, 2, 3)]}

    def test_witness_is_the_failing_interval_of_least_index(self):
        """Both routes from 0 to w rise, so [0, w] and [0, 1] fail, and
        neither has length two: the witness is [0, w], w being of lower
        index than the top."""
        lam = EdgeLabeling(TWO_LENGTHS, dict(zip(TWO_LENGTHS_COVERS, (1, 2, 4, 1, 2, 3))))
        verdict = assert_matches_definitions(TWO_LENGTHS, lam)
        assert verdict.witness == {"interval": ("0", "w"),
                                   "rising_chains": [["0", "a", "w"], ["0", "b", "c", "w"]],
                                   "words": [(1, 2), (1, 2, 3)]}

    @pytest.mark.parametrize("name", SMALL_POSETS)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_small_labels(self, name, data):
        """Labels in [-3, 3], so zero and negative labels, ties, and (on
        the pentagon and the two-lengths poset) words of different lengths
        all occur: the two places where an int encoding of the words can
        go wrong, and the one where a prune of dominated prefixes can."""
        p = SMALL_POSETS[name]
        labels = data.draw(st.lists(st.integers(-3, 3), min_size=len(p.covers),
                                    max_size=len(p.covers)))
        assert_matches_definitions(p, EdgeLabeling(p, dict(zip(p.covers, labels))))


# a chain of rank 3
CHAIN3_COVERS = [(0, 1), (1, 2), (2, 3)]
CHAIN3 = FinitePoset.from_covers(["0", "a", "b", "1"], CHAIN3_COVERS)
SN_GRID = ([(t, n, s) for t in ("nc", "pe-dref", "pe-pchn") for n in range(3, 9)
            for s in ("left-modular", "parking", "usual")]
           + [("pi", n, s) for n in range(3, 6) for s in ("parking", "usual")])


class TestSnEL:
    """`verify_sn_el` passes once over the covers; walking every maximal
    chain must give the same verdict."""

    @pytest.mark.parametrize("target,n,scheme", SN_GRID,
                             ids=[f"{t}{n}-{s}" for t, n, s in SN_GRID])
    def test_grid_matches_walk(self, target, n, scheme):
        p, lam = labeled(target, n, scheme)
        assert verify_sn_el(p, lam) == verify_sn_el_by_chains(p, lam)

    @pytest.mark.parametrize("target", ["nc", "pe-dref", "pe-pchn"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_perturbed_labelings_match_walk(self, target, data):
        """The left-modular labels renamed by a permutation of [r] (an
        S_n EL-labeling still), then a few covers relabeled from
        [-1, r + 1]."""
        n = data.draw(st.integers(3, 5))
        p, lam = labeled(target, n, "left-modular")
        r = p.rank()
        rename = data.draw(st.permutations(range(1, r + 1)))
        labels = {e: rename[label - 1] for e, label in lam.labels.items()}
        labels.update(data.draw(st.dictionaries(st.sampled_from(p.covers),
                                                st.integers(-1, r + 1), max_size=3)))
        bad = EdgeLabeling(p, labels)
        assert verify_sn_el(p, bad) == verify_sn_el_by_chains(p, bad)

    @pytest.mark.parametrize("label", [0, 4, -1, -10 ** 30, 10 ** 30],
                             ids=["zero", "r+1", "negative", "very-negative", "huge"])
    def test_label_outside_rank_range(self, label):
        p, lam = labeled("pe-dref", 4, "left-modular")
        assert p.rank() == 3
        for edge in (p.covers[0], p.covers[-1]):
            bad = EdgeLabeling(p, {**lam.labels, edge: label})
            assert verify_sn_el(p, bad) is False
            assert verify_sn_el_by_chains(p, bad) is False

    def test_diamond_one_chain_repeats(self):
        fine = EdgeLabeling(DIAMOND, dict(zip(DIAMOND_COVERS, (1, 2, 2, 1))))
        assert verify_sn_el(DIAMOND, fine) is True
        repeats = EdgeLabeling(DIAMOND, dict(zip(DIAMOND_COVERS, (1, 2, 2, 2))))
        assert verify_sn_el(DIAMOND, repeats) is False
        assert verify_sn_el_by_chains(DIAMOND, repeats) is False

    def test_repeat_two_covers_apart(self):
        lam = EdgeLabeling(CHAIN3, dict(zip(CHAIN3_COVERS, (1, 2, 1))))
        assert verify_sn_el(CHAIN3, lam) is False
        assert verify_sn_el(CHAIN3, EdgeLabeling(CHAIN3, dict(zip(CHAIN3_COVERS, (3, 1, 2)))))

    def test_not_graded_raises(self):
        lam = pentagon_labeling(*N5_WORDS["el"])
        with pytest.raises(PosetError, match="graded"):
            verify_sn_el(N5, lam)

    def test_reads_no_chain(self, monkeypatch):
        p, lam = labeled("pe-dref", 6, "left-modular")

        def forbidden(*args, **kwargs):
            raise AssertionError("verify_sn_el walked a chain")

        monkeypatch.setattr(FinitePoset, "iter_maximal_chains", forbidden)
        monkeypatch.setattr(FinitePoset, "_saturated_chains", forbidden)
        assert verify_sn_el(p, lam) is True
