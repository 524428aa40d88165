"""Edge labelings: left-modular, parking, and the classical scheme, with
exhaustive EL verification."""

from itertools import product

import pytest

from ncpe.builders import (build_nc, build_pe_dref, build_pi, distinguished_chain,
                           enumerate_partitions)
from ncpe.labelings import (LabelingError, count_decreasing_chains, is_rising,
                            is_weakly_decreasing, left_modular_labeling,
                            parking_label, parking_labeling, usual_labeling,
                            verify_el, verify_sn_el)
from ncpe.parking import build_pe_pchn
from ncpe.partitions import SetPartition, parse_partition
from reference import (block_set_parking_label, meet_form_labels,
                       unique_rising_chain)


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
        from ncpe.labelings import EdgeLabeling
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

    @pytest.mark.parametrize("build,n", [(build_nc, n) for n in range(3, 8)]
                             + [(build_pe_dref, n) for n in range(3, 9)],
                             ids=[f"nc{n}" for n in range(3, 8)]
                             + [f"pe{n}" for n in range(3, 9)])
    def test_equals_meet_form(self, build, n):
        """The join form (least t with z <= y v c_t) equals the meet form
        (least t with c_t ^ z not below y) on every cover."""
        p, lam = leftmod(n, build)
        assert lam.labels == meet_form_labels(p, distinguished_chain(n))


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

    def test_restriction(self):
        n = 4
        p, lam = leftmod(n)
        pchn = build_pe_pchn(n)
        restricted = lam.restrict(pchn)
        assert len(restricted.labels) == len(pchn.covers)
        assert count_decreasing_chains(pchn, restricted) == 0
