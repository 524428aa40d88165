"""Maximal chains of the noncrossing lattice as parking functions, the
chain family avoiding the label n-1, and the chain-defined order on the
PE family.

The parking labeling sends each maximal chain of the noncrossing
lattice to a parking function of length n-1 (bijectively).  By
definition, the chain-defined order is the cover union of the chains
whose word avoids n-1; it is built here as the dual refinement order
on PE minus its covers labeled n-1, and the avoiding chains are read
off as its maximal chains.  The definition itself (enumerate the
chains of the noncrossing lattice and keep the avoiding ones) is the
test oracle.  The order is graded but not a lattice for n >= 5, its
Moebius value between bottom and top is 0, and the restricted
left-modular labeling is still an EL-labeling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .builders import BuildError, build_pe_dref, distinguished_chain
from .labelings import (EdgeLabeling, ELVerdict, count_decreasing_chains,
                        left_modular_labeling, parking_label, verify_el)
from .partitions import SetPartition
from .posets import FinitePoset, PosetError

PCHN_MIN_N = 3
PCHN_MAX_N = 8


def is_parking_function(word: Sequence[int]) -> bool:
    """At least k entries are <= k, for every k up to the length."""
    if any(f < 1 for f in word):
        raise ValueError(f"entries must be positive: {word}")
    ordered = sorted(word)
    return all(f <= k for k, f in enumerate(ordered, start=1))


def chain_parking_word(chain: Sequence[SetPartition]) -> tuple[int, ...]:
    """Label word of a maximal chain of the noncrossing lattice."""
    if not chain:
        raise PosetError("empty chain")
    n = chain[0].n
    if chain[0] != SetPartition.bottom(n) or chain[-1] != SetPartition.top(n):
        raise PosetError("chain must run from the discrete to the full partition")
    for x in chain:
        if not x.is_noncrossing:
            raise PosetError(f"chain element is crossing: {x}")
    # parking_label rejects any step that is not a two-block merge, so a
    # chain that survives labeling is maximal
    return tuple(parking_label(x, y) for x, y in zip(chain, chain[1:]))


def _check_n(n: int) -> None:
    if not (PCHN_MIN_N <= n <= PCHN_MAX_N):
        raise BuildError(
            f"chain machinery supports {PCHN_MIN_N} <= n <= {PCHN_MAX_N}, got n={n}")


def _split_covers(pe: FinitePoset, n: int
                  ) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The dref covers of PE, each labeled once: those whose parking
    label is not n-1 (kept) and those labeled n-1 (removed)."""
    kept: list[tuple[int, int]] = []
    removed: list[tuple[int, int]] = []
    for i, j in pe.covers:
        side = removed if parking_label(pe.keys[i], pe.keys[j]) == n - 1 else kept
        side.append((i, j))
    return kept, removed


def build_pe_pchn(n: int) -> FinitePoset:
    """The chain-defined order on the PE ground set: the dref covers
    whose parking label is not n-1, closed transitively."""
    _check_n(n)
    pe = build_pe_dref(n)
    kept, _ = _split_covers(pe, n)
    return FinitePoset.from_covers(pe.keys, kept)


def build_D(n: int) -> list[tuple[SetPartition, ...]]:
    """The maximal chains of the noncrossing lattice whose parking word
    avoids the value n-1: the maximal chains of the chain-defined order,
    lexicographically by element index."""
    p = build_pe_pchn(n)
    return [tuple(p.keys[v] for v in chain) for chain in p.iter_maximal_chains()]


def count_D(n: int) -> int:
    """Size of the avoiding-chain family without storing chains: path
    count from bottom to top of the chain-defined order."""
    p = build_pe_pchn(n)
    return p.path_counts(p.covers)[0][p.top]


def removed_covers(n: int) -> list[tuple[SetPartition, SetPartition]]:
    """The dref covers of PE absent from the chain-defined order: those
    carrying parking label n-1."""
    pe = build_pe_dref(n)
    _, removed = _split_covers(pe, n)
    return [(pe.keys[i], pe.keys[j]) for i, j in removed]


@dataclass
class RestrictionVerdict:
    n: int
    removed: list[tuple[SetPartition, SetPartition]]
    witnesses: list[tuple[SetPartition, SetPartition, SetPartition]]
    el: ELVerdict
    decreasing_chains: int
    mobius: int

    @property
    def ok(self) -> bool:
        return self.el.el and self.decreasing_chains == 0 and self.mobius == 0


def dominating_witness(x: SetPartition, y: SetPartition,
                       labeling: EdgeLabeling) -> SetPartition:
    """For a dref cover (x, y) of PE with parking label n-1: the element
    y' obtained by merging the block of 1 with the singleton {n}.  It is
    checked to be a retained cover of x with strictly smaller
    left-modular label, namely 1 (while (x, y) carries label min B for
    the block B of x merged into n)."""
    n = x.n
    if parking_label(x, y) != n - 1:
        raise BuildError(f"cover ({x}, {y}) is not labeled {n - 1}")
    y_prime = x.merge(1, n)
    poset = labeling.poset
    xi, yi, yp = poset.index(x), poset.index(y), poset.index(y_prime)
    if (xi, yp) not in labeling.labels:
        raise AssertionError(f"witness {y_prime} is not a cover of {x}")
    if parking_label(x, y_prime) >= n - 1:
        raise AssertionError(f"witness cover ({x}, {y_prime}) is not retained")
    lam_removed = labeling.labels[(xi, yi)]
    lam_witness = labeling.labels[(xi, yp)]
    block_b = next(b for b in x.blocks if n - 1 in b)
    if lam_witness != 1 or lam_removed != min(block_b):
        raise AssertionError(
            f"unexpected labels on ({x}, {y}): removed={lam_removed}, "
            f"witness={lam_witness}, min B={min(block_b)}")
    return y_prime


def verify_restriction_el(n: int) -> RestrictionVerdict:
    """Check that dropping the covers labeled n-1 preserves the
    EL-property of the left-modular labeling: every removed cover is
    dominated by a retained one out of the same element, the restricted
    labeling is EL on the chain-defined poset, and that poset has no
    weakly decreasing maximal chain and Moebius value 0."""
    _check_n(n)
    pe = build_pe_dref(n)
    lam = left_modular_labeling(pe, distinguished_chain(n))
    kept, removed_pairs = _split_covers(pe, n)
    removed = [(pe.keys[i], pe.keys[j]) for i, j in removed_pairs]
    witnesses = [(x, y, dominating_witness(x, y, lam)) for x, y in removed]
    pchn = FinitePoset.from_covers(pe.keys, kept)
    restricted = lam.restrict(pchn)
    verdict = verify_el(pchn, restricted)
    decreasing = count_decreasing_chains(pchn, restricted)
    return RestrictionVerdict(
        n=n, removed=removed, witnesses=witnesses, el=verdict,
        decreasing_chains=decreasing, mobius=pchn.moebius_bottom_top())
