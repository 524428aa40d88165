"""Maximal chains of the noncrossing lattice as parking functions, the
chain family avoiding the label n-1, and the chain-defined order on the
PE family.

The parking labeling sends each maximal chain of the noncrossing
lattice to a parking function of length n-1 (bijectively).  Dropping
every chain whose word contains n-1 leaves a chain family whose cover
union defines a second, coarser order on exactly the PE ground set; that
poset is graded but not a lattice for n >= 5, its Moebius value between
bottom and top is 0, and the restricted left-modular labeling is still
an EL-labeling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .builders import (BuildError, build_nc, build_pe_dref, distinguished_chain,
                       pe_members)
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


def iter_all_chains(n: int) -> Iterator[tuple[SetPartition, ...]]:
    """All maximal chains of the noncrossing lattice, lexicographically
    by element index."""
    _check_n(n)
    p = build_nc(n)
    for chain in p.iter_maximal_chains():
        yield tuple(p.keys[v] for v in chain)


def build_D(n: int) -> list[tuple[SetPartition, ...]]:
    """The maximal chains whose parking word avoids the value n-1."""
    return [chain for chain in iter_all_chains(n)
            if n - 1 not in chain_parking_word(chain)]


def count_D(n: int) -> int:
    """Size of the avoiding-chain family without storing chains: path
    count from bottom to top through the covers not labeled n-1."""
    _check_n(n)
    p = build_nc(n)
    up, _ = p.path_counts(_retained_covers(p, n))
    return up[p.top]


def _retained_covers(p: FinitePoset, n: int) -> list[tuple[int, int]]:
    return [(i, j) for i, j in p.covers
            if parking_label(p.keys[i], p.keys[j]) != n - 1]


def build_pe_pchn(n: int) -> FinitePoset:
    """The poset on the PE ground set whose covers are those appearing
    in some chain of the avoiding family; the order is the transitive
    closure of these covers.

    Built twice and cross-checked: from the chain family (the
    definition), and as the dref cover relation minus the covers labeled
    n-1.  The ground set is asserted to be exactly the PE family.
    """
    _check_n(n)
    p = build_nc(n)
    retained = _retained_covers(p, n)
    up, down = p.path_counts(retained)
    on_chain = [(i, j) for i, j in retained if up[i] > 0 and down[j] > 0]
    elements = sorted({v for c in on_chain for v in c})
    if {p.keys[v] for v in elements} != set(pe_members(n)):
        raise AssertionError(f"chain-union ground set differs from PE at n={n}")
    chain_covers = {(p.keys[i], p.keys[j]) for i, j in on_chain}

    pe = build_pe_dref(n)
    dref_covers = {(pe.keys[i], pe.keys[j]) for i, j in pe.covers
                   if parking_label(pe.keys[i], pe.keys[j]) != n - 1}
    if chain_covers != dref_covers:
        raise AssertionError(
            f"chain-union covers differ from label-filtered dref covers at n={n}")

    members = list(pe.keys)
    index = {x: i for i, x in enumerate(members)}
    return FinitePoset.from_covers(
        members, sorted((index[x], index[y]) for x, y in chain_covers))


def removed_covers(n: int) -> list[tuple[SetPartition, SetPartition]]:
    """The dref covers of PE absent from the chain-defined order; all of
    them carry parking label n-1."""
    pe = build_pe_dref(n)
    return [(pe.keys[i], pe.keys[j]) for i, j in pe.covers
            if parking_label(pe.keys[i], pe.keys[j]) == n - 1]


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
    lam = left_modular_labeling(pe, distinguished_chain(n).elements)
    removed = removed_covers(n)
    witnesses = [(x, y, dominating_witness(x, y, lam)) for x, y in removed]
    pchn = build_pe_pchn(n)
    restricted = lam.restrict(pchn)
    verdict = verify_el(pchn, restricted)
    decreasing = count_decreasing_chains(pchn, restricted)
    return RestrictionVerdict(
        n=n, removed=removed, witnesses=witnesses, el=verdict,
        decreasing_chains=decreasing, mobius=pchn.moebius_bottom_top())
