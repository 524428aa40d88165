"""Definitions that only the tests use: the full Moebius table of a poset,
the unique rising maximal chain of an edge labeling, the parking label by
its block-set rule, and the chain family of the noncrossing lattice that
defines the chain-defined order on PE."""

from typing import Iterator

from ncpe.builders import build_nc, pe_members
from ncpe.labelings import EdgeLabeling, LabelingError, is_rising, parking_label
from ncpe.partitions import SetPartition
from ncpe.posets import FinitePoset


def moebius_table(p: FinitePoset) -> dict[tuple[int, int], int]:
    """mu(x, y) for every comparable pair, keyed by element positions."""
    return {(x, y): v for y in range(len(p.keys))
            for x, v in p._moebius_to(y).items()}


def unique_rising_chain(p: FinitePoset, labeling: EdgeLabeling) -> tuple[int, ...]:
    """The one maximal chain whose label word strictly increases."""
    rising = [c for c in p.iter_maximal_chains() if is_rising(labeling.word(c))]
    assert len(rising) == 1, f"expected one rising maximal chain, found {len(rising)}"
    return rising[0]


def block_set_parking_label(x: SetPartition, y: SetPartition) -> int:
    """The parking label by its definition on blocks: the two blocks of x
    that are not blocks of y must merge into y, and the label is the
    largest element of the lower one below the least element of the
    upper one."""
    joined = [b for b in x.blocks if b not in y.blocks]
    if len(joined) != 2 or x.merge(joined[0][0], joined[1][0]) != y:
        raise LabelingError(f"cover {x} < {y} is not a two-block merge")
    lower, upper = joined
    return max(j for j in lower if j <= upper[0])


def iter_all_chains(n: int) -> Iterator[tuple[SetPartition, ...]]:
    """All maximal chains of the noncrossing lattice, lexicographically
    by element index."""
    p = build_nc(n)
    for chain in p.iter_maximal_chains():
        yield tuple(p.keys[v] for v in chain)


def _avoiding_paths(n: int) -> tuple[FinitePoset, list[tuple[int, int]],
                                      list[int], list[int]]:
    """NC_n, its covers not labeled n-1, and the path counts along them
    from the bottom and to the top."""
    p = build_nc(n)
    kept = [(i, j) for i, j in p.covers
            if parking_label(p.keys[i], p.keys[j]) != n - 1]
    up, down = p.path_counts(kept)
    return p, kept, up, down


def avoiding_chain_count(n: int) -> int:
    """The number of maximal chains of NC_n whose parking word avoids n-1."""
    p, _, up, _ = _avoiding_paths(n)
    return up[p.top]


def chain_family_order(n: int) -> FinitePoset:
    """The chain-defined order by its definition: the covers that lie on
    some maximal chain of NC_n avoiding the label n-1, on the elements
    those chains pass through (checked to be the PE ground set), in the
    order of NC_n."""
    p, kept, up, down = _avoiding_paths(n)
    on_chain = [(i, j) for i, j in kept if up[i] > 0 and down[j] > 0]
    elements = sorted({v for c in on_chain for v in c})
    members = [p.keys[v] for v in elements]
    assert set(members) == set(pe_members(n)), f"ground set is not PE at n={n}"
    index = {v: k for k, v in enumerate(elements)}
    return FinitePoset.from_covers(
        members, [(index[i], index[j]) for i, j in on_chain])
