"""Definitions that only the tests use: a poset from its relation matrix,
the row-OR closure and sort-based topological order that `from_covers`
once used, the full Moebius table of a poset, the unique rising maximal
chain of an edge labeling, the parking label by its block-set rule, and
the chain family of the noncrossing lattice that defines the
chain-defined order on PE."""

from typing import Hashable, Iterator, Sequence

import numpy as np

from ncpe.builders import build_nc, pe_members
from ncpe.labelings import EdgeLabeling, LabelingError, is_rising, parking_label
from ncpe.partitions import SetPartition
from ncpe.posets import FinitePoset, PosetError


def from_leq_matrix(keys: Sequence[Hashable], leq: np.ndarray) -> FinitePoset:
    """The poset with the given relation matrix, checked to be a partial
    order; its covers are the transitive reduction."""
    keys = tuple(keys)
    check_partial_order(keys, leq)
    return FinitePoset(keys, leq, transitive_reduction(leq))


def check_partial_order(keys: tuple, leq: np.ndarray) -> None:
    n = len(keys)
    if not np.all(np.diag(leq)):
        i = int(np.flatnonzero(~np.diag(leq))[0])
        raise PosetError(f"not reflexive at {keys[i]!r}")
    sym = leq & leq.T & ~np.eye(n, dtype=bool)
    if sym.any():
        i, j = map(int, np.argwhere(sym)[0])
        raise PosetError(f"antisymmetry fails on ({keys[i]!r}, {keys[j]!r})")
    closed = leq @ leq  # boolean product: no count that can wrap
    bad = closed & ~leq
    if bad.any():
        i, j = map(int, np.argwhere(bad)[0])
        k = int(np.flatnonzero(leq[i] & leq[:, j])[0])
        raise PosetError(
            f"transitivity fails: {keys[i]!r} <= {keys[k]!r} <= {keys[j]!r} "
            f"but not {keys[i]!r} <= {keys[j]!r}")


def transitive_reduction(leq: np.ndarray) -> list[tuple[int, int]]:
    n = leq.shape[0]
    strict = leq & ~np.eye(n, dtype=bool)
    red = strict & ~(strict @ strict)
    return sorted((int(i), int(j)) for i, j in np.argwhere(red))


def sorted_topological_order(n: int, up: list[list[int]],
                             indeg: list[int]) -> list[int]:
    """Kahn's algorithm with the frontier re-sorted after every step."""
    indeg = list(indeg)
    frontier = sorted(v for v in range(n) if indeg[v] == 0)
    order: list[int] = []
    while frontier:
        v = frontier.pop(0)
        order.append(v)
        for w in up[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                frontier.append(w)
        frontier.sort()
    if len(order) != n:
        raise PosetError("cover relation contains a cycle")
    return order


def row_or_from_covers(keys: Sequence[Hashable],
                       cover_pairs) -> FinitePoset:
    """`FinitePoset.from_covers` by bool rows: row v of the closure ORs in
    the row of each upper cover of v, and the covers of each element are
    checked by one gather of their rows and columns."""
    keys = tuple(keys)
    n = len(keys)
    covers = sorted(set((int(i), int(j)) for i, j in cover_pairs))
    for i, j in covers:
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise PosetError(f"bad cover pair ({i}, {j})")
    up: list[list[int]] = [[] for _ in range(n)]
    indeg_down = [0] * n
    for i, j in covers:
        up[i].append(j)
        indeg_down[j] += 1
    order = sorted_topological_order(n, up, indeg_down)
    leq = np.zeros((n, n), dtype=bool)
    for v in reversed(order):
        leq[v, v] = True
        for w in up[v]:
            leq[v] |= leq[w]
    for i in range(n):
        if len(up[i]) > 1:
            between = leq[up[i]][:, up[i]]
            np.fill_diagonal(between, False)
            if between.any():
                a, b = np.argwhere(between)[0]
                w, j = up[i][a], up[i][b]
                raise PosetError(
                    f"({keys[i]!r}, {keys[j]!r}) is not a cover: "
                    f"{keys[w]!r} lies strictly between")
    return FinitePoset(keys, leq, covers)


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
