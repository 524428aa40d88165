"""Set partitions of [n] = {1, ..., n} under the dual refinement order.

Partitions are stored canonically: every block sorted ascending, blocks
sorted by their minimum.  Equal partitions therefore compare equal
structurally and hash identically.  All operations are pure and return
fresh canonical partitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable

MAX_N = 16


class PartitionError(ValueError):
    """Invalid partition data or mismatched ground sets."""


def _canonical(blocks: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    blks = [tuple(sorted(b)) for b in blocks]
    blks.sort(key=lambda b: b[0])
    return tuple(blks)


@dataclass(frozen=True)
class SetPartition:
    """A partition of {1, ..., n} into disjoint nonempty blocks."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not (1 <= self.n <= MAX_N):
            raise PartitionError(f"ground-set size must be in [1, {MAX_N}], got {self.n}")
        seen: set[int] = set()
        for b in self.blocks:
            if not b:
                raise PartitionError("empty block")
            if set(b) & seen:
                raise PartitionError("blocks are not disjoint")
            seen.update(b)
        if seen != set(range(1, self.n + 1)):
            raise PartitionError(f"blocks do not cover [{self.n}]: {self.blocks}")
        if self.blocks != _canonical(self.blocks):
            raise PartitionError("blocks not in canonical form; use SetPartition.of")

    @staticmethod
    def of(n: int, blocks: Iterable[Iterable[int]]) -> "SetPartition":
        return SetPartition(n, _canonical(blocks))

    @staticmethod
    def bottom(n: int) -> "SetPartition":
        return SetPartition(n, tuple((i,) for i in range(1, n + 1)))

    @staticmethod
    def top(n: int) -> "SetPartition":
        return SetPartition(n, (tuple(range(1, n + 1)),))

    @cached_property
    def _block_of(self) -> dict[int, int]:
        # element -> block index; derived, never authoritative
        out: dict[int, int] = {}
        for bi, b in enumerate(self.blocks):
            for e in b:
                out[e] = bi
        return out

    def num_blocks(self) -> int:
        return len(self.blocks)

    def rank(self) -> int:
        return self.n - len(self.blocks)

    def same_block(self, i: int, j: int) -> bool:
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise PartitionError(f"indices ({i}, {j}) out of range for n={self.n}")
        return self._block_of[i] == self._block_of[j]

    def leq_dref(self, other: "SetPartition") -> bool:
        """True iff every block of self lies inside a block of other."""
        if self.n != other.n:
            raise PartitionError(f"mismatched ground sets: {self.n} != {other.n}")
        bo = other._block_of
        for b in self.blocks:
            target = bo[b[0]]
            if any(bo[e] != target for e in b[1:]):
                return False
        return True

    @cached_property
    def is_noncrossing(self) -> bool:
        return not any(
            _blocks_cross(a, b) for a, b in combinations(self.blocks, 2)
        )

    def __str__(self) -> str:
        sep = "," if self.n >= 10 else ""
        return "|".join(sep.join(str(e) for e in b) for b in self.blocks)

    def __repr__(self) -> str:
        return f"SetPartition({self.n}, {self!s})"


def _blocks_cross(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    # a and b cross iff their elements alternate a, b, a, b somewhere
    merged = sorted([(e, 0) for e in a] + [(e, 1) for e in b])
    alternations = sum(
        1 for (_, s), (_, t) in zip(merged, merged[1:]) if s != t
    )
    return alternations >= 3


def parse_partition(text: str, n: int | None = None) -> SetPartition:
    """Parse "1|23|4" (or "1,11|2,3" with commas, required once n >= 10).
    With an explicit n, elements not mentioned become singleton blocks."""
    parts = text.strip().split("|")
    blocks: list[list[int]] = []
    for part in parts:
        if not part:
            raise PartitionError(f"empty block in {text!r}")
        tokens = part.split(",") if "," in text else part
        try:
            blocks.append([int(tok) for tok in tokens])
        except ValueError:
            raise PartitionError(f"non-integer element in {text!r}") from None
    if n is None:
        return SetPartition.of(sum(len(b) for b in blocks), blocks)
    mentioned = {e for b in blocks for e in b}
    blocks.extend([e] for e in range(1, n + 1) if e not in mentioned)
    return SetPartition.of(n, blocks)


def meet_partition(x: SetPartition, y: SetPartition) -> SetPartition:
    """Greatest lower bound in the full partition lattice: pairwise
    block intersections."""
    if x.n != y.n:
        raise PartitionError(f"mismatched ground sets: {x.n} != {y.n}")
    blocks = []
    for b in x.blocks:
        for c in y.blocks:
            inter = set(b) & set(c)
            if inter:
                blocks.append(inter)
    return SetPartition.of(x.n, blocks)


def join_partition(x: SetPartition, y: SetPartition) -> SetPartition:
    """Least upper bound in the full partition lattice, via union-find.

    Equivalent to taking connected components of the bipartite graph of
    elements against the blocks of both partitions.
    """
    if x.n != y.n:
        raise PartitionError(f"mismatched ground sets: {x.n} != {y.n}")
    parent = list(range(x.n + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for p in (x, y):
        for b in p.blocks:
            for e in b[1:]:
                union(b[0], e)
    groups: dict[int, list[int]] = {}
    for e in range(1, x.n + 1):
        groups.setdefault(find(e), []).append(e)
    return SetPartition.of(x.n, groups.values())


def nc_closure(x: SetPartition) -> SetPartition:
    """Smallest noncrossing partition weakly above x: repeatedly merge
    crossing blocks until none remain."""
    blocks = [set(b) for b in x.blocks]
    changed = True
    while changed:
        changed = False
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                if _blocks_cross(tuple(sorted(blocks[i])), tuple(sorted(blocks[j]))):
                    blocks[i] |= blocks[j]
                    del blocks[j]
                    changed = True
                    break
            if changed:
                break
    return SetPartition.of(x.n, blocks)


def nc_join(x: SetPartition, y: SetPartition) -> SetPartition:
    """Least upper bound of two noncrossing partitions among noncrossing
    partitions: the noncrossing closure of the plain join."""
    if not x.is_noncrossing:
        raise PartitionError(f"crossing input: {x}")
    if not y.is_noncrossing:
        raise PartitionError(f"crossing input: {y}")
    return nc_closure(join_partition(x, y))


def nc_meet(x: SetPartition, y: SetPartition) -> SetPartition:
    """Meet of noncrossing partitions; coincides with the plain meet."""
    if not x.is_noncrossing:
        raise PartitionError(f"crossing input: {x}")
    if not y.is_noncrossing:
        raise PartitionError(f"crossing input: {y}")
    return meet_partition(x, y)
