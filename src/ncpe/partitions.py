"""Set partitions of [n] = {1, ..., n} under the dual refinement order.

A partition is stored as its restricted growth string: code[e-1] is the
index of the block holding e, blocks numbered by their least elements.
Equal partitions therefore have equal codes, with no canonicalisation
step; the blocks are derived from the code on demand.  The noncrossing
join is one kernel on the codes alone: union-find over the blocks of
one input, one scan with a stack of open classes that merges the
crossing ones, and one pass that renumbers, so each join builds one
partition.  The noncrossing closure is the same scan.  All operations
are pure and return fresh partitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable

MAX_N = 16


class PartitionError(ValueError):
    """Invalid partition data or mismatched ground sets."""


@dataclass(frozen=True)
class SetPartition:
    """A partition of {1, ..., n}, stored as its restricted growth string."""

    n: int
    code: tuple[int, ...]

    def __post_init__(self) -> None:
        if not (1 <= self.n <= MAX_N):
            raise PartitionError(f"ground-set size must be in [1, {MAX_N}], got {self.n}")
        # the distinct values, in order of first appearance, are 0, 1, ...
        firsts = list(dict.fromkeys(self.code))
        if len(self.code) != self.n or firsts != list(range(len(firsts))):
            raise PartitionError(f"{self.code} is not a restricted growth string "
                                 f"of length {self.n}; use SetPartition.of")

    @staticmethod
    def of(n: int, blocks: Iterable[Iterable[int]]) -> "SetPartition":
        """The partition of [n] with the given blocks, in any order."""
        blocks = [tuple(b) for b in blocks]
        owner = {e: bi for bi, b in enumerate(blocks) for e in b}
        if not all(blocks):
            raise PartitionError("empty block")
        if len(owner) != sum(map(len, blocks)):
            raise PartitionError("blocks are not disjoint")
        if len(owner) != n or set(owner) != set(range(1, n + 1)):
            raise PartitionError(f"blocks do not cover [{n}]: {blocks}")
        return _from_labels(n, map(owner.get, range(1, n + 1)))

    @staticmethod
    def bottom(n: int) -> "SetPartition":
        return SetPartition(n, tuple(range(n)))

    @staticmethod
    def top(n: int) -> "SetPartition":
        return SetPartition(n, (0,) * n)

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Blocks sorted ascending, ordered by their least elements."""
        return code_blocks(self.code)

    def _check_range(self, i: int, j: int) -> None:
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise PartitionError(f"indices ({i}, {j}) out of range for n={self.n}")

    def merge(self, i: int, j: int) -> "SetPartition":
        """The partition with the blocks of i and j merged into one."""
        self._check_range(i, j)
        a, b = sorted((self.code[i - 1], self.code[j - 1]))
        if a == b:
            return self
        return SetPartition(self.n, self.merged_code(a, b))

    def merged_code(self, a: int, b: int) -> tuple[int, ...]:
        """The code with blocks a < b merged, without building a partition."""
        return tuple(map(_merge_relabel(a, b).__getitem__, self.code))

    def leq_dref(self, other: "SetPartition") -> bool:
        """True iff every block of self lies inside a block of other."""
        if self.n != other.n:
            raise PartitionError(f"mismatched ground sets: {self.n} != {other.n}")
        # each block of self meets exactly one block of other
        return len(set(zip(self.code, other.code))) == max(self.code) + 1

    @cached_property
    def is_noncrossing(self) -> bool:
        return nc_closure(self) == self

    def __str__(self) -> str:
        sep = "," if self.n >= 10 else ""
        return "|".join(sep.join(str(e) for e in b) for b in self.blocks)

    def __repr__(self) -> str:
        return f"SetPartition({self.n}, {self!s})"


def code_blocks(code: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The blocks of the partition with this code, as `SetPartition.blocks`."""
    out: list[list[int]] = [[] for _ in range(max(code) + 1)]
    for e, c in enumerate(code, start=1):
        out[c].append(e)
    return tuple(tuple(b) for b in out)


@lru_cache(maxsize=None)
def _merge_relabel(a: int, b: int) -> tuple[int, ...]:
    """Block relabelling that merges block b into block a < b; the
    blocks after b move down by one, which keeps the code a restricted
    growth string."""
    return tuple(a if c == b else c - (c > b) for c in range(MAX_N))


def _from_labels(n: int, labels: Iterable) -> SetPartition:
    """The partition of [n] whose blocks are the classes of equal labels,
    label k belonging to element k+1."""
    index: dict = {}
    return SetPartition(n, tuple(index.setdefault(a, len(index)) for a in labels))


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


def nc_closure(x: SetPartition) -> SetPartition:
    """Smallest noncrossing partition weakly above x: the closure scan of
    `nc_join` with every block of x its own class."""
    return _nc_closed(x.n, x.code, list(range(max(x.code) + 1)))


def nc_join(x: SetPartition, y: SetPartition) -> SetPartition:
    """Least upper bound of two noncrossing partitions among noncrossing
    partitions: the noncrossing closure of their join in the full
    partition lattice, computed in one kernel.  Union-find over the
    blocks of x joins the blocks of x that meet one block of y; the
    closure scan then runs on those classes."""
    if not x.is_noncrossing:
        raise PartitionError(f"crossing input: {x}")
    if not y.is_noncrossing:
        raise PartitionError(f"crossing input: {y}")
    if x.n != y.n:
        raise PartitionError(f"mismatched ground sets: {x.n} != {y.n}")
    root = list(range(max(x.code) + 1))  # block -> a smaller block it joined
    first = [-1] * (max(y.code) + 1)  # block of y -> first block of x it meets
    for a, b in zip(x.code, y.code):
        f = first[b]
        if f < 0:
            first[b] = a
            continue
        while root[a] != a:
            a = root[a]
        while root[f] != f:
            f = root[f]
        if a < f:
            root[f] = a
        elif f < a:
            root[a] = f
    return _nc_closed(x.n, x.code, root)


def _nc_closed(n: int, code: tuple[int, ...], root: list[int]) -> SetPartition:
    """The noncrossing closure of the partition whose classes are the
    blocks of `code` joined along `root` (root[c] <= c), in one scan.

    A class is numbered by its least block, so it opens at that block's
    first element, and `last` holds its last element.  A stack holds the
    open classes in the order they opened.  When an element's class lies
    below the top of the stack, each class above it opened later and is
    still open, so it crosses that class and merges into it.  A class
    closes at its last element; no later merge reaches into it, so
    nothing crosses it.  The result's `is_noncrossing` is set, so an
    `nc_join` that takes it as input does not close it again.
    """
    last = [0] * len(root)
    for e, c in enumerate(code):
        last[c] = e
    for c in range(len(root) - 1, 0, -1):  # every block before its root
        last[root[c]] = max(last[root[c]], last[c])
    stack: list[int] = []
    fresh = 0
    for e, c in enumerate(code):
        if c == fresh:  # the first element of a block
            fresh += 1
            if root[c] == c:  # and of its class
                stack.append(c)
        while root[c] != c:
            c = root[c]
        while stack[-1] != c:
            top = stack.pop()
            root[top] = c
            last[c] = max(last[c], last[top])
        if last[c] == e:
            stack.pop()
    closed = SetPartition(n, _relabel(code, root))
    closed.__dict__["is_noncrossing"] = True  # by construction; no second closure
    return closed


def _relabel(code: tuple[int, ...], root: list[int]) -> tuple[int, ...]:
    """The restricted growth string of `code` once each block c has
    joined root[c] <= c.  One pass labels every block: a root takes the
    next label, and any other block the label of root[c], set earlier.
    The classes are thus numbered by their least blocks, which is the
    order of their least elements."""
    label = [0] * len(root)
    fresh = 0
    for c, r in enumerate(root):
        if r == c:
            label[c] = fresh
            fresh += 1
        else:
            label[c] = label[r]
    return tuple([label[c] for c in code])
