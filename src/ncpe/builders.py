"""Builders for the partition posets: all partitions, noncrossing
partitions, and the noncrossing subfamily that omits the block
{n-1, n} and the "singleton n with 1 ~ n-1" configurations (called PE
here), together with its native join.

The build works on restricted growth strings: the noncrossing codes are
generated in the order of their blocks, and the covers are found by
packed-int arithmetic on the codes and one dict look-up per block merge.
The sort by blocks and the per-member cover loop these replace are the
test oracles.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations
from math import comb

from .partitions import PartitionError, SetPartition, nc_join
from .posets import FinitePoset

# The size cap of each family: the noun its refusal names, and the least
# and greatest n.  The NBB search builds no poset, so each ambient has a
# cap of its own.
CAPS = {
    "pi": ("full partition lattice", 1, 9),
    "nc": ("noncrossing lattice", 1, 10),
    "pe-dref": ("PE construction", 3, 10),
    "pe-pchn": ("chain machinery", 3, 8),
    "nbb-nc": ("NC ambient", 1, 10),
    "nbb-pe": ("PE ambient", 3, 10),
}


class BuildError(ValueError):
    """Size cap exceeded or structurally invalid request."""


def check_size(kind: str, n: int) -> None:
    """Refuse an n outside the cap of `kind`, a key of `CAPS`."""
    what, low, high = CAPS[kind]
    if not low <= n <= high:
        raise BuildError(f"{what} supports {low} <= n <= {high}, got n={n}")


def catalan(n: int) -> int:
    if n < 0:
        return 0
    return comb(2 * n, n) // (n + 1)


# -- enumeration ---------------------------------------------------------

def enumerate_partitions(n: int) -> list[SetPartition]:
    """All set partitions of [n], via restricted-growth strings."""
    out: list[SetPartition] = []
    assignment = [0] * n

    def rec(i: int, nblocks: int) -> None:
        if i == n:
            out.append(SetPartition(n, tuple(assignment)))
            return
        for b in range(nblocks + 1):
            assignment[i] = b
            rec(i + 1, max(nblocks, b + 1))

    rec(0, 0)
    return out


def enumerate_noncrossing(n: int) -> list[SetPartition]:
    """All noncrossing partitions of [n], ordered by their blocks.

    The blocks are opened in the order of their least elements: the
    least element m not yet placed opens the next block, which takes a
    rising run of further elements from the gap after m, up to the next
    element already placed (a block that went past it would cross the
    block holding it, which has an element below m).  Each block is
    grown in lexicographic order, first as it is and then extended by
    each larger element in turn, so the codes come out in the order of
    their blocks, with no sort; each partition is then built once.
    """
    codes: list[tuple[int, ...]] = []
    code = [-1] * n  # the block of each element, -1 while unplaced

    def open_block(m: int, label: int) -> None:
        while m < n and code[m] >= 0:
            m += 1
        if m == n:
            codes.append(tuple(code))
            return
        gap = m + 1
        while gap < n and code[gap] < 0:
            gap += 1
        code[m] = label
        grow(m, gap, label, m)
        code[m] = -1

    def grow(m: int, gap: int, label: int, last: int) -> None:
        # the block of m ends at `last` so far: close it, or extend it
        open_block(m + 1, label + 1)
        for e in range(last + 1, gap):
            code[e] = label
            grow(m, gap, label, e)
            code[e] = -1

    open_block(0, 0)
    return [SetPartition(n, c) for c in codes]


def is_pe_member(x: SetPartition) -> bool:
    """Member test for the PE family (defined for noncrossing x, n >= 3):
    excluded are partitions with block {n-1, n}, and partitions where
    {n} is a singleton block while 1 and n-1 share a block."""
    if x.n < 3:
        raise BuildError(f"PE is defined for n >= 3, got n={x.n}")
    if not x.is_noncrossing:
        raise PartitionError(f"crossing input: {x}")
    return _is_pe_code(x.code)


def _is_pe_code(code: tuple[int, ...]) -> bool:
    """The PE exclusions read off the code of a noncrossing partition of
    [n], n >= 3: n and n-1 share a block that has no other element, or n
    is alone in its block while 1 and n-1 share one."""
    last = code[-1]
    if code[-2] == last:
        return code.count(last) != 2
    return code.count(last) != 1 or code[0] != code[-2]


@lru_cache(maxsize=None)
def pe_members(n: int) -> tuple[SetPartition, ...]:
    check_size("pe-dref", n)
    return tuple(x for x in enumerate_noncrossing(n) if _is_pe_code(x.code))


# -- poset construction --------------------------------------------------

def _merge_covers(members: list[SetPartition]) -> list[tuple[int, int]]:
    """Cover pairs within a family closed under the 'merge two blocks'
    cover rule of the dual refinement order, found on the codes: no
    partition is built for a candidate.

    Each code packs into an int key, 4 bits a position, first position
    highest, and W[c] packs a 1 at each position of block c, so the key
    is the sum of c W[c].  Merging block b into a < b turns the b of its
    positions into a and lowers every block after b by one, so the
    merged code's key is key - (b - a) W[b] - sum_{c > b} W[c], looked
    up among the members' keys.  The pairs (i, j) come ordered by i,
    then (a, b) in `combinations` order.
    """
    if not members:
        return []
    n = members[0].n
    place = [1 << 4 * k for k in reversed(range(n))]
    packed: list[tuple[int, list[int]]] = []  # per member, its key and W
    for x in members:
        w = [0] * (max(x.code) + 1)
        for c, bit in zip(x.code, place):
            w[c] += bit
        packed.append((sum(c * wc for c, wc in enumerate(w)), w))
    index = {key: i for i, (key, _) in enumerate(packed)}
    covers: list[tuple[int, int]] = []
    for i, (key, w) in enumerate(packed):
        total = sum(w)
        after = [total - s for s in accumulate(w)]  # after[b] = sum_{c > b} W[c]
        for a, b in combinations(range(len(w)), 2):
            j = index.get(key - (b - a) * w[b] - after[b])
            if j is not None:
                covers.append((i, j))
    return covers


def build_pi(n: int) -> FinitePoset:
    check_size("pi", n)
    members = enumerate_partitions(n)
    return FinitePoset.from_covers(members, _merge_covers(members))


def build_nc(n: int) -> FinitePoset:
    check_size("nc", n)
    members = enumerate_noncrossing(n)
    return FinitePoset.from_covers(members, _merge_covers(members))


def build_pe_dref(n: int) -> FinitePoset:
    members = list(pe_members(n))
    return FinitePoset.from_covers(members, _merge_covers(members))


# -- PE join ----------------------------------------------------------------

def pe_join(x: SetPartition, y: SetPartition) -> SetPartition:
    """Join in the PE lattice: the noncrossing join, repaired by merging
    a singleton {n} into the block of 1 when necessary."""
    _require_pe(x)
    _require_pe(y)
    n = x.n
    w = nc_join(x, y)  # noncrossing, so the exclusions read off its code
    if _is_pe_code(w.code):
        return w
    if (n - 1, n) in w.blocks:
        raise AssertionError(f"impossible join case for {x} v {y}: got {w}")
    return w.merge(1, n)


def _require_pe(x: SetPartition) -> None:
    if not is_pe_member(x):
        raise BuildError(f"not a PE member: {x}")


# -- the distinguished left-modular chain -----------------------------------

def chain_element(n: int, i: int) -> SetPartition:
    if not (1 <= i <= n):
        raise BuildError(f"chain index {i} out of range for n={n}")
    return SetPartition.of(n, [[*range(1, i), n]] + [[e] for e in range(i, n)])


def distinguished_chain(n: int) -> tuple[SetPartition, ...]:
    """The chain whose i-th element has unique non-singleton block
    {1, ..., i-1} u {n}; runs from the discrete to the full partition."""
    return tuple(chain_element(n, i) for i in range(1, n + 1))
