"""Atom-order machinery for Moebius computation via bounded-below sets.

Atoms are the partitions with a single doubleton block {i, j}.  They are
partially ordered by grouping into ranks: rank j holds the atoms {i, j}
with i < j together with {j, n}.  A set of atoms is bounded below (BB)
when each of its members has a strictly smaller atom below the set's
join; sets with no nonempty BB subset (NBB) whose join is x are the NBB
bases for x, and their signed count is the Moebius value from bottom to x.

Every subset of an NBB set is NBB, so one search finds them all: it walks
the atoms below x in rank order and adds an atom only when no subset
containing it is BB.  Atom sets are int bitmasks over the atoms below x,
the join of every visited set is memoised by mask, and each level of the
search filters its candidate atoms once, against the subsets that hold
the atom last added.

The bases for the full partition correspond to noncrossing trees on [n];
the tree model also classifies which bases survive the passage from the
noncrossing lattice to its PE sublattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Collection, Iterable, Literal, NamedTuple

from .builders import BuildError, is_pe_member, pe_join
from .partitions import SetPartition, nc_join

Ambient = Literal["nc", "pe"]

NBB_MAX_N = 9

_MISS = object()  # memo miss, told apart by identity


class Atom(NamedTuple):
    i: int
    j: int

    @lru_cache(maxsize=None)
    def partition(self, n: int) -> SetPartition:
        """Built once per (atom, n), so its noncrossing test runs once."""
        return SetPartition.bottom(n).merge(self.i, self.j)

    def __str__(self) -> str:
        return f"a({self.i},{self.j})"


def atom_rank(a: Atom, n: int) -> int:
    """Rank of an atom in the atom order: j for {i, j} with j < n, and i
    for {i, n}.  Equals the least r such that the atom sits below the
    r-th element of the distinguished chain."""
    if not (1 <= a.i < a.j <= n):
        raise BuildError(f"invalid atom {a} for n={n}")
    return a.j if a.j < n else a.i


def nc_atoms(n: int) -> list[Atom]:
    return [Atom(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def pe_atoms(n: int) -> list[Atom]:
    if n < 3:
        raise BuildError(f"PE atoms require n >= 3, got n={n}")
    excluded = {Atom(1, n - 1), Atom(n - 1, n)}
    return [a for a in nc_atoms(n) if a not in excluded]


@lru_cache(maxsize=None)
def ranked_atoms(n: int, ambient: Ambient) -> dict[Atom, int]:
    """The rank of every atom of the ambient, in (rank, i, j) order."""
    atoms = nc_atoms(n) if ambient == "nc" else pe_atoms(n)
    return {a: atom_rank(a, n)
            for a in sorted(atoms, key=lambda a: (atom_rank(a, n), a))}


def is_bb(atoms: Collection[Atom], n: int, ambient: Ambient,
          join: SetPartition) -> bool:
    """Bounded-below test: every member must have a strictly smaller atom
    (in the rank order) lying below `join`, the join of the whole set in
    the ambient.  An atom ranked below every member serves them all, so
    the set is BB iff the first atom below the join, in rank order,
    ranks below its least member."""
    if not atoms:
        raise BuildError("BB is defined for nonempty atom sets")
    pool = ranked_atoms(n, ambient)
    least = n  # above every rank
    for a in atoms:
        r = pool.get(a)
        if r is None:
            raise BuildError(f"atom {a} invalid for ambient {ambient!r}, n={n}")
        least = min(least, r)
    code = join.code
    for a, r in pool.items():  # rank order
        if r >= least:
            return False
        if code[a.i - 1] == code[a.j - 1]:
            return True
    return False


def check_nbb_size(n: int, ambient: Ambient) -> None:
    """Size cap of the NBB search in either ambient."""
    low = 3 if ambient == "pe" else 1
    if not (low <= n <= NBB_MAX_N):
        raise BuildError(f"{ambient.upper()} ambient supports "
                         f"{low} <= n <= {NBB_MAX_N}, got n={n}")


def nbb_bases(n: int, ambient: Ambient, x: SetPartition) -> list[tuple[Atom, ...]]:
    """All NBB bases for x: the atom sets that join to x and have no
    nonempty BB subset, as rank-sorted atom tuples in lexicographic
    order of their (rank, i, j) key sequences.

    The search walks the atoms below x in that order and adds an atom to
    the chosen set only if no subset that contains the new atom is BB.
    Every subset of an NBB set is NBB, so this keeps exactly the NBB
    sets.  A set of atoms is a bitmask over the atoms below x, bit k for
    the k-th; the joins of all visited sets are memoised by mask, so
    each set is joined and tested once.  The masks of the chosen set's
    subsets are kept as a list, doubled when an atom is pushed.  An atom
    that fails against some subset of the chosen set fails against every
    superset too, so each level filters its candidates once: a child
    level tests the atoms that survived at its parent against the new
    subsets alone, those that hold the atom just pushed.
    """
    check_nbb_size(n, ambient)
    if (x.n != n or not x.is_noncrossing
            or (ambient == "pe" and not is_pe_member(x))):
        raise BuildError(f"{x} is not in the {ambient} ambient for n={n}")
    join_op = nc_join if ambient == "nc" else pe_join
    below = [a for a in ranked_atoms(n, ambient) if x.same_block(a.i, a.j)]
    parts = [a.partition(n) for a in below]
    # join of every visited atom set by mask, or None for a BB set
    joins: dict[int, SetPartition | None] = {0: SetPartition.bottom(n)}
    chosen: list[int] = []  # indices into `below`
    bases: list[tuple[Atom, ...]] = []

    def survivors(candidates: list[int], subsets: list[int]) -> list[int]:
        """The candidates k such that no mask in `subsets` plus bit k is BB."""
        out = []
        for k in candidates:
            bit = 1 << k
            for sub in subsets:
                s = sub | bit
                join = joins.get(s, _MISS)
                if join is _MISS:
                    join = join_op(joins[sub], parts[k])
                    # a singleton is never BB.  `below` is in rank order and
                    # the verdict depends only on the join and the set's
                    # least-ranked member, its lowest bit, so that atom stands
                    # for the set
                    if sub and is_bb([below[(s & -s).bit_length() - 1]], n, ambient, join):
                        join = None
                    joins[s] = join
                if join is None:
                    break
            else:
                out.append(k)
        return out

    def walk(mask: int, subsets: list[int], candidates: list[int]) -> None:
        if joins[mask] == x:
            bases.append(tuple(below[i] for i in chosen))
        for pos, k in enumerate(candidates):
            bit = 1 << k
            new = [sub | bit for sub in subsets]
            chosen.append(k)
            walk(mask | bit, subsets + new, survivors(candidates[pos + 1:], new))
            chosen.pop()

    walk(0, [0], survivors(list(range(len(below))), [0]))
    return bases


@lru_cache(maxsize=None)
def enumerate_nbb_bases_top(n: int, ambient: Ambient) -> tuple[tuple[Atom, ...], ...]:
    """All NBB bases for the full partition, in the order of `nbb_bases`.
    Each base holds exactly one atom of every rank."""
    check_nbb_size(n, ambient)  # before SetPartition.top rejects n < 1
    return tuple(nbb_bases(n, ambient, SetPartition.top(n)))


def moebius_via_nbb(n: int, ambient: Ambient) -> int:
    """Signed count of NBB bases for the top element."""
    return sum((-1) ** len(base) for base in enumerate_nbb_bases_top(n, ambient))


# -- the tree model -----------------------------------------------------------

@dataclass(frozen=True)
class NCTree:
    """Tree on [n] with one edge per atom of a base."""

    n: int
    edges: frozenset[tuple[int, int]]

    def neighbors(self, v: int) -> list[int]:
        out = [j if i == v else i for i, j in self.edges if v in (i, j)]
        return sorted(out)

    def is_tree(self) -> bool:
        if len(self.edges) != self.n - 1:
            return False
        seen = {1}
        frontier = [1]
        while frontier:
            v = frontier.pop()
            for w in self.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == self.n

    def to_dot(self) -> str:
        lines = ["graph nctree {", "  node [shape=circle];"]
        for i, j in sorted(self.edges):
            lines.append(f"  {i} -- {j};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def base_to_tree(base: Iterable[Atom], n: int) -> NCTree:
    tree = NCTree(n, frozenset((a.i, a.j) for a in base))
    if not tree.is_tree():
        raise BuildError(f"atom set does not form a tree on [{n}]")
    return tree


# -- classification -----------------------------------------------------------

Classification = Literal["S1", "S2", "R", "kept"]


def classify_base(base: tuple[Atom, ...], n: int) -> Classification:
    """Classify a base for the top of the noncrossing lattice by why it
    is (or is not) discarded in the PE sublattice: S1 contains the atom
    {1, n-1}, S2 contains {n-1, n}, R is discarded because the base
    minus the atom {1, n} already joins to the top in PE; the remainder
    are exactly the PE bases.

    In the tree of the base, membership in R is equivalent to n having
    1 as its only neighbor; that form is used here because it stays
    meaningful when the base contains an atom outside PE.  The tests
    check it against the iterated PE join wherever every remaining atom
    lies in PE.
    """
    atoms = set(base)
    root = Atom(1, n)
    if root not in atoms:
        raise BuildError(f"not a base for the top: {base}")
    s1 = Atom(1, n - 1) in atoms
    s2 = Atom(n - 1, n) in atoms
    if s1 and s2:
        raise AssertionError(f"base {base} contains both excluded atoms")
    tree = base_to_tree(base, n)
    r = tree.neighbors(n) == [1]
    if s1 and not r:
        raise AssertionError(f"base {base} in S1 but not in R")
    if s2 and r:
        raise AssertionError(f"base {base} in both S2 and R")
    if s1:
        return "S1"
    if s2:
        return "S2"
    if r:
        return "R"
    return "kept"


def classification_census(n: int) -> dict[str, int]:
    """Counts of the discard classes among the noncrossing bases.  S1 is
    a subset of R, so the reported R count includes the S1 count and
    discarded = S2 + R.  The classes name the atoms {1, n-1} and
    {n-1, n} of PE, so n >= 3."""
    if n < 3:
        raise BuildError(f"the discard classes need n >= 3, got n={n}")
    raw = {"S1": 0, "S2": 0, "R": 0, "kept": 0}
    for base in enumerate_nbb_bases_top(n, "nc"):
        raw[classify_base(base, n)] += 1
    return {"S1": raw["S1"], "S2": raw["S2"], "R": raw["R"] + raw["S1"],
            "kept": raw["kept"]}
