"""Atom-order machinery for Moebius computation via bounded-below sets.

Atoms are the partitions with a single doubleton block {i, j}.  They are
partially ordered by grouping into ranks: rank j holds the atoms {i, j}
with i < j together with {j, n}.  A set of atoms is bounded below (BB)
when each of its members has a strictly smaller atom below the set's
join; sets with no nonempty BB subset (NBB) whose join is x are the NBB
bases for x, and their signed count is the Moebius value from bottom to x.

The NBB bases of the top hold one atom of each rank, so one search finds
them rank by rank.  An NBB set with one atom of each rank 1..d stays NBB
with an atom of rank d + 1 added iff none of its d rank suffixes (the
members of rank >= t, for t = 1..d) is BB with that atom added, so each
step makes d tests, not one per subset; joins are memoised by partition
and the blocks the atom merges.  The same search without ranks, for any
element, is the test oracle in `tests/reference.py`.

A base is its atom tuple.  The atoms {i, j} of a base of the top are the
edges of a noncrossing tree on [n] (the tests check this), so `base_dot`
writes them as the tree, and `classify_base` reads off them which bases
survive the passage from the noncrossing lattice to its PE sublattice.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from typing import Literal, NamedTuple

from .builders import BuildError, check_size, pe_join
from .partitions import SetPartition, nc_join

Ambient = Literal["nc", "pe"]


class Atom(NamedTuple):
    i: int
    j: int

    @lru_cache(maxsize=None)
    def partition(self, n: int) -> SetPartition:
        """Built once per (atom, n), so its noncrossing test runs once."""
        return SetPartition.bottom(n).merge(self.i, self.j)


@lru_cache(maxsize=None)
def ranked_atoms(n: int, ambient: Ambient) -> dict[Atom, int]:
    """The rank of every atom of the ambient, in (rank, i, j) order: rank
    r holds {i, r} for i < r, then {r, n}, the atoms that first lie below
    the element of the distinguished chain with block {1, ..., r, n}.
    PE lacks {1, n-1} and {n-1, n}."""
    excluded = {Atom(1, n - 1), Atom(n - 1, n)} if ambient == "pe" else set()
    return {a: r for r in range(1, n)
            for a in [Atom(i, r) for i in range(1, r)] + [Atom(r, n)]
            if a not in excluded}


def is_bb(least_rank: int, n: int, ambient: Ambient, join: SetPartition) -> bool:
    """Bounded-below test of an atom set by the rank `least_rank` of its
    least-ranked member and its join `join` in the ambient: every member
    must have a strictly smaller atom (in the rank order) below the join,
    and an atom ranked below every member serves them all, so the set is
    BB iff the first atom below the join, in rank order, ranks below
    `least_rank`.  The member-by-member definition is the test oracle."""
    code = join.code
    for a, r in ranked_atoms(n, ambient).items():  # rank order
        if r >= least_rank:
            return False
        if code[a.i - 1] == code[a.j - 1]:
            return True
    return False


@lru_cache(maxsize=None)
def enumerate_nbb_bases_top(n: int, ambient: Ambient) -> tuple[tuple[Atom, ...], ...]:
    """All NBB bases for the full partition, in lexicographic order of
    their atoms' (rank, i, j) keys.

    Each base holds exactly one atom of each rank 1, ..., n-1 (Blass and
    Sagan, 'Moebius functions of lattices', 1997; two atoms of one rank
    join above an atom of smaller rank, so they are BB), so the search
    descends rank by rank, keeping a set S = chosen[0:d] with one atom
    of each rank 1..d, and adds an atom k of rank d + 1 only if S + k is
    still NBB.  Every subset of an NBB set is NBB, so the sets of n - 1
    atoms that join to the top are exactly the bases.  `TestOracle`
    checks them against the search without ranks for every n up to the
    cap.

    Lemma: if S is NBB, then S + k is NBB iff no rank suffix
    chosen[t:d] + k is BB, so d tests decide it, not 2^d.  Proof: take a
    nonempty BB subset T of S + k.  It holds k, since S is NBB; let m be
    its least-ranked member, chosen[t] (T = {k} is never BB).  T lies in
    the suffix U = chosen[t:d] + k, whose least member is also m, and
    join(T) <= join(U).  A set is BB iff some atom ranked below its
    least member lies below its join (`is_bb`), and the atom that makes
    T so lies below join(U) too, so U is BB.

    So `walk` carries the joins of the suffixes chosen[t:d] and tests
    each atom of rank d + 1 against them; a child gets each suffix join
    joined with the atom pushed, then that atom alone.  Many suffixes
    share a join, and the join of x with the atom {i, j} depends only on
    x and on the blocks of x that hold i and j, so joins are memoised by
    (code of x, block of i, block of j), and each is computed once.
    """
    check_size(f"nbb-{ambient}", n)  # before SetPartition.top rejects n < 1
    join_op = nc_join if ambient == "nc" else pe_join
    pool = ranked_atoms(n, ambient)
    atoms, ranks = list(pool), list(pool.values())
    parts = [a.partition(n) for a in atoms]
    top = SetPartition.top(n)
    # join of a partition with an atom, by (code, block of i, block of j)
    pair_joins: dict[tuple[tuple[int, ...], int, int], SetPartition] = {}
    chosen: list[int] = []  # indices into `atoms`, one of each rank 1..d
    bases: list[tuple[Atom, ...]] = []

    def join(x: SetPartition, k: int) -> SetPartition:
        code, a = x.code, atoms[k]
        key = (code, code[a.i - 1], code[a.j - 1])
        out = pair_joins.get(key)
        if out is None:
            out = pair_joins[key] = join_op(x, parts[k])
        return out

    def walk(suffixes: list[SetPartition]) -> None:
        """Extend `chosen` by each atom of the next rank that keeps it
        NBB, given the joins of its suffixes chosen[t:]."""
        d = len(chosen)
        if d == n - 1:
            if not suffixes or suffixes[0] == top:  # n = 1: the empty base
                bases.append(tuple(atoms[i] for i in chosen))
            return
        for k in range(bisect_left(ranks, d + 1), bisect_right(ranks, d + 1)):
            # the verdict depends only on the join and the rank t + 1 of
            # the set's least-ranked member, chosen[t]
            if not any(is_bb(t + 1, n, ambient, join(x, k))
                       for t, x in enumerate(suffixes)):
                chosen.append(k)
                walk([join(x, k) for x in suffixes] + [parts[k]])
                chosen.pop()

    walk([])
    return tuple(bases)


def moebius_via_nbb(n: int, ambient: Ambient) -> int:
    """Signed count of NBB bases for the top element."""
    return sum((-1) ** len(base) for base in enumerate_nbb_bases_top(n, ambient))


def base_dot(base: tuple[Atom, ...]) -> str:
    """A base as the DOT graph of its noncrossing tree, one edge per atom,
    in sorted order."""
    edges = "".join(f"  {i} -- {j};\n" for i, j in sorted(base))
    return "graph nctree {\n  node [shape=circle];\n" + edges + "}\n"


# -- classification -----------------------------------------------------------

Classification = Literal["S1", "S2", "R", "kept"]


def classify_base(base: tuple[Atom, ...], n: int) -> Classification:
    """Classify a base for the top of the noncrossing lattice by why it
    is (or is not) discarded in the PE sublattice: S1 contains the atom
    {1, n-1}, S2 contains {n-1, n}, R is discarded because the base
    minus the atom {1, n} already joins to the top in PE; the remainder
    are exactly the PE bases.

    Membership in R is read on the atoms: {1, n} is the only atom that
    holds n (in the base's tree, n's only neighbour is 1).  That form
    stays meaningful when the base contains an atom outside PE; the
    tests check it against the iterated PE join wherever every remaining
    atom lies in PE.
    """
    atoms = set(base)
    root = Atom(1, n)
    if root not in atoms:
        raise BuildError(f"not a base for the top: {base}")
    s1 = Atom(1, n - 1) in atoms
    s2 = Atom(n - 1, n) in atoms
    if s1 and s2:
        raise AssertionError(f"base {base} contains both excluded atoms")
    r = [a for a in base if a.j == n] == [root]
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
