"""Generic finite poset and lattice machinery.

Elements are opaque hashable keys; the engine never inspects their
structure.  The order is kept as a dense boolean matrix, cover relations
as an adjacency list (the transitive reduction).  `from_covers` closes
the covers on Python-int bitsets, dropping each row once it is unpacked
and its lower covers have read it.

Lattice questions are answered on up-sets and down-sets as Python ints,
closed over the covers on first use, with one bit per element placed by
its (height, index) rank.  A join is the member of least rank of the
two up-sets' intersection, if that element lies below the whole set,
and a meet the member of greatest rank of the down-sets'.  No join or
meet table is built: the lattice verdict joins only pairs of upper
covers of a common element, left-modularity needs one join row and one
meet row, and the left-modular labeling one join row per chain element.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import itemgetter
from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np


# _moebius_to keeps int64 values while their absolute sum stays below this
MOEBIUS_INT64_BOUND = 1 << 62


class PosetError(ValueError):
    """Invalid order data (non-poset oracle, unbounded poset, ...)."""


@dataclass
class LatticeCheck:
    """Outcome of the lattice test; on failure, the first pair in
    row-major index order without a unique join or, failing that, a
    unique meet, and which of the two it lacks."""

    is_lattice: bool
    witness: tuple[Hashable, Hashable] | None = None
    reason: str = ""


class FinitePoset:
    def __init__(self, keys: Sequence[Hashable], leq: np.ndarray,
                 covers: list[tuple[int, int]]):
        self.keys = tuple(keys)
        self.leq = leq
        self.covers = covers
        self._index = {k: i for i, k in enumerate(self.keys)}
        self._left_modular: dict[int, bool] = {}  # is_left_modular, per element
        if len(self._index) != len(self.keys):
            raise PosetError("duplicate element keys")

    # -- construction ---------------------------------------------------

    @classmethod
    def from_covers(cls, keys: Sequence[Hashable],
                    cover_pairs: Iterable[tuple[int, int]]) -> "FinitePoset":
        """Build from cover index pairs (i, j) meaning key[i] is covered
        by key[j]; the order is the reflexive-transitive closure.

        In reverse topological order, row v (an int with bit j set iff
        v < j) is the OR of the upper covers of v and their rows.  It is
        unpacked into the bool matrix at once and dropped when the last
        lower cover of v has read it, so few rows are held as ints.

        The covers are always validated: a given pair (i, j) is rejected
        when another given upper cover w of i has bit j set in row w,
        which holds exactly when the pair is not in the transitive
        reduction; the least i, then w, then j is reported.
        """
        keys = tuple(keys)
        n = len(keys)
        # a dict keeps the given order, often nearly sorted, so the sort is cheap
        covers = sorted(dict.fromkeys(map(_int_pair, cover_pairs)))
        up: list[list[int]] = [[] for _ in range(n)]
        unread = [0] * n  # per element, the lower covers yet to read its row
        for i, j in covers:
            if i == j or not (0 <= i < n and 0 <= j < n):
                raise PosetError(f"bad cover pair ({i}, {j})")
            up[i].append(j)
            unread[j] += 1
        order = _topological_order(n, up, unread)
        leq = np.empty((n, n), dtype=bool)
        bits, nbytes = leq.view(np.uint8), (n + 7) // 8
        rows: list[int | None] = [None] * n
        bad = (n, 0, 0)  # the least (i, w, j) with w < j, covers w, j of i
        for v in reversed(order):
            row = mask = 0  # mask: the upper covers of v
            for w in up[v]:
                row |= rows[w]
                mask |= 1 << w
            if row & mask and v < bad[0]:
                hit, w = next((rows[w] & mask, w) for w in up[v] if rows[w] & mask)
                bad = (v, w, (hit & -hit).bit_length() - 1)
            row |= mask
            packed = np.frombuffer(row.to_bytes(nbytes, "little"), dtype=np.uint8)
            bits[v] = np.unpackbits(packed, count=n, bitorder="little")
            bits[v, v] = 1
            if unread[v]:
                rows[v] = row
            for w in up[v]:
                unread[w] -= 1
                if not unread[w]:
                    rows[w] = None
        if bad[0] < n:
            i, w, j = bad
            raise PosetError(f"({keys[i]!r}, {keys[j]!r}) is not a cover: "
                             f"{keys[w]!r} lies strictly between")
        return cls(keys, leq, covers)

    # -- basic structure -------------------------------------------------

    def __len__(self) -> int:
        return len(self.keys)

    def index(self, key: Hashable) -> int:
        return self._index[key]

    @cached_property
    def upper_covers(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in self.keys]
        for i, j in self.covers:
            out[i].append(j)
        for lst in out:
            lst.sort()
        return out

    @cached_property
    def bottom(self) -> int | None:
        mins = np.flatnonzero(self.leq.all(axis=1))
        return int(mins[0]) if len(mins) == 1 else None

    @cached_property
    def top(self) -> int | None:
        maxs = np.flatnonzero(self.leq.all(axis=0))
        return int(maxs[0]) if len(maxs) == 1 else None

    def _require_bounded(self) -> tuple[int, int]:
        if self.bottom is None or self.top is None:
            raise PosetError("poset is not bounded")
        return self.bottom, self.top

    @cached_property
    def height(self) -> np.ndarray:
        """Longest-chain length from a minimal element, per element.
        Round k raises h[j] to h[i] + 1 over every cover (i, j) at once,
        which settles every element of height k; a round that changes
        nothing ends the loop."""
        n, pairs = len(self.keys), len(self.covers)
        lo = np.fromiter(map(itemgetter(0), self.covers), dtype=np.int64, count=pairs)
        hi = np.fromiter(map(itemgetter(1), self.covers), dtype=np.int64, count=pairs)
        h = np.zeros(n, dtype=np.int64)
        for _ in range(n + 1):  # a chain has at most n - 1 covers
            raised = h.copy()
            np.maximum.at(raised, hi, h[lo] + 1)
            if np.array_equal(raised, h):
                return h
            h = raised
        raise PosetError("cover relation contains a cycle")

    # -- chains ----------------------------------------------------------

    def _saturated_chains(self, x: int, y: int) -> Iterator[tuple[int, ...]]:
        """All saturated x-to-y chains as index tuples, in lexicographic
        order of element indices (covers of an interval coincide with
        covers of the full poset).  Depth-first with an explicit stack of
        successor iterators; each element's successors below y are
        filtered once per call, unless y is the top.

        Being depth-first, the walk emits the chains that share a prefix
        one after another, and callers rely on this contiguity:
        `verify_el` reads every saturated chain from x as a prefix of the
        chains of [x, 1] and takes each prefix once, when it first
        differs from the previous chain."""
        if x == y:
            yield (x,)
            return
        up = self.upper_covers
        # every upper cover of an element lies below the top: no filter
        succ = up if y == self.top else _CoversBelow(up, self.leq[:, y].tolist())
        chain = [x]
        stack = [iter(succ[x])]
        while stack:
            w = next(stack[-1], None)
            if w is None:
                stack.pop()
                chain.pop()
            elif w == y:
                yield (*chain, y)
            else:
                chain.append(w)
                stack.append(iter(succ[w]))

    def iter_maximal_chains(self) -> Iterator[tuple[int, ...]]:
        """All bottom-to-top saturated chains, lexicographically."""
        bot, top = self._require_bounded()
        yield from self._saturated_chains(bot, top)

    def interval_maximal_chains(self, x: int, y: int) -> list[tuple[int, ...]]:
        """All saturated x-to-y chains, lexicographically."""
        if not self.leq[x, y]:
            raise PosetError("not a comparable pair")
        return list(self._saturated_chains(x, y))

    def path_counts(self, covers: Sequence[tuple[int, int]]
                    ) -> tuple[list[int], list[int]]:
        """Per element: the number of paths along the given covers from
        the bottom, and to the top.  With covers=self.covers the top entry
        of the first list is the number of maximal chains."""
        bot, top = self._require_bounded()
        h = self.height
        up = [0] * len(self.keys)
        down = [0] * len(self.keys)
        up[bot] = 1
        down[top] = 1
        for i, j in sorted(covers, key=lambda c: int(h[c[0]])):
            up[j] += up[i]
        for i, j in sorted(covers, key=lambda c: -int(h[c[1]])):
            down[i] += down[j]
        return up, down

    # -- gradedness and rank ----------------------------------------------

    def is_graded(self) -> tuple[bool, np.ndarray | None]:
        """True iff all maximal chains have equal length; on success also
        the rank function (length of any bottom-to-x saturated chain)."""
        self._require_bounded()
        # with a single bottom, unit height steps on every cover make each
        # bottom-to-x saturated chain have length height[x]
        if any(self.height[j] != self.height[i] + 1 for i, j in self.covers):
            return False, None
        return True, self.height.copy()

    def rank(self) -> int:
        self._require_bounded()
        return int(self.height[self.top])

    # -- Moebius function --------------------------------------------------

    def moebius_bottom_top(self) -> int:
        bot, top = self._require_bounded()
        return int(self._moebius_to(top)[bot])

    def _moebius_to(self, y: int) -> np.ndarray:
        """mu(x, y) per element x, 0 unless x <= y, by the recursion
        mu(x, y) = -sum_{x < z <= y} mu(z, y) in decreasing height order:
        every such z is higher than x, so its value is already known,
        and mu(x, y) is still 0 when its own sum is taken.  The values
        are int64 while their absolute sum is below MOEBIUS_INT64_BOUND,
        which no partial sum can then pass; past it they are Python ints."""
        below = self.leq[:, y].copy()
        xs = np.flatnonzero(below)
        xs = xs[np.argsort(-self.height[xs], kind="stable")]  # y first
        mu = np.zeros(len(self.keys), dtype=np.int64)
        mu[y] = total = 1
        for x in xs[1:].tolist():
            if total >= MOEBIUS_INT64_BOUND and mu.dtype != object:
                mu = mu.astype(object)
            value = -int(mu[self.leq[x] & below].sum())
            mu[x] = value
            total += abs(value)
        return mu

    # -- lattice structure ---------------------------------------------------

    @cached_property
    def _bitsets(self) -> tuple[list[int], list[int], list[int]]:
        """The elements in rank order, by (height, index), and per element
        its up-set and its down-set as ints.  Height rises along every
        cover, so rank order is a linear extension: a set's least
        element, if it has one, ranks first, and its greatest element
        last.  Down-sets give the element of rank r bit r, and up-sets bit
        N - 1 - r, so that in both the extremum sought is the highest set
        bit, which `int.bit_length` finds without reading the others.

        Both are closed over the covers, as `from_covers` closes its
        rows: an up-set is the element and the up-sets of its upper
        covers, filled from the highest rank down, and each down-set is
        ORed into the down-sets of its upper covers from the lowest rank
        up."""
        by_rank = np.argsort(self.height, kind="stable").tolist()
        n = len(by_rank)
        up, down = [0] * n, [0] * n
        for r, x in enumerate(by_rank):
            up[x], down[x] = 1 << (n - 1 - r), 1 << r
        covers = self.upper_covers
        for x in reversed(by_rank):
            row = up[x]
            for c in covers[x]:
                row |= up[c]
            up[x] = row
        for x in by_rank:
            row = down[x]
            for c in covers[x]:
                down[c] |= row
        return by_rank, up, down

    def lattice_check(self) -> LatticeCheck:
        """Test whether every pair has a unique least upper bound and
        greatest lower bound.  Computed once per poset.

        A bounded poset is decided by the lemma of Björner, Edelman and
        Ziegler ("Hyperplane arrangements with a lattice of regions",
        Discrete Comput. Geom. 5 (1990), Lemma 2.1): a finite bounded
        poset in which any two elements covering a common element have a
        join is a lattice.  So only the pairs of upper covers of each
        element are joined.  Proof: suppose some pair has no join, and
        among the common lower bounds of all such pairs take a maximal
        one, z, of a pair x, y.  Then z < x, y; pick covers z < x' <= x
        and z < y' <= y.  x' = y' would be a common lower bound of x, y
        above z, so x' != y' and w = x' v y' exists.  x and w have the
        common lower bound x' > z, so by the choice of z they have a
        join u; u and y have y' > z, so they have a join v.  Every upper
        bound of x and y lies above x' and y', so above w, u and v: v is
        the join of x and y, a contradiction.  So every pair has a join,
        and the meet of x and y is the join of their lower bounds, a set
        that holds the bottom.

        When the lemma fails, or the poset is unbounded, the pairs
        (i, j > i) are scanned in row-major index order, the join before
        the meet, and the first that lacks one is the witness."""
        return self._lattice

    @cached_property
    def _lattice(self) -> LatticeCheck:
        by_rank, up, down = self._bitsets
        if self.bottom is not None and self.top is not None and all(
                _has_least(up[a] & up[b], up, by_rank)
                for covers in self.upper_covers for a, b in combinations(covers, 2)):
            return LatticeCheck(True)
        for i, (up_i, down_i) in enumerate(zip(up, down)):
            for j in range(i + 1, len(up)):
                if not _has_least(up_i & up[j], up, by_rank):
                    reason = "no unique join"
                elif not _has_greatest(down_i & down[j], down, by_rank):
                    reason = "no unique meet"
                else:
                    continue
                return LatticeCheck(False, witness=(self.keys[i], self.keys[j]),
                                    reason=reason)
        return LatticeCheck(True)  # no pair fails: the empty poset

    def join_row(self, x: int) -> list[int]:
        """x v y for every element y, in a lattice: the member of least
        rank of their common up-set."""
        by_rank, up, _ = self._bitsets
        return [by_rank[len(up) - s.bit_length()] for s in map(up[x].__and__, up)]

    def is_left_modular(self, x: int) -> bool:
        """Whether (y v x) ^ z == y v (x ^ z) for every y <= z.

        By covers: x is left-modular iff no cover a < b has x v a = x v b
        and x ^ a = x ^ b.  Such a cover breaks the identity at y = a,
        z = b: (a v x) ^ b = (b v x) ^ b = b, but a v (x ^ b) =
        a v (x ^ a) = a.  Conversely, if it fails at y <= z, then
        a' = y v (x ^ z) < b' = (y v x) ^ z, since a' <= b' always holds.
        Both have join x v y with x (x v a' = x v y, and x v b' lies
        between it and x v y v x) and meet x ^ z with x (x ^ b' = x ^ z,
        and x ^ a' lies between x ^ z and it).  Since v x and ^ x are
        monotone, every element of a saturated a'-b' chain has the same
        join and meet with x, and its first cover is such a cover."""
        if not self._lattice.is_lattice:
            raise PosetError("left-modularity is defined only in lattices")
        _, _, down = self._bitsets
        join = self.join_row(x)
        meet = [s.bit_length() for s in map(down[x].__and__, down)]  # rank + 1
        return not any(join[a] == join[b] and meet[a] == meet[b] for a, b in self.covers)

    def is_left_modular_chain(self, chain: Sequence[int]) -> bool:
        """True iff the (maximal) chain consists of left-modular elements.
        Each element's verdict is kept, so the chain that `verify` checks
        is not checked again by the left-modular labeling."""
        if not self._is_maximal_chain(chain):
            raise PosetError("chain is not maximal")
        known = self._left_modular
        for x in chain:
            if x not in known:
                known[x] = self.is_left_modular(x)
            if not known[x]:
                return False
        return True

    def _is_maximal_chain(self, chain: Sequence[int]) -> bool:
        bot, top = self._require_bounded()
        if not chain or chain[0] != bot or chain[-1] != top:
            return False
        return all(b in self.upper_covers[a] for a, b in zip(chain, chain[1:]))

    # -- export ------------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({
            "elements": [str(k) for k in self.keys],
            "covers": [[i, j] for i, j in sorted(self.covers)],
        }, sort_keys=True)

    def to_dot(self, edge_labels: dict[tuple[int, int], int] | None = None) -> str:
        lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=plaintext];"]
        for i, k in enumerate(self.keys):
            lines.append(f'  n{i} [label="{k}"];')
        for i, j in sorted(self.covers):
            attr = ""
            if edge_labels is not None:
                attr = f' [label="{edge_labels[(i, j)]}"]'
            lines.append(f"  n{i} -> n{j}{attr};")
        lines.append("}")
        return "\n".join(lines) + "\n"


class _CoversBelow(dict):
    """Upper covers that lie below a fixed element, per element, each
    list filtered on first use."""

    def __init__(self, up: list[list[int]], below: list[bool]):
        super().__init__()
        self.up, self.below = up, below

    def __missing__(self, w: int) -> list[int]:
        ws = self[w] = [v for v in self.up[w] if self.below[v]]
        return ws


def _has_least(members: int, up: list[int], by_rank: list[int]) -> bool:
    """Whether a set, as an up-set bitset, is nonempty and lies above its
    member of least rank, its highest bit."""
    return members != 0 and members & up[by_rank[len(up) - members.bit_length()]] == members


def _has_greatest(members: int, down: list[int], by_rank: list[int]) -> bool:
    """Whether a set, as a down-set bitset, is nonempty and lies below
    its member of greatest rank, its highest bit."""
    return members != 0 and members & down[by_rank[members.bit_length() - 1]] == members


def _topological_order(n: int, up: list[list[int]], indeg: list[int]) -> list[int]:
    """Kahn's algorithm, always taking the least available element."""
    indeg = list(indeg)
    frontier = [v for v in range(n) if indeg[v] == 0]  # sorted, so a heap
    order: list[int] = []
    while frontier:
        v = heapq.heappop(frontier)
        order.append(v)
        for w in up[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(frontier, w)
    if len(order) != n:
        raise PosetError("cover relation contains a cycle")
    return order


def _int_pair(pair: tuple[int, int]) -> tuple[int, int]:
    """The pair as given if it is two Python ints, else converted (numpy
    integers do not serialise)."""
    i, j = pair
    return pair if type(pair) is tuple and type(i) is type(j) is int else (int(i), int(j))
