"""Generic finite poset and lattice machinery.

Elements are opaque hashable keys; the engine never inspects their
structure.  The order is held once.  `from_covers` reads the covers (the
transitive reduction) level by level, as Kahn's algorithm finds them,
which gives each element's height and the rank order: the elements by
(height, index), a linear extension.  It then closes the covers, from
the highest rank down, into one reflexive up-set per element, a Python
int in which the element of rank r has bit N - 1 - r.

So a set's least element, if it has one, is its highest set bit, which
`int.bit_length` finds without reading the others, and an element's own
bit is the highest of its up-set.  A join is the member of least rank of
two up-sets' intersection, if that element lies below the whole set.
Meets are the same on down-sets, built from the covers only when a meet
is asked for, with the element of rank r at bit r.  No join or meet
table is built: the lattice verdict joins only pairs of upper covers of
a common element, left-modularity needs one join row and one meet row,
and the left-modular labeling one join row per chain element.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, compress
from typing import Hashable, Iterable, Iterator, Sequence


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
    def __init__(self, keys: Sequence[Hashable], covers: list[tuple[int, int]],
                 upper_covers: list[list[int]], height: list[int], by_rank: list[int],
                 up: list[int]):
        self.keys = tuple(keys)
        self.covers = covers  # sorted
        self.upper_covers = upper_covers  # per element, its upper covers by index
        self.height = height  # longest-chain length from a minimal element
        self.by_rank = by_rank  # the elements by (height, index)
        self.up = up  # reflexive up-sets; the element of rank r has bit N - 1 - r
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

        Kahn's algorithm reads the covers one level at a time: level k
        holds the elements whose lower covers all lie in the levels
        before it, so k is the length of a longest chain up to the
        element from a minimal one, its height.  The levels, each in
        index order, are the rank order; an element never leveled lies
        on a cycle.  Then, from the highest rank down, the up-set of v is
        its own bit and the up-sets of its upper covers.

        The covers are always validated: a given pair (v, j) is rejected
        when another given upper cover w of v lies below j, and the least
        v, then w, then j is reported.  Then height[j] > height[w] >
        height[v], so only an element with an upper cover two or more
        levels above it can have such a pair.
        """
        keys = tuple(keys)
        n = len(keys)
        # a dict keeps the given order, often nearly sorted, so the sort is cheap
        covers = sorted(dict.fromkeys(cover_pairs))
        ups: list[list[int]] = [[] for _ in range(n)]  # sorted, as covers are
        unread = [0] * n  # per element, its lower covers not yet leveled
        for i, j in covers:
            if i == j or not (0 <= i < n and 0 <= j < n):
                raise PosetError(f"bad cover pair ({i}, {j})")
            ups[i].append(j)
            unread[j] += 1
        height = [0] * n
        by_rank: list[int] = []
        level, k = [v for v, count in enumerate(unread) if not count], 0
        while level:
            level.sort()
            by_rank += level
            upper = []
            for v in level:
                height[v] = k
                for w in ups[v]:
                    unread[w] -= 1
                    if not unread[w]:
                        upper.append(w)
            level, k = upper, k + 1
        if len(by_rank) != n:
            raise PosetError("cover relation contains a cycle")
        up = [0] * n
        bad = (n, 0, 0)  # the least (v, w, j) with w < j, covers w, j of v
        for r in range(n - 1, -1, -1):
            v = by_rank[r]
            row = 1 << (n - 1 - r)
            for w in ups[v]:
                row |= up[w]
            up[v] = row
            if v < bad[0] and max(map(height.__getitem__, ups[v]), default=0) > height[v] + 1:
                bad = next(((v, w, j) for w in ups[v] for j in ups[v] if height[j] > height[w]
                            and up[w] >> (up[j].bit_length() - 1) & 1), bad)
        if bad[0] < n:
            v, w, j = bad
            raise PosetError(f"({keys[v]!r}, {keys[j]!r}) is not a cover: "
                             f"{keys[w]!r} lies strictly between")
        return cls(keys, covers, ups, height, by_rank, up)

    # -- basic structure -------------------------------------------------

    def index(self, key: Hashable) -> int:
        return self._index[key]

    def above(self, x: int) -> list[int]:
        """The elements strictly above x, in increasing index order: the
        up-set of x without its highest bit, x's own."""
        by_rank, last = self.by_rank, len(self.keys) - 1
        return sorted(by_rank[last - p] for p in _members(self.up[x])[:-1])

    @cached_property
    def bottom(self) -> int | None:
        """The element of least rank, if its up-set holds every element."""
        by_rank = self.by_rank
        return by_rank[0] if by_rank and self.up[by_rank[0]].bit_count() == len(by_rank) else None

    @cached_property
    def top(self) -> int | None:
        """The element of greatest rank, at bit 0, if every up-set holds it."""
        return self.by_rank[-1] if self.up and all(row & 1 for row in self.up) else None

    def _require_bounded(self) -> tuple[int, int]:
        if self.bottom is None or self.top is None:
            raise PosetError("poset is not bounded")
        return self.bottom, self.top

    # -- chains ----------------------------------------------------------

    def _saturated_chains(self, x: int, y: int) -> Iterator[tuple[int, ...]]:
        """All saturated x-to-y chains as index tuples, in lexicographic
        order of element indices (covers of an interval coincide with
        covers of the full poset).  Depth-first with an explicit stack of
        successor iterators.  Unless y is the top, the elements of
        [x, y] are read once per call off the up-sets, and so are their
        upper covers inside it.

        Being depth-first, the walk emits the chains that share a prefix
        one after another, and both callers of the chain lists rely on
        this contiguity to skip them: `verify_el` reads every saturated
        chain from x as a prefix of the chains of [x, 1], takes each
        prefix once, when it first differs from the previous chain, and
        skips the chains through a dominated prefix; and
        `count_decreasing_chains` skips the chains that rise inside the
        part they share with the previous maximal chain."""
        if x == y:
            yield (x,)
            return
        covers = self.upper_covers
        succ = covers  # every upper cover of an element lies below the top
        if y != self.top:
            bit = 1 << (self.up[y].bit_length() - 1)
            inside = {v for v in self.above(x) if self.up[v] & bit}
            succ = {w: [v for v in covers[w] if v in inside] for w in (x, *inside)}
        chain = [x]
        stack = [iter(succ[x])]
        while stack:
            for w in stack[-1]:  # resumed where the last descent left it
                if w == y:
                    yield (*chain, y)
                else:
                    chain.append(w)
                    stack.append(iter(succ[w]))
                    break
            else:
                stack.pop()
                chain.pop()

    def iter_maximal_chains(self) -> Iterator[tuple[int, ...]]:
        """All bottom-to-top saturated chains, lexicographically."""
        bot, top = self._require_bounded()
        yield from self._saturated_chains(bot, top)

    def interval_maximal_chains(self, x: int, y: int) -> list[tuple[int, ...]]:
        """All saturated x-to-y chains, lexicographically."""
        if not self.up[x] & 1 << (self.up[y].bit_length() - 1):
            raise PosetError("not a comparable pair")
        return list(self._saturated_chains(x, y))

    def maximal_chain_count(self) -> int:
        """The number of maximal chains: per element, the number of
        paths to it along the covers from the bottom, each element's
        count added to its upper covers in rank order, which puts every
        lower cover first."""
        bot, top = self._require_bounded()
        covers = self.upper_covers
        paths = [0] * len(self.keys)
        paths[bot] = 1
        for x in self.by_rank:
            for w in covers[x]:
                paths[w] += paths[x]
        return paths[top]

    # -- gradedness and rank ----------------------------------------------

    def is_graded(self) -> bool:
        """True iff all maximal chains have equal length; then `height` is
        the rank function (length of any bottom-to-x saturated chain)."""
        self._require_bounded()
        # with a single bottom, unit height steps on every cover make each
        # bottom-to-x saturated chain have length height[x]
        return all(self.height[j] == self.height[i] + 1 for i, j in self.covers)

    def rank(self) -> int:
        self._require_bounded()
        return self.height[self.top]

    # -- Moebius function --------------------------------------------------

    def moebius_bottom_top(self) -> int:
        bot, top = self._require_bounded()
        return self._moebius_to(top)[bot]

    def _moebius_to(self, y: int) -> list[int]:
        """mu(x, y) per element x, 0 unless x <= y, by the recursion
        mu(x, y) = -sum_{x < z <= y} mu(z, y), one height level at a time
        from y down: every such z is higher than x, so its value is
        already known.  The sum runs over the whole up-set of x, since
        every z above x that is not below y holds 0, and x itself is in
        no plane yet.

        It is taken on bit planes of the known values: the plane of
        weight +-2^b holds, at their rank bits, the z whose mu has that
        sign and binary digit b, and the sum is that of each weight times
        the number of bits the up-set of x shares with its plane: a few
        int ANDs per element."""
        up, n = self.up, len(self.keys)
        bit = 1 << (up[y].bit_length() - 1)
        levels: dict[int, list[int]] = {}  # from the highest level down
        for x in reversed(self.by_rank):
            if x != y and up[x] & bit:
                levels.setdefault(self.height[x], []).append(x)
        mu = [0] * n
        mu[y] = 1
        digits: dict[int, bytearray] = {}  # per weight, its plane as bytes
        known = [y]
        for level in levels.values():
            for z in known:
                size, p = abs(mu[z]), up[z].bit_length() - 1
                for b in range(size.bit_length()):
                    if size >> b & 1:
                        weight = (1 if mu[z] > 0 else -1) << b
                        digits.setdefault(weight, bytearray((n + 7) // 8))[p >> 3] |= 1 << (p & 7)
            planes = [(weight, int.from_bytes(bits, "little")) for weight, bits in digits.items()]
            for x in level:
                row = up[x]
                mu[x] = -sum(weight * (row & bits).bit_count() for weight, bits in planes)
            known = level
        return mu

    # -- lattice structure ---------------------------------------------------

    @cached_property
    def _down(self) -> list[int]:
        """Per element its down-set as an int, the element of rank r at
        bit r, so that a set's greatest member is its highest bit.  Built
        for meets only, in one pass from the lowest rank up: an element's
        lower covers have all been read when it is, and its down-set is
        ORed into those of its upper covers."""
        covers = self.upper_covers
        down = [0] * len(self.keys)
        for r, x in enumerate(self.by_rank):
            row = down[x] = down[x] | 1 << r
            for c in covers[x]:
                down[c] |= row
        return down

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
        up, by_rank = self.up, self.by_rank
        if self.bottom is not None and self.top is not None and all(
                _has_least(up[a] & up[b], up, by_rank)
                for covers in self.upper_covers for a, b in combinations(covers, 2)):
            return LatticeCheck(True)
        down = self._down
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
        up, by_rank = self.up, self.by_rank
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
        down = self._down
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
            "covers": self.covers,  # json writes each pair as a list
        }, sort_keys=True)

    def to_dot(self, edge_labels: dict[tuple[int, int], int] | None = None) -> str:
        lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=plaintext];"]
        for i, k in enumerate(self.keys):
            lines.append(f'  n{i} [label="{k}"];')
        for i, j in self.covers:
            attr = "" if edge_labels is None else f' [label="{edge_labels[(i, j)]}"]'
            lines.append(f"  n{i} -> n{j}{attr};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _members(row: int) -> list[int]:
    """The positions of the set bits of a row, in increasing order.  The
    int is unpacked once, to bytes, and only its nonzero bytes are read."""
    data = row.to_bytes((row.bit_length() + 7) // 8, "little")
    return [8 * k + t for k in compress(range(len(data)), data) for t in _BYTE_BITS[data[k]]]


_BYTE_BITS = [tuple(t for t in range(8) if b >> t & 1) for b in range(256)]


def _has_least(members: int, up: list[int], by_rank: list[int]) -> bool:
    """Whether a set, as an up-set bitset, is nonempty and lies above its
    member of least rank, its highest bit."""
    return members != 0 and members & up[by_rank[len(up) - members.bit_length()]] == members


def _has_greatest(members: int, down: list[int], by_rank: list[int]) -> bool:
    """Whether a set, as a down-set bitset, is nonempty and lies below
    its member of greatest rank, its highest bit."""
    return members != 0 and members & down[by_rank[members.bit_length() - 1]] == members

