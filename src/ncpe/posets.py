"""Generic finite poset and lattice machinery.

Elements are opaque hashable keys; the engine never inspects their
structure.  The order is kept as a dense boolean matrix, cover relations
as an adjacency list (the transitive reduction).  `from_covers` closes
the covers on Python-int bitsets, dropping each row once it is unpacked
and its lower covers have read it.

The join table is built by the cover recursion, one height level at a
time: row x reads only the rows of its upper covers, which are strictly
higher, so a whole level is filled by one gather per block of rows.  Of
the candidates join(c, y) over the covers c of x, a least one lies
strictly below all the others, so it is the one of least rank when the
elements are ranked by (height, index); one order check confirms it.
The meet table is the same construction on the dual.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np


# entries of one (rows, covers, elements) gather in _extremum_table
GATHER_LIMIT = 1 << 20
# _moebius_to keeps int64 values while their absolute sum stays below this
MOEBIUS_INT64_BOUND = 1 << 62


class PosetError(ValueError):
    """Invalid order data (non-poset oracle, unbounded poset, ...)."""


@dataclass
class LatticeCheck:
    """Outcome of the lattice test; meet/join tables on success, a
    witness pair without unique meet or join otherwise."""

    is_lattice: bool
    meet: np.ndarray | None = None
    join: np.ndarray | None = None
    witness: tuple[Hashable, Hashable] | None = None
    reason: str = ""


class FinitePoset:
    def __init__(self, keys: Sequence[Hashable], leq: np.ndarray,
                 covers: list[tuple[int, int]]):
        self.keys = tuple(keys)
        self.leq = leq
        self.covers = covers
        self._index = {k: i for i, k in enumerate(self.keys)}
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
    def lower_covers(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in self.keys]
        for i, j in self.covers:
            out[j].append(i)
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

    def lattice_check(self) -> LatticeCheck:
        """Test whether every pair has a unique least upper bound and
        greatest lower bound; returns meet/join tables on success.
        Computed once per poset."""
        return self._lattice

    @cached_property
    def _lattice(self) -> LatticeCheck:
        leq, h = self.leq, self.height
        join = _extremum_table(leq, self.upper_covers, h)
        meet = _extremum_table(leq.T, self.lower_covers, -h)
        if (join >= 0).all() and (meet >= 0).all():
            return LatticeCheck(True, meet=meet, join=join)
        # the first failing pair (i, j >= i) in row-major order, join
        # before meet; an undecided entry is settled by the definition
        for i, j in zip(*np.nonzero(np.triu((join < 0) | (meet < 0)))):
            if join[i, j] == -1 or (join[i, j] == -2 and _unique_extremum(
                    leq[i] & leq[j], h, leq, least=True) is None):
                reason = "no unique join"
            elif meet[i, j] == -1 or (meet[i, j] == -2 and _unique_extremum(
                    leq[:, i] & leq[:, j], h, leq, least=False) is None):
                reason = "no unique meet"
            else:
                continue
            return LatticeCheck(False, witness=(self.keys[i], self.keys[j]),
                                reason=reason)
        raise AssertionError("negative table entry without a failing pair")

    def _modular_columns(self, x: int) -> np.ndarray:
        """Per z, whether xMz: (y v x) ^ z == y v (x ^ z) for every y <= z."""
        tables = self._lattice
        if not tables.is_lattice:
            raise PosetError("modular pairs are defined only in lattices")
        join, meet = tables.join, tables.meet
        lhs = meet[join[:, x][:, None], np.arange(len(self.keys))]
        rhs = join[:, meet[x, :]]
        return ((lhs == rhs) | ~self.leq).all(axis=0)

    def is_left_modular(self, x: int) -> bool:
        return bool(self._modular_columns(x).all())

    def is_left_modular_chain(self, chain: Sequence[int]) -> bool:
        """True iff the (maximal) chain consists of left-modular elements."""
        if not self._is_maximal_chain(chain):
            raise PosetError("chain is not maximal")
        return all(self.is_left_modular(x) for x in chain)

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


def _extremum_table(leq: np.ndarray, covers: list[list[int]],
                    height: np.ndarray) -> np.ndarray:
    """Join table by the cover recursion (the meet table is the same call
    on the dual: leq.T, lower covers and -height).

    For y incomparable to x every upper bound of x and y lies above some
    upper cover c of x, so join(x, y) is the least of the join(c, y), if
    one of them lies below all the others, and no join exists otherwise
    (-1).  When some join(c, y) is itself undefined the entry is
    undecided (-2): join(x, y) may still exist.

    Row x reads only the rows of its upper covers, which are strictly
    higher, so all rows of one height are filled together, from the
    greatest height down.  The rows of a level are batched by their
    number of covers, so that one gather of (rows, covers, elements)
    needs no padding, and a batch is cut into blocks whose gather holds
    at most GATHER_LIMIT entries, or one row where a row alone holds more.

    A least candidate lies strictly below every other one, so it is the
    unique candidate of least height.  The elements are ranked once by
    (height, index), and the candidate of least rank is the only one
    that can be least; the check that it lies below all the others
    decides between it and -1.
    """
    n = leq.shape[0]
    dtype = np.int16 if n <= np.iinfo(np.int16).max else np.int32
    table = np.empty((n, n), dtype=dtype)
    ids = np.arange(n, dtype=dtype)
    by_rank = np.argsort(height, kind="stable").astype(dtype)
    rank = np.full(n + 2, -1, dtype=dtype)  # entries -2 and -1 rank -1
    rank[by_rank] = ids
    levels = np.split(by_rank, np.flatnonzero(np.diff(height[by_rank])) + 1)
    for level in reversed(levels):
        by_width: dict[int, list[int]] = {}
        for x in level.tolist():
            by_width.setdefault(len(covers[x]), []).append(x)
        for width, batch in by_width.items():
            step = max(1, GATHER_LIMIT // (n * max(width, 1)))
            for start in range(0, len(batch), step):
                block = batch[start:start + step]
                # y above x gives y, y below x gives x, -1 off the cone
                rows = np.where(leq[block], ids, np.where(
                    leq[:, block].T, np.array(block, dtype=dtype)[:, None], -1))
                if width:  # a maximal x keeps -1 off its cone
                    cand = table[[covers[x] for x in block]]
                    least_rank = rank[cand].min(axis=1)  # -1: some candidate undefined
                    best = by_rank[least_rank]
                    least = leq[best[:, None, :], cand].all(axis=1)
                    rows = np.where(rows >= 0, rows, np.where(
                        least_rank < 0, -2, np.where(least, best, -1)))
                table[block] = rows
    return table


def _unique_extremum(mask: np.ndarray, height: np.ndarray,
                     leq: np.ndarray, least: bool) -> int | None:
    """Unique minimum (least=True) or maximum of the masked subset, or
    None.  A least element, if present, is the unique member of minimal
    height within the subset."""
    idx = np.flatnonzero(mask)
    if len(idx) == 0:
        return None
    hs = height[idx]
    cand = idx[hs == (hs.min() if least else hs.max())]
    if len(cand) != 1:
        return None
    z = int(cand[0])
    row = leq[z] if least else leq[:, z]
    if not np.all(row[idx]):
        return None
    return z


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
