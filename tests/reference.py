"""Definitions that only the tests use: a poset from its relation matrix
and the relation matrix of a poset, the row-OR closure and sort-based
topological order that `from_covers` once used, the height by one step
per cover, the Moebius recursion by dicts and the full Moebius table of a
poset, the unique rising maximal chain of an edge labeling, the EL check
by one chain list per interval, the S_n EL check by one walk of every
maximal chain, the decreasing-chain count by the word of every maximal
chain, the parking label by its block-set rule and by a scan of
the codes, the path counts along a subset of the covers, and the chain family
of the noncrossing lattice that defines the chain-defined order on PE.

They also hold the checks of the paper's lemmas that no command runs:
parking functions and chain words, the removed covers and their
dominating witnesses, restriction EL on the chain-defined order, the
PE meet, modular pairs and supersolvability, the split of a base tree
at its root edge, the iterated join of an atom set, the bounded-below
test member by member, the NBB bases of any element by a search that
ignores ranks, and the meet form of the left-modular labeling.

The join and meet tables, filled one row at a time, with the lattice
test, modular pairs and the labels read off them, are the oracles of
the lattice verdict by the BEZ lemma, the witness scan, left-modularity
by covers and the labels by join rows.
The join, noncrossing closure and PE join that relabel through
`_from_labels` are the oracles of the code-level kernels in `src`, and
the per-member cover loop and the sort by blocks are the oracles of the
packed-int cover search and of the order in which the noncrossing
enumeration generates its partitions."""

import operator
import weakref
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np

from ncpe.builders import (BuildError, _require_pe, build_nc, build_pe_dref,
                           build_pi, check_size, distinguished_chain,
                           is_pe_member, pe_join, pe_members)
from ncpe.labelings import (EdgeLabeling, ELVerdict, LabelingError,
                            count_decreasing_chains, is_rising,
                            left_modular_labeling, parking_label, verify_el)
from ncpe.nbb import Ambient, Atom, is_bb, ranked_atoms
from ncpe.parking import build_pe_pchn
from ncpe.partitions import (PartitionError, SetPartition, _from_labels, code_blocks,
                             nc_join)
from ncpe.posets import FinitePoset, PosetError


def from_leq_matrix(keys: Sequence[Hashable], leq: np.ndarray) -> FinitePoset:
    """The poset with the given relation matrix, checked to be a partial
    order; its covers are the transitive reduction."""
    keys = tuple(keys)
    check_partial_order(keys, leq)
    return matrix_poset(keys, leq, transitive_reduction(leq))


def matrix_poset(keys: Sequence[Hashable], leq: np.ndarray,
                 covers: list[tuple[int, int]]) -> FinitePoset:
    """A `FinitePoset` with its fields computed from the relation matrix
    and the covers: heights by one step per cover, the rank order by a
    sort on (height, index), and the up-sets as matrix rows."""
    height = loop_height(len(keys), covers)
    by_rank = sorted(range(len(keys)), key=lambda v: (height[v], v))
    upper_covers: list[list[int]] = [[] for _ in keys]
    for i, j in sorted(covers):
        upper_covers[i].append(j)
    return FinitePoset(keys, covers, upper_covers, height, by_rank,
                       matrix_rows(leq, by_rank))


def matrix_rows(leq: np.ndarray, by_rank: Sequence[int]) -> list[int]:
    """The up-sets of `FinitePoset.up` for a relation matrix and a rank
    order: bit N - 1 - r of row i set iff i <= by_rank[r]."""
    by_bit = leq[:, list(by_rank)[::-1]]
    return [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
            for row in by_bit]


_LEQ: "weakref.WeakKeyDictionary[FinitePoset, np.ndarray]" = weakref.WeakKeyDictionary()


def leq_matrix(p: FinitePoset) -> np.ndarray:
    """The relation matrix of a poset, leq[i, j] iff element i <= element
    j, unpacked from its up-sets (computed once per poset)."""
    if p not in _LEQ:
        n, width = len(p.keys), (len(p.keys) + 7) // 8
        packed = np.frombuffer(b"".join(row.to_bytes(width, "little") for row in p.up),
                               dtype=np.uint8).reshape(n, width)
        leq = np.empty((n, n), dtype=bool)
        leq[:, list(p.by_rank)[::-1]] = np.unpackbits(packed, axis=1, count=n,
                                                      bitorder="little")
        _LEQ[p] = leq
    return _LEQ[p]


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
    return matrix_poset(keys, leq, covers)


def lower_covers(p: FinitePoset) -> list[list[int]]:
    """The lower covers of each element, in increasing order."""
    out: list[list[int]] = [[] for _ in p.keys]
    for i, j in sorted(p.covers):
        out[j].append(i)
    return out


def per_row_extremum_table(leq: np.ndarray, covers: list[list[int]],
                           order: Iterable[int], height: np.ndarray) -> np.ndarray:
    """Join table by the cover recursion, one numpy step per row, in an
    order that puts every upper cover of x before x (the meet table is
    the same call on leq.T, lower covers, a forward order and -height).
    The least join(c, y) over the covers c of x is found by the least
    height among them.  The one table oracle: `lattice_tables` reads its
    verdict and witness off these tables, and the tests check them
    against the pairwise definition on the smaller lattices."""
    n = leq.shape[0]
    table = np.full((n, n), -1,
                    dtype=np.int16 if n <= np.iinfo(np.int16).max else np.int32)
    for x in order:
        above, below = leq[x], leq[:, x]
        table[x, above] = np.flatnonzero(above)
        table[x, below] = x
        rest = np.flatnonzero(~(above | below))
        if len(rest) == 0 or not covers[x]:
            continue  # a maximal x shares no upper bound with any such y
        cand = table[covers[x]][:, rest]
        undecided = (cand < 0).any(axis=0)
        cand[cand < 0] = 0  # any valid index; these entries end undecided
        best = cand[height[cand].argmin(axis=0), np.arange(len(rest))]
        least = leq[best, cand].all(axis=0)
        table[x, rest] = np.where(undecided, -2, np.where(least, best, -1))
    return table


_ROWS: "weakref.WeakKeyDictionary[FinitePoset, tuple[np.ndarray, np.ndarray]]" = \
    weakref.WeakKeyDictionary()


def per_row_tables(p: FinitePoset) -> tuple[np.ndarray, np.ndarray]:
    """The join and meet tables (with their -1 and -2 entries) by
    `per_row_extremum_table` over the least-first topological order
    (computed once per poset)."""
    if p not in _ROWS:
        n, h, leq = len(p.keys), np.array(p.height), leq_matrix(p)
        topo = sorted_topological_order(n, p.upper_covers,
                                        [len(c) for c in lower_covers(p)])
        _ROWS[p] = (per_row_extremum_table(leq, p.upper_covers, reversed(topo), h),
                    per_row_extremum_table(leq.T, lower_covers(p), topo, -h))
    return _ROWS[p]


def loop_height(n: int, covers: Iterable[tuple[int, int]]) -> list[int]:
    """Longest-chain length from a minimal element, per element, by one
    step per cover in topological order, raising the upper end to one
    above the lower.  The oracle of `FinitePoset.height`, which
    `from_covers` takes one level at a time, each element once its lower
    covers are all leveled."""
    up: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for i, j in covers:
        up[i].append(j)
        indeg[j] += 1
    h = [0] * n
    for v in sorted_topological_order(n, up, indeg):
        for w in up[v]:
            h[w] = max(h[w], h[v] + 1)
    return h


def dict_moebius_to(p: FinitePoset, y: int) -> dict[int, int]:
    """mu(x, y) for every x <= y by the recursion
    mu(x, y) = -sum_{x < z <= y} mu(z, y), one Python sum per element in
    decreasing height order.  The oracle of `FinitePoset._moebius_to`."""
    leq = leq_matrix(p)
    below = np.flatnonzero(leq[:, y])
    mu: dict[int, int] = {y: 1}
    for x in sorted(below, key=lambda v: -int(p.height[v])):
        if x != y:
            mu[int(x)] = -sum(mu[z] for z in below if leq[x, z] and z != x)
    return mu


def moebius_table(p: FinitePoset) -> dict[tuple[int, int], int]:
    """mu(x, y) for every comparable pair, keyed by element positions."""
    return {(x, y): v for y in range(len(p.keys))
            for x, v in dict_moebius_to(p, y).items()}


def unique_rising_chain(p: FinitePoset, labeling: EdgeLabeling) -> tuple[int, ...]:
    """The one maximal chain whose label word strictly increases."""
    rising = [c for c in p.iter_maximal_chains() if is_rising(labeling.word(c))]
    assert len(rising) == 1, f"expected one rising maximal chain, found {len(rising)}"
    return rising[0]


def verify_el_by_intervals(p: FinitePoset, labeling: EdgeLabeling) -> ELVerdict:
    """The EL check by its definition, one chain list per interval [x, y]:
    exactly one rising maximal chain, whose word is the least.  The
    oracle of `verify_el`, which walks once per lower endpoint."""
    p._require_bounded()
    for x in range(len(p.keys)):
        for y in np.flatnonzero(leq_matrix(p)[x]):
            if y == x:
                continue
            chains = p.interval_maximal_chains(x, int(y))
            words = [labeling.word(c) for c in chains]
            rising = [w for w in words if is_rising(w)]
            if len(rising) != 1 or rising[0] != min(words):
                return ELVerdict(False, witness={
                    "interval": (str(p.keys[x]), str(p.keys[int(y)])),
                    "rising_chains": [
                        [str(p.keys[v]) for v in c]
                        for c, w in zip(chains, words) if is_rising(w)],
                    "words": sorted(words)[:10],
                })
    return ELVerdict(True)


def verify_sn_el_by_chains(p: FinitePoset, labeling: EdgeLabeling) -> bool:
    """The S_n EL check by its definition: on a graded poset of rank r,
    every maximal chain carries r distinct labels from [r].  The oracle
    of `verify_sn_el`, which passes once over the covers."""
    if not p.is_graded():
        raise PosetError("Sn EL check requires a graded poset")
    r = p.rank()
    want = set(range(1, r + 1))
    for chain in p.iter_maximal_chains():
        word = labeling.word(chain)
        if set(word) != want or len(word) != r:
            return False
    return True


def is_weakly_decreasing(word: Sequence[int]) -> bool:
    return all(map(operator.ge, word, word[1:]))


def count_decreasing_chains_by_words(p: FinitePoset, labeling: EdgeLabeling) -> int:
    """The maximal chains whose whole label word is weakly decreasing.
    The oracle of `count_decreasing_chains`, which reads each chain only
    from where it leaves the previous one."""
    return sum(1 for chain in p.iter_maximal_chains()
               if is_weakly_decreasing(labeling.word(chain)))


def code_scan_parking_label(x: SetPartition, y: SetPartition) -> int:
    """The parking label read off the codes by a generator over their
    positions: 1 + the last k before the first differing position e with
    x.code[k] = y.code[e].  The oracle of `parking_label`."""
    e = next((k for k, (c, d) in enumerate(zip(x.code, y.code)) if c != d), None)
    if e is None or y.code != x.merged_code(y.code[e], x.code[e]):
        raise LabelingError(f"cover {x} < {y} is not a two-block merge")
    a = y.code[e]
    return 1 + max(k for k in range(e) if x.code[k] == a)


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


def path_counts(p: FinitePoset, covers: Sequence[tuple[int, int]]
                ) -> tuple[list[int], list[int]]:
    """Per element of a bounded poset: the number of paths along the
    given covers, a subset of its own, from the bottom, and to the top.
    With all its covers, the top entry of the first list is the number
    of maximal chains."""
    bot, top = p._require_bounded()
    h = p.height
    up = [0] * len(p.keys)
    down = [0] * len(p.keys)
    up[bot] = 1
    down[top] = 1
    for i, j in sorted(covers, key=lambda c: h[c[0]]):
        up[j] += up[i]
    for i, j in sorted(covers, key=lambda c: -h[c[1]]):
        down[i] += down[j]
    return up, down


def _avoiding_paths(n: int) -> tuple[FinitePoset, list[tuple[int, int]],
                                      list[int], list[int]]:
    """NC_n, its covers not labeled n-1, and the path counts along them
    from the bottom and to the top."""
    p = build_nc(n)
    kept = [(i, j) for i, j in p.covers
            if parking_label(p.keys[i], p.keys[j]) != n - 1]
    up, down = path_counts(p, kept)
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


# -- parking functions and the chain-defined order --------------------------

def is_parking_function(word: Sequence[int]) -> bool:
    """At least k entries are <= k, for every k up to the length."""
    if any(f < 1 for f in word):
        raise ValueError(f"entries must be positive: {word}")
    ordered = sorted(word)
    return all(f <= k for k, f in enumerate(ordered, start=1))


def chain_parking_word(chain: Sequence[SetPartition]) -> tuple[int, ...]:
    """Label word of a maximal chain of the noncrossing lattice."""
    if not chain:
        raise PosetError("empty chain")
    n = chain[0].n
    if chain[0] != SetPartition.bottom(n) or chain[-1] != SetPartition.top(n):
        raise PosetError("chain must run from the discrete to the full partition")
    for x in chain:
        if not x.is_noncrossing:
            raise PosetError(f"chain element is crossing: {x}")
    # parking_label rejects any step that is not a two-block merge, so a
    # chain that survives labeling is maximal
    return tuple(parking_label(x, y) for x, y in zip(chain, chain[1:]))


def build_D(n: int) -> list[tuple[SetPartition, ...]]:
    """The maximal chains of the noncrossing lattice whose parking word
    avoids the value n-1: the maximal chains of the chain-defined order,
    lexicographically by element index."""
    p = build_pe_pchn(n)
    return [tuple(p.keys[v] for v in chain) for chain in p.iter_maximal_chains()]


def removed_covers(n: int) -> list[tuple[SetPartition, SetPartition]]:
    """The dref covers of PE absent from the chain-defined order: those
    carrying parking label n-1."""
    pe = build_pe_dref(n)
    return [(pe.keys[i], pe.keys[j]) for i, j in pe.covers
            if parking_label(pe.keys[i], pe.keys[j]) == n - 1]


@dataclass
class RestrictionVerdict:
    n: int
    removed: list[tuple[SetPartition, SetPartition]]
    witnesses: list[tuple[SetPartition, SetPartition, SetPartition]]
    el: ELVerdict
    decreasing_chains: int
    mobius: int

    @property
    def ok(self) -> bool:
        return self.el.el and self.decreasing_chains == 0 and self.mobius == 0


def dominating_witness(x: SetPartition, y: SetPartition,
                       labeling: EdgeLabeling) -> SetPartition:
    """For a dref cover (x, y) of PE with parking label n-1: the element
    y' obtained by merging the block of 1 with the singleton {n}.  It is
    checked to be a retained cover of x with strictly smaller
    left-modular label, namely 1 (while (x, y) carries label min B for
    the block B of x merged into n)."""
    n = x.n
    if parking_label(x, y) != n - 1:
        raise BuildError(f"cover ({x}, {y}) is not labeled {n - 1}")
    y_prime = x.merge(1, n)
    poset = labeling.poset
    xi, yi, yp = poset.index(x), poset.index(y), poset.index(y_prime)
    if (xi, yp) not in labeling.labels:
        raise AssertionError(f"witness {y_prime} is not a cover of {x}")
    if parking_label(x, y_prime) >= n - 1:
        raise AssertionError(f"witness cover ({x}, {y_prime}) is not retained")
    lam_removed = labeling.labels[(xi, yi)]
    lam_witness = labeling.labels[(xi, yp)]
    block_b = next(b for b in x.blocks if n - 1 in b)
    if lam_witness != 1 or lam_removed != min(block_b):
        raise AssertionError(
            f"unexpected labels on ({x}, {y}): removed={lam_removed}, "
            f"witness={lam_witness}, min B={min(block_b)}")
    return y_prime


def verify_restriction_el(n: int) -> RestrictionVerdict:
    """Check that dropping the covers labeled n-1 preserves the
    EL-property of the left-modular labeling: every removed cover is
    dominated by a retained one out of the same element, the restricted
    labeling is EL on the chain-defined poset, and that poset has no
    weakly decreasing maximal chain and Moebius value 0."""
    pchn = build_pe_pchn(n)
    pe = build_pe_dref(n)
    lam = left_modular_labeling(pe, distinguished_chain(n))
    removed = removed_covers(n)
    witnesses = [(x, y, dominating_witness(x, y, lam)) for x, y in removed]
    restricted = lam.restrict(pchn)
    return RestrictionVerdict(
        n=n, removed=removed, witnesses=witnesses,
        el=verify_el(pchn, restricted),
        decreasing_chains=count_decreasing_chains(pchn, restricted),
        mobius=pchn.moebius_bottom_top())


# -- lattice operations and lemmas ------------------------------------------

def labelled_join_partition(x: SetPartition, y: SetPartition) -> SetPartition:
    """The join in the full partition lattice: union-find over the blocks
    of x, each element's block found by walking its root chain, and the
    roots renumbered by first appearance through `_from_labels`.  `src`
    has no such join; `nc_join` closes the union-find classes directly."""
    if x.n != y.n:
        raise PartitionError(f"mismatched ground sets: {x.n} != {y.n}")
    root = list(range(max(x.code) + 1))
    first: dict[int, int] = {}  # block of y -> first block of x it meets
    for a, b in zip(x.code, y.code):
        ra, rb = sorted((_find(root, a), _find(root, first.setdefault(b, a))))
        root[rb] = ra
    return _from_labels(x.n, (_find(root, a) for a in x.code))


def _find(root: list[int], c: int) -> int:
    """The block that block c has merged into."""
    while root[c] != c:
        c = root[c]
    return c


def labelled_nc_closure(x: SetPartition) -> SetPartition:
    """The noncrossing closure as `nc_closure` once computed it: the same
    scan with a stack of open blocks, relabelled through `_from_labels`."""
    code = x.code
    root = list(range(max(code) + 1))  # block -> the block it merged into
    last = [0] * len(root)
    for e, c in enumerate(code):
        last[c] = e
    stack: list[int] = []
    fresh = 0
    for e, c in enumerate(code):
        if c == fresh:  # the least element of a block
            fresh += 1
            stack.append(c)
        else:
            c = _find(root, c)
            while stack[-1] != c:
                top = stack.pop()
                root[top] = c
                last[c] = max(last[c], last[top])
        if last[c] == e:
            stack.pop()
    return _from_labels(x.n, (_find(root, c) for c in code))


def labelled_nc_join(x: SetPartition, y: SetPartition) -> SetPartition:
    return labelled_nc_closure(labelled_join_partition(x, y))


def labelled_pe_join(x: SetPartition, y: SetPartition) -> SetPartition:
    """The PE join from the oracle kernels, with PE membership read off
    the blocks: the noncrossing join, with a singleton {n} merged into
    the block of 1 when 1 and n-1 share a block."""
    n = x.n
    w = labelled_nc_join(x, y)
    if (n,) in w.blocks and same_block(w, 1, n - 1):
        return w.merge(1, n)
    return w


def code_merge_covers(members: Sequence[SetPartition]) -> list[tuple[int, int]]:
    """The cover search as `builders._merge_covers` once ran it: for each
    member and each pair of its blocks, the merged code is built as a
    tuple and looked up in a dict keyed by code."""
    index = {x.code: i for i, x in enumerate(members)}
    covers: list[tuple[int, int]] = []
    for i, x in enumerate(members):
        for a, b in combinations(range(max(x.code) + 1), 2):
            j = index.get(x.merged_code(a, b))
            if j is not None:
                covers.append((i, j))
    return covers


def sorted_by_blocks(members: Iterable[SetPartition]) -> list[SetPartition]:
    """The partitions sorted by their blocks, with the key that
    `enumerate_noncrossing` once sorted its output by."""
    return sorted(members, key=lambda x: code_blocks(x.code))


def meet_partition(x: SetPartition, y: SetPartition) -> SetPartition:
    """Greatest lower bound in the full partition lattice: pairwise
    block intersections, one per distinct pair of block indices."""
    if x.n != y.n:
        raise PartitionError(f"mismatched ground sets: {x.n} != {y.n}")
    return _from_labels(x.n, zip(x.code, y.code))


def nc_meet(x: SetPartition, y: SetPartition) -> SetPartition:
    """Meet of noncrossing partitions; coincides with the plain meet."""
    if not x.is_noncrossing:
        raise PartitionError(f"crossing input: {x}")
    if not y.is_noncrossing:
        raise PartitionError(f"crossing input: {y}")
    return meet_partition(x, y)


def pe_meet(x: SetPartition, y: SetPartition) -> SetPartition:
    """Meet in the PE lattice: the noncrossing meet, repaired by
    splitting a {n-1, n} block into singletons when necessary."""
    _require_pe(x)
    _require_pe(y)
    n = x.n
    w = nc_meet(x, y)
    if is_pe_member(w):
        return w
    if (n - 1, n) in w.blocks:
        return meet_partition(w, SetPartition.of(n, [range(1, n), [n]]))
    # the remaining failure mode ({n} singleton with 1 ~ n-1) cannot
    # occur for inputs in PE; treat it as a structural contradiction
    raise AssertionError(f"impossible meet case for {x} ^ {y}: got {w}")


def is_modular_pair(p: FinitePoset, x: int, z: int) -> bool:
    """xMz: (y v x) ^ z == y v (x ^ z) for every y <= z."""
    return bool(modular_columns(p, x)[z])


def certify_supersolvable(p: FinitePoset, chain: Sequence[int]) -> bool:
    """Graded lattice with a left-modular maximal chain."""
    if not p.lattice_check().is_lattice:
        return False
    if not p.is_graded():
        return False
    return p.is_left_modular_chain(chain)


def meet_form_labels(p: FinitePoset,
                     chain_keys: Sequence) -> dict[tuple[int, int], int]:
    """The left-modular labeling by its meet form: a cover (y, z) gets
    the least t with c_t ^ z not below y."""
    tables = lattice_tables(p)
    chain = [p.index(k) for k in chain_keys]
    return {(y, z): next(t for t in range(len(chain))
                         if not leq_matrix(p)[tables.meet[chain[t], z], y])
            for y, z in p.covers}


def join_table_labels(p: FinitePoset,
                      chain_keys: Sequence) -> dict[tuple[int, int], int]:
    """The left-modular labeling by its join form, read off the join
    table one t at a time: a cover (y, z) gets the least t with
    z <= y v c_t.  The oracle of `left_modular_labeling`."""
    tables = lattice_tables(p)
    chain = [p.index(k) for k in chain_keys]
    return {(y, z): next(t for t in range(len(chain))
                         if leq_matrix(p)[z, tables.join[y, chain[t]]])
            for y, z in p.covers}


# -- join and meet tables ---------------------------------------------------

BUILDERS = {"pi": build_pi, "nc": build_nc, "pe-dref": build_pe_dref,
            "pe-pchn": build_pe_pchn}


@dataclass(frozen=True)
class Built:
    """A partition poset named by its target and n.  Each call builds it
    afresh, for the code under test; `oracle()` is the one built once per
    session for the oracle side, so that its relation matrix and tables,
    cached per poset, are computed once per (target, n)."""

    target: str
    n: int

    def __call__(self) -> FinitePoset:
        return BUILDERS[self.target](self.n)

    @lru_cache(maxsize=None)
    def oracle(self) -> FinitePoset:
        return self()


@dataclass
class LatticeTables:
    """Outcome of the lattice test by tables: the meet and join tables
    on success, a witness pair without unique meet or join otherwise."""

    is_lattice: bool
    meet: np.ndarray | None = None
    join: np.ndarray | None = None
    witness: tuple[Hashable, Hashable] | None = None
    reason: str = ""


_TABLES: "weakref.WeakKeyDictionary[FinitePoset, LatticeTables]" = \
    weakref.WeakKeyDictionary()


def lattice_tables(p: FinitePoset) -> LatticeTables:
    """The lattice test as `FinitePoset.lattice_check` once made it, from
    the full join and meet tables (computed once per poset).  The oracle
    of the verdict by the BEZ lemma and of the row-major bitset scan for
    the witness."""
    if p not in _TABLES:
        _TABLES[p] = _lattice_tables(p)
    return _TABLES[p]


def _lattice_tables(p: FinitePoset) -> LatticeTables:
    leq, h = leq_matrix(p), np.array(p.height)
    join, meet = per_row_tables(p)
    if (join >= 0).all() and (meet >= 0).all():
        return LatticeTables(True, meet=meet, join=join)
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
        return LatticeTables(False, witness=(p.keys[i], p.keys[j]), reason=reason)
    raise AssertionError("negative table entry without a failing pair")


def modular_columns(p: FinitePoset, x: int,
                    pairs: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Per z, whether xMz: (y v x) ^ z == y v (x ^ z) for every y <= z,
    from the tables, over the comparable pairs (y, z), which callers that
    ask about many x pass as `np.nonzero(leq_matrix(p))`.  Left-modularity of x
    is the conjunction; the oracle of the cover criterion of
    `FinitePoset.is_left_modular`."""
    tables = lattice_tables(p)
    if not tables.is_lattice:
        raise PosetError("modular pairs are defined only in lattices")
    join, meet = tables.join, tables.meet
    ys, zs = np.nonzero(leq_matrix(p)) if pairs is None else pairs
    broken = meet[join[x, ys], zs] != join[ys, meet[x, zs]]
    columns = np.ones(len(p.keys), dtype=bool)
    columns[zs[broken]] = False
    return columns


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


# -- atoms and their trees -------------------------------------------------

def same_block(x: SetPartition, i: int, j: int) -> bool:
    """Whether i and j lie in one block of x."""
    return x.code[i - 1] == x.code[j - 1]


def chain_rank(a: Atom, n: int) -> int:
    """Rank of an atom by its definition: the least t with the atom below
    c_t of the distinguished chain, c_0 being the bottom.  The oracle of
    the ranks `nbb.ranked_atoms` lists."""
    return next(t for t, c in enumerate(distinguished_chain(n))
                if same_block(c, a.i, a.j))


def ambient_join(atoms: Iterable[Atom], n: int, ambient: str) -> SetPartition:
    """The join of an atom set in the nc or pe ambient, one atom at a time."""
    join_op = nc_join if ambient == "nc" else pe_join
    result = SetPartition.bottom(n)
    for a in atoms:
        result = join_op(result, a.partition(n))
    return result


def is_bb_by_members(atoms: Iterable[Atom], n: int, ambient: Ambient,
                     join: SetPartition) -> bool:
    """The bounded-below definition, member by member: each member of a
    nonempty atom set has an atom of strictly smaller rank below `join`,
    the set's join in the ambient.  The oracle of `nbb.is_bb`, which
    reads only the least member's rank."""
    pool = ranked_atoms(n, ambient)
    return all(any(r < pool[d] and same_block(join, a.i, a.j)
                   for a, r in pool.items()) for d in atoms)


_MISS = object()  # memo miss in `nbb_bases`, told apart by identity


def nbb_bases(n: int, ambient: Ambient, x: SetPartition) -> list[tuple[Atom, ...]]:
    """All NBB bases for x: the atom sets that join to x and have no
    nonempty BB subset, as rank-sorted atom tuples in lexicographic
    order of their (rank, i, j) key sequences.  The oracle of the search
    by ranks in `enumerate_nbb_bases_top`: this one assumes nothing of
    how many atoms of each rank a base holds.

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
    check_size(f"nbb-{ambient}", n)
    if (x.n != n or not x.is_noncrossing
            or (ambient == "pe" and not is_pe_member(x))):
        raise BuildError(f"{x} is not in the {ambient} ambient for n={n}")
    join_op = nc_join if ambient == "nc" else pe_join
    pool = ranked_atoms(n, ambient)
    below = [a for a in pool if same_block(x, a.i, a.j)]
    ranks = [pool[a] for a in below]
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
                    # the verdict depends only on the join and the rank of
                    # the set's least-ranked member, its lowest bit
                    if sub and is_bb(ranks[(s & -s).bit_length() - 1], n, ambient, join):
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


def reached(atoms: Iterable[Atom], v: int) -> set[int]:
    """The vertices joined to v by a path of atoms, read as edges."""
    atoms = list(atoms)
    seen, frontier = {v}, [v]
    while frontier:
        u = frontier.pop()
        for i, j in atoms:
            w = j if i == u else i if j == u else None
            if w is not None and w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def is_spanning_tree(atoms: Sequence[Atom], n: int) -> bool:
    """Whether the atoms, read as edges, form a tree on [n]: n - 1 of
    them, every vertex reached from 1."""
    return len(atoms) == n - 1 and reached(atoms, 1) == set(range(1, n + 1))


def split_at_root_edge(base: Sequence[Atom], n: int) -> tuple[set[int], set[int]]:
    """Vertex sets of the two components of a base's tree after removing
    the edge {1, n}."""
    if Atom(1, n) not in base:
        raise BuildError("tree has no edge between 1 and n")
    comp1 = reached((a for a in base if a != Atom(1, n)), 1)
    return comp1, set(range(1, n + 1)) - comp1
