"""Edge labelings and exhaustive EL verification.

Three labeling schemes are provided: the left-modular labeling induced
by a left-modular maximal chain (by its join form alone; the meet form
is a test oracle), the parking labeling of block merges, and the
classical "n minus last small element" labeling (which fails EL on the
chain-restricted poset; kept to exhibit the failure).

Conventions, fixed once to avoid off-by-strictness bugs: a chain is
*rising* if its label word is strictly increasing, *decreasing* if the
word is weakly decreasing.  The label poset is always the integers.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count
from typing import Sequence

from .partitions import SetPartition
from .posets import FinitePoset, PosetError


class LabelingError(ValueError):
    """Labeling preconditions violated."""


@dataclass
class EdgeLabeling:
    poset: FinitePoset
    labels: dict[tuple[int, int], int]

    def __post_init__(self) -> None:
        if set(self.labels) != set(self.poset.covers):
            raise LabelingError("label domain must be exactly the cover set")

    @cached_property
    def _by_lower(self) -> list[dict[int, int]]:
        """Per element a, the labels of its covers (a, b), keyed by b."""
        out: list[dict[int, int]] = [{} for _ in self.poset.keys]
        for (a, b), label in self.labels.items():
            out[a][b] = label
        return out

    def word(self, chain: Sequence[int]) -> tuple[int, ...]:
        return tuple(map(dict.__getitem__, map(self._by_lower.__getitem__, chain),
                         chain[1:]))

    def restrict(self, poset: FinitePoset) -> "EdgeLabeling":
        """Restriction to a poset on the same keys, in the same order, with
        a subset of the cover relations; a cover keeps its index pair."""
        if poset.keys != self.poset.keys:
            raise LabelingError("keys not in original poset, or not in its order")
        labels = {}
        for i, j in poset.covers:
            if (i, j) not in self.labels:
                raise LabelingError(f"cover {poset.keys[i]} < {poset.keys[j]} "
                                    "not in original poset")
            labels[(i, j)] = self.labels[(i, j)]
        return EdgeLabeling(poset, labels)


def is_rising(word: Sequence[int]) -> bool:
    return all(map(operator.lt, word, word[1:]))


def left_modular_labeling(poset: FinitePoset, chain_keys: Sequence) -> EdgeLabeling:
    """Labeling induced by a left-modular maximal chain c_0 < ... < c_r:
    a cover (y, z) gets the least t with z <= y v c_t.

    That predicate is monotone in t, since c_t <= c_(t+1) gives
    y v c_t <= y v c_(t+1), and it holds at t = r, where c_r is the top.
    So it fails for t below the label and holds from it on, and the
    label lies in [r]: it is the number of t at which the predicate
    fails.  With y < z, the predicate is y v c_t = z v c_t (if z lies
    below y v c_t, so does z v c_t, and y v c_t <= z v c_t always), so
    one join row per chain element decides it for every cover.  On
    supersolvable lattices the label equals the meet form, the least t
    with c_t ^ z not below y; the tests check that.
    """
    if not poset.lattice_check().is_lattice:
        raise LabelingError("left-modular labeling requires a lattice")
    chain = [poset.index(k) for k in chain_keys]
    if not poset.is_left_modular_chain(chain):
        raise LabelingError("chain is not left-modular")
    lower = [y for y, _ in poset.covers]
    upper = [z for _, z in poset.covers]
    labels = [0] * len(poset.covers)
    for c in chain:
        join = poset.join_row(c).__getitem__  # join(y) = y v c
        labels = list(map(operator.add, labels,
                          map(operator.ne, map(join, lower), map(join, upper))))
    return EdgeLabeling(poset, dict(zip(poset.covers, labels)))


def parking_label(x: SetPartition, y: SetPartition) -> int:
    """Largest element of the lower merged block below every element of
    the upper merged block.

    Read off the codes: at the first position e where they differ, x has
    the upper block b (e + 1 is its least element) and y the lower block
    a, and y must be x with blocks a and b merged.  A restricted growth
    string equal to x before e holds no value above b at e, so a < b.
    The label is 1 + the last k < e with x.code[k] = a, found by
    scanning back from e - 1 (e > 0: every code starts with block 0).
    """
    e = next(compress(count(), map(operator.ne, x.code, y.code)), None)
    if e is None or y.code != x.merged_code(y.code[e], x.code[e]):
        raise LabelingError(f"cover {x} < {y} is not a two-block merge")
    return e - x.code[e - 1::-1].index(y.code[e])


def parking_labeling(poset: FinitePoset) -> EdgeLabeling:
    labels = {(i, j): parking_label(poset.keys[i], poset.keys[j])
              for i, j in poset.covers}
    return EdgeLabeling(poset, labels)


def usual_labeling(poset: FinitePoset) -> EdgeLabeling:
    """Classical labeling of the noncrossing partition lattice: n minus
    the parking label."""
    n = poset.keys[0].n
    return EdgeLabeling(poset, {edge: n - label for edge, label
                                in parking_labeling(poset).labels.items()})


@dataclass
class ELVerdict:
    el: bool
    witness: dict | None = None


def verify_el(poset: FinitePoset, labeling: EdgeLabeling) -> ELVerdict:
    """Exhaustive EL check: in every interval, exactly one rising maximal
    chain, whose word is strictly lexicographically least (the least
    word, and no other chain has it: it would be rising too).

    One chain walk per lower endpoint x.  The poset is bounded, so every
    saturated x-to-y chain extends upward to the top: it is a prefix of
    a maximal chain of [x, 1].  The walker emits the chains of [x, 1] in
    lexicographic order, so chains that share a prefix come one after
    another, and each chain's prefixes beyond the part it shares with
    the previous chain are x-to-w chains not seen before.  Each extends
    the word of the prefix one shorter by one label, and is rising iff
    that prefix is and the label exceeds its last.  Per w this counts
    the rising x-to-w chains and keeps the least word with whether it
    rises and its length.  Every y above x is reached, so [x, y] passes
    iff it has exactly one rising chain and its least word rises, and
    the failing y of least index gets its witness from the chains of
    [x, y] alone.

    A prefix P to w is dominated, and the chain is read no further, when
    P does not rise and its word is no less than the least word recorded
    at w, if that is the word of a prefix P' of the same length; every
    following chain that shares P is skipped.  P changes no count and no
    least word: the walk is depth-first, so every chain through P' came
    before it, and for any saturated chain S up from w, P.S does not
    rise and its word is no less than that of P'.S, since the two words
    differ first, if at all, inside their equal-length prefixes.  By
    induction over the walk order, a word no greater than that of P'.S
    is already recorded at the end of S, even if P'.S was itself
    dominated.  The lengths must be equal: (1) < (1, 2), yet
    (1, 2, 5) < (1, 5).

    A word is one int, its labels as digits left-aligned to the longest
    chain from x: no chain of [x, 1] is longer than
    D = height[1] - height[x], as a longest chain from the bottom to x
    continues along it.  The label at depth i is the digit
    label - lo + 1 at place base**(D - i), with lo and hi the least and
    greatest labels and base = hi - lo + 2.  Every digit lies in
    [1, base - 1] and the free places after a word's end are 0, so two
    words compare as ints as they do lexicographically, whatever their
    lengths: at the first depth where they differ, either both have
    labels there and the larger digit outweighs all lower places, or
    one has ended, and its 0 is below the other's digit.  So words of
    different lengths, as on non-graded posets, need no other path, and
    every word is below base**D.

    The walk from x lists every maximal chain of [x, 1] before any
    interval is judged.  So that a labeling failing just above x does
    not pay for it, the intervals of length two above x are judged
    first from the cover labels; if one fails, x's intervals are
    checked one at a time in increasing order of y, each from its own
    chains, up to the first failing one."""
    _, top = poset._require_bounded()
    by_lower = labeling._by_lower
    height = poset.height
    lo = min(labeling.labels.values(), default=0)
    base = max(labeling.labels.values(), default=0) - lo + 2
    for x in range(len(poset.keys)):
        if x == top:
            continue
        if _length_two_fails(by_lower, height, x):
            return ELVerdict(False, witness=next(filter(None, (
                _interval_witness(poset, labeling, x, y) for y in poset.above(x)))))
        depth = height[top] - height[x]
        place = [base ** (depth - i) for i in range(depth + 1)]
        unseen = (place[0], False, 0)  # base**D: above every word; no prefix has length 0
        rising_count: dict[int, int] = {}
        least: dict[int, tuple[int, bool, int]] = {}  # w: least word, whether it rises, length
        get = least.get
        words = [0] * (depth + 1)  # words[i]: the word of chain[:i + 1]
        lasts = [lo - 1] * (depth + 1)  # lasts[i]: its last label if it rises; lo - 1 at 0
        rise = 0  # chain[:rise + 1] is the longest rising prefix
        cut = depth  # chain[:cut + 1] is dominated; at depth no later chain shares it
        prev: tuple = (x, None)  # the first chain shares only (x,) with it
        for chain in poset.interval_maximal_chains(x, top):
            k = 1
            while chain[k] == prev[k]:
                k += 1
            prev = chain
            if k > cut:
                continue
            if rise >= k:
                rise = k - 1
            cut = depth
            word, last, row = words[k - 1], lasts[k - 1], by_lower[chain[k - 1]]
            for i in range(k, len(chain)):
                w = chain[i]
                label = row[w]
                word += (label - lo + 1) * place[i]
                best, _, length = get(w, unseen)
                if rise == i - 1 and last < label:
                    rise = i
                    rising_count[w] = rising_count.get(w, 0) + 1
                    lasts[i] = last = label
                elif length == i and word >= best:
                    cut = i
                    break
                if word < best:
                    least[w] = (word, rise == i, i)
                words[i] = word
                row = by_lower[w]
        failing = [y for y, (_, rises, _) in least.items()
                   if not rises or rising_count.get(y) != 1]
        if failing:
            return ELVerdict(False, witness=_interval_witness(poset, labeling, x, min(failing)))
    return ELVerdict(True)


def _length_two_fails(by_lower: list[dict[int, int]], height: list[int], x: int) -> bool:
    """Whether some interval [x, z] whose saturated chains all have
    length two fails EL.  Those chains are the x < c < z over covers,
    and they are all of [x, z]'s chains iff height[z] = height[x] + 2
    (a longer one would lift z's longest chain from the bottom)."""
    words: dict[int, list[tuple[int, int]]] = {}
    for c, a in by_lower[x].items():
        for z, b in by_lower[c].items():
            if height[z] == height[x] + 2:
                words.setdefault(z, []).append((a, b))
    return any(sum(a < b for a, b in ws) != 1 or not is_rising(min(ws))
               for ws in words.values())


def _interval_witness(poset: FinitePoset, labeling: EdgeLabeling,
                      x: int, y: int) -> dict | None:
    """None if [x, y] passes EL; else its rising chains and its ten
    least words."""
    chains = poset.interval_maximal_chains(x, y)
    words = [labeling.word(c) for c in chains]
    rising = [c for c, w in zip(chains, words) if is_rising(w)]
    if len(rising) == 1 and is_rising(min(words)):
        return None
    return {
        "interval": (str(poset.keys[x]), str(poset.keys[y])),
        "rising_chains": [[str(poset.keys[v]) for v in c] for c in rising],
        "words": sorted(words)[:10],
    }


def verify_sn_el(poset: FinitePoset, labeling: EdgeLabeling) -> bool:
    """Given an EL-labeling on a graded poset of rank r: whether every
    maximal chain carries each label of [r] once, i.e. none outside [r]
    and no repeat.  One pass over the covers in rank order; seen[v] holds
    as int bits the labels on the covers of [0, v].
    - A maximal chain repeats a label iff some cover (v, w) on it has a
      label that appears on the chain below v.
    - In a bounded poset every 0-v chain continues through any cover
      (v, w) up to 1, so the union of the labels over [0, v] is exactly
      what the chains through (v, w) can repeat."""
    if not poset.is_graded():
        raise PosetError("Sn EL check requires a graded poset")
    r = poset.rank()
    by_lower = labeling._by_lower
    seen = [0] * len(poset.keys)
    for v in poset.by_rank:
        below = seen[v]
        for w, label in by_lower[v].items():
            if not 0 < label <= r or below >> label & 1:  # range first, then shift
                return False
            seen[w] |= below | 1 << label
    return True


def count_decreasing_chains(poset: FinitePoset, labeling: EdgeLabeling) -> int:
    """Maximal bottom-to-top chains with weakly decreasing label word;
    for an EL-shellable poset this equals |mu(bottom, top)|.

    As in `verify_el`, the walker emits chains that share a prefix one
    after another, so each chain is read from the depth k where it
    leaves the previous one.  chain[:dec + 1] is the longest weakly
    decreasing prefix.  If it ends below depth k - 1 the label after it
    rises inside the shared part, and the chain is skipped; otherwise
    it is cut to depth k - 1 and extended up to the first rise, and the
    chain counts if it reaches the top.  Only consecutive labels are
    compared, so no word is built: a chain's word weakly decreases iff
    each label is at most the one before it."""
    bottom, top = poset._require_bounded()
    if bottom == top:
        return 1  # the one chain (bottom,) has the empty word
    by_lower = labeling._by_lower
    lasts = [max(labeling.labels.values())] + [0] * poset.height[top]
    found = dec = 0
    prev: tuple = (bottom, None)
    for chain in poset.iter_maximal_chains():
        k = 1
        while chain[k] == prev[k]:
            k += 1
        prev = chain
        if dec < k - 1:
            continue
        dec = k - 1
        last, row = lasts[dec], by_lower[chain[dec]]
        for i in range(k, len(chain)):
            w = chain[i]
            label = row[w]
            if label > last:
                break
            lasts[i] = last = label
            dec = i
            row = by_lower[w]
        else:
            found += 1
    return found
