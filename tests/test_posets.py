"""Generic finite-poset engine: construction, chains, grading, Moebius,
lattice and modularity checks."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpe.builders import build_nc, build_pe_dref, build_pi, distinguished_chain
from ncpe.labelings import left_modular_labeling
from ncpe.parking import build_pe_pchn
from ncpe.posets import FinitePoset, PosetError
from reference import (Built, LatticeTables, _unique_extremum, certify_supersolvable,
                       dict_moebius_to, from_leq_matrix, is_modular_pair,
                       join_table_labels, lattice_tables, leq_matrix, loop_height,
                       modular_columns, moebius_table, path_counts, per_row_tables,
                       row_or_from_covers, transitive_reduction)

# pentagon: bottom < a < c < top, bottom < b < top
N5 = FinitePoset.from_covers(
    ["0", "a", "b", "c", "1"],
    [(0, 1), (1, 3), (3, 4), (0, 2), (2, 4)])

# diamond: bottom, three atoms, top
M3 = FinitePoset.from_covers(
    ["0", "x", "y", "z", "1"],
    [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])

CHAIN3 = FinitePoset.from_covers([0, 1, 2], [(0, 1), (1, 2)])

# two atoms below two coatoms: a and b have no unique join
BOWTIE = FinitePoset.from_covers(
    list("0abxy1"),
    [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)])

# join(x, y) = z exists although join(c, y) does not (c < u, v and
# y < z < u, v): the cover recursion must not take an undefined join of
# a cover as proof that no join exists
ABOVE_UNDEFINED = FinitePoset.from_covers(
    list("0xyczuv1"),
    [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (4, 5), (4, 6), (3, 5), (3, 6),
     (5, 7), (6, 7)])


def from_json(text: str) -> FinitePoset:
    data = json.loads(text)
    return FinitePoset.from_covers(data["elements"],
                                   [tuple(p) for p in data["covers"]])


def oracle_side(build) -> FinitePoset:
    """The poset the oracle reads in a case: for a partition poset, the one
    shared per (target, n); else the case's own small poset, built again."""
    return build.oracle() if isinstance(build, Built) else build()


def pairwise_lattice(p: FinitePoset) -> LatticeTables:
    """The lattice test by definition: for every pair (i, j >= i) in
    row-major order, the unique least upper bound, then the unique
    greatest lower bound; the first pair without one is the witness."""
    n = len(p.keys)
    join = np.full((n, n), -1, dtype=np.int64)
    meet = np.full((n, n), -1, dtype=np.int64)
    h, leq = np.array(p.height), leq_matrix(p)
    for i in range(n):
        for j in range(i, n):
            z = _unique_extremum(leq[i] & leq[j], h, leq, least=True)
            if z is None:
                return LatticeTables(False, witness=(p.keys[i], p.keys[j]),
                                     reason="no unique join")
            join[i, j] = join[j, i] = z
            z = _unique_extremum(leq[:, i] & leq[:, j], h, leq, least=False)
            if z is None:
                return LatticeTables(False, witness=(p.keys[i], p.keys[j]),
                                     reason="no unique meet")
            meet[i, j] = meet[j, i] = z
    return LatticeTables(True, meet=meet, join=join)


def from_order_oracle(keys, leq_fn) -> FinitePoset:
    keys = tuple(keys)
    n = len(keys)
    leq = np.zeros((n, n), dtype=bool)
    for i, a in enumerate(keys):
        for j, b in enumerate(keys):
            leq[i, j] = leq_fn(a, b)
    return from_leq_matrix(keys, leq)


def direct_product(p: FinitePoset, q: FinitePoset) -> FinitePoset:
    """Componentwise order on pairs of elements."""
    keys = [(a, b) for a in p.keys for b in q.keys]
    leq = np.kron(leq_matrix(p), leq_matrix(q)).astype(bool)
    return from_leq_matrix(keys, leq)


def divisors_poset(m: int) -> FinitePoset:
    divs = [d for d in range(1, m + 1) if m % d == 0]
    return from_order_oracle(divs, lambda a, b: b % a == 0)


def chain_leq(n: int) -> np.ndarray:
    return np.triu(np.ones((n, n), dtype=bool))


def witnesses_leq(k: int) -> np.ndarray:
    """0 <= z <= k+1 for the k middle elements z, but not 0 <= k+1: a
    transitivity failure with exactly k witnesses."""
    leq = np.eye(k + 2, dtype=bool)
    leq[0, 1:k + 1] = True
    leq[1:k + 1, k + 1] = True
    return leq


def chain_with_shortcut(n: int) -> FinitePoset:
    return FinitePoset.from_covers(
        range(n), [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])


@pytest.fixture(scope="module", ids=["nc5", "pe-dref6", "pe-pchn6"],
                params=[(build_nc, 5), (build_pe_dref, 6), (build_pe_pchn, 6)])
def real_poset(request):
    build, n = request.param
    return build(n)


def recursive_saturated_chains(p: FinitePoset, x: int, y: int):
    """The saturated x-to-y chains by recursive depth-first search over
    the upper covers, in lexicographic order."""
    stack = [x]

    def dfs(v):
        if v == y:
            yield tuple(stack)
            return
        for w in p.upper_covers[v]:
            if leq_matrix(p)[w, y]:
                stack.append(w)
                yield from dfs(w)
                stack.pop()

    return list(dfs(x))


class TestConstruction:
    def test_from_order_oracle_matches_covers(self):
        p = divisors_poset(12)
        assert sorted(p.covers) == sorted(
            (p.index(a), p.index(b)) for a, b in
            [(1, 2), (1, 3), (2, 4), (2, 6), (3, 6), (4, 12), (6, 12)])

    def test_oracle_rejects_non_partial_order(self):
        with pytest.raises(PosetError):
            from_order_oracle([0, 1], lambda a, b: True)

    def test_from_covers_rejects_redundant_edge(self):
        with pytest.raises(PosetError):
            FinitePoset.from_covers([0, 1, 2], [(0, 1), (1, 2), (0, 2)])

    @pytest.mark.parametrize("build, covers", [
        (lambda: from_leq_matrix(range(258), chain_leq(258)), 257),
        (lambda: from_leq_matrix(range(258), witnesses_leq(256)), None),
        (lambda: chain_with_shortcut(258), None),
        (lambda: chain_with_shortcut(2001), None),
    ], ids=["chain-258", "witnesses-256", "shortcut-258", "shortcut-2001"])
    def test_exact_at_every_size(self, build, covers):
        """256 paths between two elements (where a uint8 count wraps to
        0) and more than 2000 elements are handled like small cases;
        covers=None means the input must be rejected."""
        if covers is None:
            with pytest.raises(PosetError):
                build()
        else:
            assert len(build().covers) == covers

    def test_transitive_reduction_recomputation(self):
        for p in (N5, M3, divisors_poset(60)):
            again = from_leq_matrix(p.keys, leq_matrix(p))
            assert sorted(again.covers) == sorted(p.covers)

    def test_json_roundtrip(self):
        q = from_json(N5.to_json())
        assert q.keys == N5.keys
        assert sorted(q.covers) == sorted(N5.covers)
        assert np.array_equal(leq_matrix(q), leq_matrix(N5))

    def test_to_dot_mentions_all_covers(self):
        dot = N5.to_dot()
        assert dot.count("->") == len(N5.covers)


class TestBitsetClosure:
    """`from_covers` against the row-OR closure and scan it replaced."""

    POSETS = ([(f"nc{n}", lambda n=n: build_nc(n)) for n in range(1, 9)]
              + [(f"pe{n}", lambda n=n: build_pe_dref(n)) for n in range(3, 9)]
              + [("pi5", lambda: build_pi(5))]
              + [(f"pe-pchn{n}", lambda n=n: build_pe_pchn(n)) for n in range(3, 9)]
              + [(f"divisors{m}", lambda m=m: divisors_poset(m))
                 for m in (1, 12, 36, 60, 360)])

    @pytest.mark.parametrize("build", [b for _, b in POSETS],
                             ids=[name for name, _ in POSETS])
    def test_matches_row_or_closure(self, build):
        p = build()
        fast = FinitePoset.from_covers(p.keys, p.covers)
        slow = row_or_from_covers(p.keys, p.covers)
        assert all(type(row) is int for row in fast.up)
        assert fast.up == slow.up
        assert (fast.height, fast.by_rank) == (slow.height, slow.by_rank)
        assert np.array_equal(leq_matrix(fast), leq_matrix(slow))
        assert fast.covers == slow.covers

    @pytest.mark.parametrize("build", [b for _, b in POSETS],
                             ids=[name for name, _ in POSETS])
    def test_rank_order_and_up_sets(self, build):
        """The rank order is sorted by (height, index) and is a linear
        extension, and the up-set of each element is the oracle's row of
        the relation matrix with element by_rank[r] at bit N - 1 - r."""
        p = build()
        n = len(p.keys)
        rank = {v: r for r, v in enumerate(p.by_rank)}
        assert sorted(p.by_rank) == list(range(n))
        assert p.by_rank == sorted(range(n), key=lambda v: (p.height[v], v))
        assert all(rank[i] < rank[j] for i, j in p.covers)
        leq = leq_matrix(row_or_from_covers(p.keys, p.covers))
        assert p.up == [sum(1 << (n - 1 - rank[int(j)]) for j in np.flatnonzero(row))
                        for row in leq]

    @staticmethod
    def outcome(build):
        try:
            p = build()
        except PosetError as exc:
            return str(exc)
        return p.up, p.covers, p.upper_covers

    def assert_same_outcome(self, keys, edges):
        fast = self.outcome(lambda: FinitePoset.from_covers(keys, edges))
        slow = self.outcome(lambda: row_or_from_covers(keys, edges))
        assert fast == slow

    @pytest.mark.parametrize("size", [1, 7, 8, 9, 63, 64, 65])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_dags(self, size, data):
        """Random DAGs on keys in shuffled positions: as drawn (often with
        redundant edges) and reduced to their covers; the sizes straddle
        the byte and word boundaries of the bit rows."""
        position = data.draw(st.permutations(range(size)))
        ends = st.integers(0, size - 1)
        pairs = data.draw(st.lists(st.tuples(ends, ends), max_size=3 * size))
        edges = [(position[min(a, b)], position[max(a, b)]) for a, b in pairs if a != b]
        keys = [f"k{v}" for v in range(size)]
        self.assert_same_outcome(keys, edges)
        closed = np.eye(size, dtype=bool)
        for i, j in edges:
            closed[i, j] = True
        for _ in range(size.bit_length()):
            closed = closed @ closed
        covers = transitive_reduction(closed)
        self.assert_same_outcome(keys, covers)
        assert np.array_equal(leq_matrix(FinitePoset.from_covers(keys, covers)), closed)

    def test_several_redundant_edges(self):
        """A chain a < ... < h with shortcuts from several elements: the
        message names the least element with a redundant cover, then its
        least cover w below another of its covers, then the least cover
        above w."""
        keys = list("abcdefgh")
        edges = [(i, i + 1) for i in range(7)] + [(5, 7), (2, 6), (2, 4), (1, 7),
                                                  (1, 3)]
        with pytest.raises(PosetError) as fast:
            FinitePoset.from_covers(keys, edges)
        with pytest.raises(PosetError) as slow:
            row_or_from_covers(keys, edges)
        assert str(fast.value) == str(slow.value) == \
            "('b', 'd') is not a cover: 'c' lies strictly between"

    def test_python_pairs_kept(self):
        covers = list(reversed(M3.covers))
        q = FinitePoset.from_covers(M3.keys, covers)
        assert all(any(c is d for d in covers) for c in q.covers)

    def test_peak_memory(self):
        """The closure of PE_9 keeps one up-set per element, at most
        N^2 / 8 bytes in all, and little beside: traced peak at most
        0.2 N^2 bytes."""
        p = build_pe_dref(9)
        tracemalloc.start()
        try:
            FinitePoset.from_covers(p.keys, p.covers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(p.keys) == 4004
        assert peak <= 0.2 * len(p.keys) ** 2


class TestChainsAndGrading:
    def test_maximal_chains_pentagon(self):
        assert list(N5.iter_maximal_chains()) == [(0, 1, 3, 4), (0, 2, 4)]
        assert N5.maximal_chain_count() == path_counts(N5, N5.covers)[0][N5.top] == 2

    def test_chain_walkers_and_path_count_agree(self, real_poset):
        p = real_poset
        chains = list(p.iter_maximal_chains())
        assert chains == p.interval_maximal_chains(p.bottom, p.top)
        assert len(chains) == p.maximal_chain_count() == path_counts(p, p.covers)[0][p.top]

    def test_walker_matches_recursion(self, real_poset):
        """Every comparable pair, of N5 and of the real poset."""
        for p in (N5, real_poset):
            for x, y in np.argwhere(leq_matrix(p)).tolist():
                assert p.interval_maximal_chains(x, y) == \
                    recursive_saturated_chains(p, x, y)

    def test_graded(self):
        assert M3.is_graded() is True and M3.height == [0, 1, 1, 1, 2]
        assert N5.is_graded() is False
        assert CHAIN3.is_graded() is True

    def test_rank_and_height(self):
        assert M3.rank() == 2
        assert N5.rank() == 3

    def test_interval_chains(self):
        p = divisors_poset(12)
        chains = p.interval_maximal_chains(p.index(1), p.index(12))
        assert len(chains) == 3


class TestMoebius:
    def test_chain_values(self):
        t = moebius_table(CHAIN3)
        assert t[(0, 0)] == 1
        assert t[(0, 1)] == -1
        assert t[(0, 2)] == 0

    def test_diamond(self):
        assert M3.moebius_bottom_top() == 2
        assert moebius_table(M3)[(M3.index("0"), M3.index("1"))] == 2

    def test_number_theoretic_moebius(self):
        p = divisors_poset(60)
        t = moebius_table(p)
        # mu(1, d) is the classical Moebius function of d
        expected = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 10: 1, 15: 1,
                    12: 0, 20: 0, 30: -1, 60: 0}
        for d, m in expected.items():
            assert t[(p.index(1), p.index(d))] == m
        assert p.moebius_bottom_top() == t[(p.index(1), p.index(60))]

    @pytest.mark.parametrize("p", [N5, M3, divisors_poset(36)])
    def test_dual_recursion(self, p):
        """The table also satisfies mu(x,y) = -sum_{x < z <= y} mu(z,y)."""
        t = moebius_table(p)
        n, leq = len(p.keys), leq_matrix(p)
        for x in range(n):
            for y in range(n):
                if not leq[x, y] or x == y:
                    continue
                total = sum(t[(z, y)] for z in range(n)
                            if leq[x, z] and leq[z, y] and z != x)
                assert t[(x, y)] == -total

    def test_table_matches_bottom_top(self, real_poset):
        p = real_poset
        assert moebius_table(p)[(p.bottom, p.top)] == p.moebius_bottom_top()

    def test_product_multiplicativity(self):
        p = direct_product(CHAIN3, M3)
        assert p.moebius_bottom_top() == \
            CHAIN3.moebius_bottom_top() * M3.moebius_bottom_top()


class TestLatticeAndModularity:
    def test_pentagon_is_lattice(self):
        assert N5.lattice_check().is_lattice
        tables = lattice_tables(N5)
        assert tables.join[1, 2] == 4 and tables.meet[1, 2] == 0

    def test_three_atoms_two_coatoms_not_lattice(self):
        check = BOWTIE.lattice_check()
        assert not check.is_lattice
        assert set(check.witness) <= set("abxy")

    def test_tables_computed_once(self):
        p = build_nc(4)
        assert p.lattice_check() is p.lattice_check()

    def test_pentagon_left_modularity(self):
        # a is not left-modular: (b v a) ^ c = c but b v (a ^ c) = b v a...
        # evaluated against z = c with y = 0 <= c works, the failure is b M c
        assert N5.is_left_modular(N5.index("c"))
        assert not N5.is_left_modular(N5.index("b"))
        assert N5.is_left_modular_chain([N5.index(k) for k in "0ac1"])

    def test_certify_supersolvable(self):
        assert certify_supersolvable(M3, [0, 1, 4])
        # pentagon is a lattice with a left-modular chain but not graded
        assert not certify_supersolvable(N5, [N5.index(k) for k in "0ac1"])
        assert not certify_supersolvable(BOWTIE, [0, 1, 3, 5])

    def test_modular_pair_requires_lattice(self):
        with pytest.raises(PosetError):
            is_modular_pair(BOWTIE, BOWTIE.index("a"), BOWTIE.index("x"))
        with pytest.raises(PosetError):
            BOWTIE.is_left_modular(BOWTIE.index("a"))


class TestLatticeOracle:
    """The table oracle's cover recursion against the pairwise definition."""

    LATTICES = ([(f"nc{n}", Built("nc", n)) for n in range(1, 8)]
                + [(f"pe{n}", Built("pe-dref", n)) for n in range(3, 8)]
                + [(f"pi{n}", Built("pi", n)) for n in range(1, 6)]
                + [("N5", lambda: N5), ("M3", lambda: M3),
                   ("divisors60", lambda: divisors_poset(60))])
    NON_LATTICES = ([(f"pe-pchn{n}", Built("pe-pchn", n)) for n in range(5, 9)]
                    + [("bowtie", lambda: BOWTIE),
                       ("0xyczuv1", lambda: ABOVE_UNDEFINED)])

    @pytest.mark.parametrize("build", [b for _, b in LATTICES],
                             ids=[name for name, _ in LATTICES])
    def test_tables_match(self, build):
        p = build()
        q = oracle_side(build)
        fast, slow = lattice_tables(q), pairwise_lattice(q)
        assert p.lattice_check().is_lattice
        assert fast.is_lattice and slow.is_lattice
        assert fast.join.dtype == fast.meet.dtype == np.int16
        assert np.array_equal(fast.join, slow.join)
        assert np.array_equal(fast.meet, slow.meet)
        assert [p.join_row(x) for x in range(len(p.keys))] == slow.join.tolist()

    @pytest.mark.parametrize("build", [b for _, b in NON_LATTICES],
                             ids=[name for name, _ in NON_LATTICES])
    def test_witness_matches(self, build):
        p = oracle_side(build)
        fast, slow = lattice_tables(p), pairwise_lattice(p)
        assert not fast.is_lattice and fast.meet is None and fast.join is None
        assert (fast.witness, fast.reason) == (slow.witness, slow.reason)

    def test_join_above_undefined_join(self):
        assert ABOVE_UNDEFINED.lattice_check().witness == ("y", "c")

    @pytest.mark.parametrize("build", [lambda: build_nc(5),
                                       lambda: build_pe_dref(5),
                                       lambda: divisors_poset(60)],
                             ids=["nc5", "pe5", "divisors60"])
    def test_modular_pairs_by_definition(self, build):
        p = build()
        t = pairwise_lattice(p)
        for x in range(len(p.keys)):
            cols = [all(t.meet[t.join[y, x], z] == t.join[y, t.meet[x, z]]
                        for y in np.flatnonzero(leq_matrix(p)[:, z]))
                    for z in range(len(p.keys))]
            assert [is_modular_pair(p, x, z) for z in range(len(p.keys))] == cols
            assert p.is_left_modular(x) == all(cols)


PARTITION_POSETS = ([(f"nc{n}", Built("nc", n)) for n in range(1, 9)]
                    + [(f"pe{n}", Built("pe-dref", n)) for n in range(3, 9)]
                    + [(f"pe-pchn{n}", Built("pe-pchn", n)) for n in range(3, 9)]
                    + [(f"pi{n}", Built("pi", n)) for n in range(1, 7)])


class TestLevelTables:
    """The per-row join and meet tables, the one table oracle, against
    the lattice verdict and join rows of `src` up to n = 8, where the
    pairwise definition would take too long; and the height against one
    step per cover."""

    @pytest.mark.parametrize("build", [b for _, b in PARTITION_POSETS],
                             ids=[name for name, _ in PARTITION_POSETS])
    def test_tables_match_per_row(self, build):
        p = build()
        join, meet = per_row_tables(oracle_side(build))
        lattice = p.lattice_check().is_lattice
        assert lattice == bool((join >= 0).all() and (meet >= 0).all())
        if lattice:
            assert join.tolist() == [p.join_row(x) for x in range(len(p.keys))]

    @pytest.mark.parametrize("p, entry", [(BOWTIE, -1), (ABOVE_UNDEFINED, -2)],
                             ids=["bowtie", "0xyczuv1"])
    def test_non_lattice_entries(self, p, entry):
        join, meet = per_row_tables(p)
        assert (join == entry).any() or (meet == entry).any()
        assert not p.lattice_check().is_lattice

    @pytest.mark.parametrize("build", [b for _, b in PARTITION_POSETS],
                             ids=[name for name, _ in PARTITION_POSETS])
    def test_height_matches_loop(self, build):
        p = build()
        assert np.array_equal(p.height, loop_height(len(p.keys), p.covers))


EMPTY = FinitePoset.from_covers([], [])
ONE = FinitePoset.from_covers(["0"], [])
ANTICHAIN = FinitePoset.from_covers(list("abc"), [])
VERDICT_POSETS = list({name: build for name, build in
                       TestLatticeOracle.LATTICES + TestLatticeOracle.NON_LATTICES
                       + PARTITION_POSETS
                       + [("empty", lambda: EMPTY), ("one", lambda: ONE),
                          ("antichain", lambda: ANTICHAIN)]}.items())
MODULAR_LATTICES = ([("N5", lambda: N5), ("M3", lambda: M3)]
                    + [(f"divisors{m}", lambda m=m: divisors_poset(m)) for m in (60, 360)]
                    + [(f"pi{n}", Built("pi", n)) for n in range(4, 7)]
                    + [(f"nc{n}", Built("nc", n)) for n in range(5, 9)]
                    + [(f"pe{n}", Built("pe-dref", n)) for n in range(5, 9)])
LABELED = ([(f"nc{n}", n, Built("nc", n)) for n in range(3, 9)]
           + [(f"pe{n}", n, Built("pe-dref", n)) for n in range(3, 9)])


class TestBitsetLattice:
    """The lattice verdict by the BEZ lemma with its row-major witness
    scan, left-modularity by covers and the labels by join rows, against
    the join and meet tables."""

    @pytest.mark.parametrize("build", [b for _, b in VERDICT_POSETS],
                             ids=[name for name, _ in VERDICT_POSETS])
    def test_verdict_matches_tables(self, build):
        p = build()
        fast, slow = p.lattice_check(), lattice_tables(oracle_side(build))
        assert (fast.is_lattice, fast.witness, fast.reason) == \
            (slow.is_lattice, slow.witness, slow.reason)

    def test_small_verdicts(self):
        assert EMPTY.lattice_check().is_lattice
        assert ONE.lattice_check().is_lattice
        check = ANTICHAIN.lattice_check()
        assert (check.is_lattice, check.witness, check.reason) == \
            (False, ("a", "b"), "no unique join")

    @pytest.mark.parametrize("build", [b for _, b in MODULAR_LATTICES],
                             ids=[name for name, _ in MODULAR_LATTICES])
    def test_left_modular_matches_tables(self, build):
        p = build()
        q = oracle_side(build)
        fast = [p.is_left_modular(x) for x in range(len(p.keys))]
        pairs = np.nonzero(leq_matrix(q))
        assert fast == [bool(modular_columns(q, x, pairs).all())
                        for x in range(len(p.keys))]

    @pytest.mark.parametrize("n, build", [(n, b) for _, n, b in LABELED],
                             ids=[name for name, _, _ in LABELED])
    def test_labels_match_join_table(self, n, build):
        p = build()
        assert left_modular_labeling(p, distinguished_chain(n)).labels == \
            join_table_labels(oracle_side(build), distinguished_chain(n))


class TestMoebiusOracle:
    """One vector sum per element against the dict recursion."""

    @staticmethod
    def assert_moebius_matches(p: FinitePoset, ys) -> None:
        leq = leq_matrix(p)
        for y in ys:
            mu = p._moebius_to(y)
            expected = dict_moebius_to(p, y)
            assert {x: int(v) for x, v in enumerate(mu) if leq[x, y]} == expected
            assert not np.array(mu, dtype=object)[~leq[:, y]].any()

    @pytest.mark.parametrize("build", [b for _, b in PARTITION_POSETS],
                             ids=[name for name, _ in PARTITION_POSETS])
    def test_matches_dict_recursion(self, build):
        p = build()
        # every upper endpoint where that is cheap, else the top
        self.assert_moebius_matches(p, range(len(p.keys)) if len(p.keys) <= 60 else [p.top])

    @pytest.mark.parametrize("levels, width, value", [
        (40, 4, -3 ** 40), (21, 9, 1 << 63), (16, 17, -1 << 64)],
        ids=["3^40", "2^63", "2^64"])
    def test_exact_past_int64(self, levels, width, value):
        """With 0 and 1 added, the ordinal sum of k antichains of w
        elements has mu(0, 1) = (-1)^(k-1) (w-1)^k: here -3^40 (about
        -1.2e19), 2^63 and -2^64, none of which an int64 holds.  That value
        and every other mu(x, 1) are exact."""
        size = 2 + levels * width
        ranks = ([[0]] + [list(range(1 + width * k, 1 + width * (k + 1)))
                          for k in range(levels)] + [[size - 1]])
        p = FinitePoset.from_covers(range(size), [(a, b) for low, high in zip(ranks, ranks[1:])
                                                 for a in low for b in high])
        assert p.moebius_bottom_top() == value == (-1) ** (levels - 1) * (width - 1) ** levels
        self.assert_moebius_matches(p, [p.top])
