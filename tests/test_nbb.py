"""NBB bases for the top element, checked against a brute-force oracle
and against the search without ranks in `reference.py`, which also finds
the bases of arbitrary elements; the noncrossing-tree model, checked on
the atoms of every base, and the discard classification."""

from itertools import combinations, product

import pytest

from ncpe.builders import (CAPS, BuildError, build_nc, build_pe_dref, catalan,
                           enumerate_noncrossing, is_pe_member, pe_join,
                           pe_members)
from ncpe.nbb import (Atom, base_dot, classification_census, classify_base,
                      enumerate_nbb_bases_top, is_bb, moebius_via_nbb,
                      ranked_atoms)
from ncpe.partitions import SetPartition, nc_closure, nc_join, parse_partition
from reference import (ambient_join, chain_rank, is_bb_by_members,
                       is_spanning_tree, moebius_table, nbb_bases, reached,
                       same_block, split_at_root_edge)

NBB_CAPS = {"nc": CAPS["nbb-nc"], "pe": CAPS["nbb-pe"]}  # (noun, low, high)


# -- brute-force oracle: the NBB definition checked subset by subset ---------

def atoms_cross(a: Atom, b: Atom) -> bool:
    i, j = a
    k, l = b
    return i < k < j < l or k < i < l < j


def ambient_atoms(n, ambient):
    """The atoms of the ambient by definition: every {i, j} in NC, and
    those that are members of PE in PE."""
    atoms = [Atom(i, j) for i, j in combinations(range(1, n + 1), 2)]
    return [a for a in atoms if ambient == "nc" or is_pe_member(a.partition(n))]


def atoms_by_rank(n, ambient):
    """Atoms grouped by rank 1, ..., n-1, each group sorted by (i, j)."""
    groups = [[] for _ in range(n - 1)]
    for a in ambient_atoms(n, ambient):
        groups[chain_rank(a, n) - 1].append(a)
    for g in groups:
        g.sort()
    return groups


def is_nbb(base, n, ambient):
    """No nonempty subset of base is BB; joins of subsets are memoised
    bottom-up.  Singletons are never BB, so start at pairs."""
    joins = {frozenset((a,)): a.partition(n) for a in base}
    join_op = nc_join if ambient == "nc" else pe_join
    for size in range(2, len(base) + 1):
        for combo in combinations(base, size):
            s = frozenset(combo)
            joins[s] = join_op(joins[s - {combo[-1]}], combo[-1].partition(n))
            if is_bb_by_members(s, n, ambient, joins[s]):
                return False
    return True


def oracle_bases(n, ambient, x):
    """At most one atom per rank, pairwise noncrossing, below x; keep the
    candidates that join to x and pass the full subset check."""
    groups = atoms_by_rank(n, ambient)
    bases = []
    chosen = []

    def dfs(rank_idx):
        if rank_idx == len(groups):
            base = tuple(chosen)
            if ambient_join(base, n, ambient) == x and is_nbb(base, n, ambient):
                bases.append(base)
            return
        dfs(rank_idx + 1)  # no atom of this rank
        for a in groups[rank_idx]:
            if same_block(x, a.i, a.j) and not any(atoms_cross(a, b) for b in chosen):
                chosen.append(a)
                dfs(rank_idx + 1)
                chosen.pop()

    dfs(0)
    return bases


def one_atom_per_rank(ambient, low):
    """Every atom set with one atom of each rank 1..d, as (n, atoms) with
    the atoms in rank order, for low <= n <= 6."""
    for n in range(low, 7):
        groups = atoms_by_rank(n, ambient)
        for d in range(1, n):
            for atoms in product(*groups[:d]):
                yield n, atoms


class TestAtomOrder:
    def test_rank(self):
        """Each atom's rank is the least t with the atom below c_t of the
        distinguished chain, at every n up to the cap in both ambients."""
        pool = ranked_atoms(5, "nc")
        assert (pool[Atom(2, 4)], pool[Atom(2, 5)], pool[Atom(1, 5)]) == (4, 2, 1)
        for ambient, (_, low, high) in NBB_CAPS.items():
            for n in range(low, high + 1):
                pool = ranked_atoms(n, ambient)
                assert all(r == chain_rank(a, n) for a, r in pool.items())

    def test_atom_pools(self):
        """The ambient's atoms, each once, at every n up to the cap."""
        assert len(ranked_atoms(5, "nc")) == 10
        assert set(ranked_atoms(5, "nc")) - set(ranked_atoms(5, "pe")) == \
            {Atom(1, 4), Atom(4, 5)}
        for ambient, (_, low, high) in NBB_CAPS.items():
            for n in range(low, high + 1):
                assert sorted(ranked_atoms(n, ambient)) == ambient_atoms(n, ambient)

    def test_groups_partition_ranks(self):
        """In (rank, i, j) order, at every n up to the cap."""
        pool = ranked_atoms(5, "nc")
        assert list(pool.values()) == [1, 2, 2, 3, 3, 3, 4, 4, 4, 4]
        assert list(pool)[:3] == [Atom(1, 5), Atom(1, 2), Atom(2, 5)]
        for ambient, (_, low, high) in NBB_CAPS.items():
            for n in range(low, high + 1):
                pool = ranked_atoms(n, ambient)
                assert list(pool) == sorted(pool, key=lambda a: (pool[a], a))

    def test_crossing(self):
        assert atoms_cross(Atom(1, 3), Atom(2, 4))
        assert not atoms_cross(Atom(1, 4), Atom(2, 3))
        assert not atoms_cross(Atom(1, 2), Atom(2, 3))


class TestBB:
    """`is_bb` takes the rank of the set's least-ranked member and the
    set's join."""

    def test_same_rank_pair_is_bb(self):
        s = {Atom(2, 4), Atom(3, 4)}
        assert is_bb(4, 5, "nc", ambient_join(s, 5, "nc"))

    def test_crossing_pair_is_bb(self):
        s = {Atom(2, 4), Atom(3, 5)}  # ranks 4 and 3
        assert is_bb(3, 5, "nc", ambient_join(s, 5, "nc"))

    def test_singleton_never_bb(self):
        for a, r in ranked_atoms(4, "nc").items():
            assert not is_bb(r, 4, "nc", a.partition(4))

    @pytest.mark.parametrize("ambient, n", [("nc", 5), ("pe", 5), ("nc", 6), ("pe", 6)])
    def test_matches_definition_member_by_member(self, ambient, n):
        """On every atom set of size 2 and 3: BB iff each member has an
        atom of smaller rank below the join."""
        pool = ranked_atoms(n, ambient)
        verdicts = set()
        for size in (2, 3):
            for combo in combinations(pool, size):
                join = ambient_join(combo, n, ambient)
                want = is_bb_by_members(combo, n, ambient, join)
                assert is_bb(min(pool[a] for a in combo), n, ambient, join) == want
                verdicts.add(want)
        assert verdicts == {False, True}


class TestBases:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_nc_count_is_catalan(self, n):
        bases = enumerate_nbb_bases_top(n, "nc")
        assert len(bases) == catalan(n - 1)
        if n >= 2:
            assert all(len(b) == n - 1 for b in bases)
            assert all(Atom(1, n) in b for b in bases)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_pe_count(self, n):
        bases = enumerate_nbb_bases_top(n, "pe")
        assert len(bases) == catalan(n - 1) - 2 * catalan(n - 2)

    def test_one_atom_per_rank(self):
        """Every base of the top holds one atom of each rank 1..n-1, in
        rank order, at every n up to the cap in both ambients."""
        for ambient, (_, low, high) in NBB_CAPS.items():
            for n in range(low, high + 1):
                rank = {a: chain_rank(a, n) for a in ambient_atoms(n, ambient)}
                for base in enumerate_nbb_bases_top(n, ambient):
                    assert [rank[a] for a in base] == list(range(1, n))

    def test_one_closure_per_join(self, monkeypatch):
        """Each memoised join is closed once: beyond the joins, only the
        atoms, the bottom and the top are closed, to test their inputs."""
        closures, joins = [], []
        monkeypatch.setattr("ncpe.partitions.nc_closure",
                            lambda x: closures.append(x) or nc_closure(x))
        monkeypatch.setattr("ncpe.nbb.nc_join",
                            lambda x, y: joins.append(x) or nc_join(x, y))
        # the undecorated search, so the joins run in this test
        assert len(enumerate_nbb_bases_top.__wrapped__(7, "nc")) == catalan(6)
        assert len(closures) <= len(joins) + len(ranked_atoms(7, "nc")) + 2

    @pytest.mark.parametrize("ambient, join_op", [("nc", nc_join), ("pe", pe_join)])
    def test_each_pair_joined_once(self, monkeypatch, ambient, join_op):
        """Many atom sets share a join, but the search joins a partition
        with the atom {i, j} once per (partition, block of i, block of
        j), on which alone the join depends."""
        keys = []

        def counted(x, y):
            i, j = next(b for b in y.blocks if len(b) == 2)
            keys.append((x.code, x.code[i - 1], x.code[j - 1]))
            return join_op(x, y)

        monkeypatch.setattr(f"ncpe.nbb.{join_op.__name__}", counted)
        # the undecorated search, so the joins run in this test
        bases = enumerate_nbb_bases_top.__wrapped__(7, ambient)
        assert bases == enumerate_nbb_bases_top(7, ambient)
        assert keys and len(set(keys)) == len(keys)

    def test_caps(self):
        assert NBB_CAPS == {"nc": ("NC ambient", 1, 10), "pe": ("PE ambient", 3, 10)}
        with pytest.raises(BuildError, match="n <= 10"):
            enumerate_nbb_bases_top(11, "nc")
        with pytest.raises(BuildError, match="n <= 10"):
            enumerate_nbb_bases_top(11, "pe")
        with pytest.raises(BuildError):
            enumerate_nbb_bases_top(2, "pe")


class TestSuffixLemma:
    @pytest.mark.parametrize("ambient, low, cases", [("nc", 1, 199), ("pe", 3, 132)])
    def test_rank_suffixes_decide_nbb(self, ambient, low, cases):
        """On every atom set with one atom of each rank 1..d, for n <= 6:
        no rank suffix (the members of rank >= t) is BB iff no nonempty
        subset is, which is what lets the search test d sets, not 2^d."""
        verdicts = []
        for n, atoms in one_atom_per_rank(ambient, low):
            no_bb_suffix = not any(
                is_bb_by_members(atoms[t:], n, ambient, ambient_join(atoms[t:], n, ambient))
                for t in range(len(atoms)))
            assert no_bb_suffix == is_nbb(atoms, n, ambient), atoms
            verdicts.append(no_bb_suffix)
        assert len(verdicts) == cases and set(verdicts) == {False, True}

    @pytest.mark.parametrize("ambient, low", [("nc", 1), ("pe", 3)])
    def test_is_bb_matches_definition_on_every_suffix(self, ambient, low):
        """On every rank suffix atoms[t:] of the sets above, `is_bb` given
        its least rank t + 1, as the search gives it, agrees with the
        definition member by member."""
        verdicts = set()
        for n, atoms in one_atom_per_rank(ambient, low):
            for t in range(len(atoms)):
                join = ambient_join(atoms[t:], n, ambient)
                want = is_bb_by_members(atoms[t:], n, ambient, join)
                assert is_bb(t + 1, n, ambient, join) == want, atoms[t:]
                verdicts.add(want)
        assert verdicts == {False, True}


class TestMoebius:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_nc_matches_recursion(self, n):
        assert moebius_via_nbb(n, "nc") == build_nc(n).moebius_bottom_top()

    @pytest.mark.parametrize("n", range(3, 7))
    def test_pe_matches_recursion(self, n):
        assert moebius_via_nbb(n, "pe") == build_pe_dref(n).moebius_bottom_top()

    def test_degenerate(self):
        assert moebius_via_nbb(1, "nc") == 1
        assert moebius_via_nbb(3, "pe") == 0


class TestTrees:
    """A base's atoms, read as edges {i, j}, are its noncrossing tree."""

    def test_all_bases_are_trees(self):
        """Every base of the top is a noncrossing spanning tree: n - 1
        atoms, connected on [n], no two crossing, at every n up to the
        cap in both ambients."""
        for ambient, (_, low, high) in NBB_CAPS.items():
            for n in range(low, high + 1):
                for base in enumerate_nbb_bases_top(n, ambient):
                    assert is_spanning_tree(base, n), base
                    assert not any(atoms_cross(a, b)
                                   for a, b in combinations(base, 2)), base
                    if n == 1:  # the empty base has no root edge
                        continue
                    one, rest = split_at_root_edge(base, n)
                    # an initial segment against its complement
                    assert one == set(range(1, max(one) + 1))
                    assert rest == set(range(max(one) + 1, n + 1))

    def test_tree_check_rejects(self):
        assert not is_spanning_tree((Atom(1, 2), Atom(1, 2)), 3)  # disconnected
        assert not is_spanning_tree((Atom(1, 2),), 3)  # too few edges
        assert is_spanning_tree((Atom(1, 3), Atom(2, 3)), 3)

    def test_fourteen_trees_at_5(self):
        bases = enumerate_nbb_bases_top(5, "nc")
        assert len(bases) == 14
        assert len({frozenset(b) for b in bases}) == 14

    def test_dot_output(self):
        """The edges in sorted order, whatever the order of the atoms."""
        assert base_dot((Atom(1, 3), Atom(1, 2))) == (
            "graph nctree {\n  node [shape=circle];\n  1 -- 2;\n  1 -- 3;\n}\n")
        assert base_dot(()) == "graph nctree {\n  node [shape=circle];\n}\n"


class TestClassification:
    @pytest.mark.parametrize("n", range(3, 8))
    def test_census(self, n):
        census = classification_census(n)
        assert census["S2"] == census["R"] == catalan(n - 2)
        assert census["kept"] == catalan(n - 1) - 2 * catalan(n - 2)
        total = catalan(n - 1)
        # S1 is contained in R and S2 is disjoint from R
        assert census["kept"] == total - census["S2"] - census["R"]

    def test_four_kept_at_5(self):
        census = classification_census(5)
        assert census == {"S1": 2, "S2": 5, "R": 5, "kept": 4}

    @pytest.mark.parametrize("n", (4, 5, 6))
    def test_kept_equals_pe_bases(self, n):
        kept = {frozenset(b) for b in enumerate_nbb_bases_top(n, "nc")
                if classify_base(b, n) == "kept"}
        pe = {frozenset(b) for b in enumerate_nbb_bases_top(n, "pe")}
        assert kept == pe

    @pytest.mark.parametrize("n", range(4, 10))
    def test_tree_criterion_equals_pe_join(self, n):
        """On every base whose atoms other than {1, n} all lie in PE,
        class R ({1, n} is the only atom holding n, so in the tree n's
        only neighbour is 1) holds iff those atoms PE-join to the top;
        such bases are never S1 or S2."""
        root, pe, top = Atom(1, n), ranked_atoms(n, "pe"), SetPartition.top(n)
        checked = 0
        for base in enumerate_nbb_bases_top(n, "nc"):
            rest = [a for a in base if a != root]
            if not all(a in pe for a in rest):
                continue
            joins_top = ambient_join(rest, n, "pe") == top
            assert (reached(rest, n) == {n}) == joins_top
            assert classify_base(base, n) == ("R" if joins_top else "kept")
            checked += 1
        census = classification_census(n)  # its R count includes S1
        assert checked == census["kept"] + census["R"] - census["S1"]

    def test_rejects_non_base(self):
        with pytest.raises(BuildError):
            classify_base((Atom(2, 3),), 4)

    def test_census_needs_n_at_least_3(self, monkeypatch):
        def no_search(n, ambient):
            raise AssertionError("bases enumerated before the size check")

        monkeypatch.setattr("ncpe.nbb.enumerate_nbb_bases_top", no_search)
        for n in (1, 2):
            with pytest.raises(BuildError, match="n >= 3"):
                classification_census(n)


class TestOracle:
    @pytest.mark.parametrize("ambient, n", [("nc", n) for n in range(1, 8)]
                             + [("pe", n) for n in range(3, 8)])
    def test_top_bases_match_oracle(self, ambient, n):
        assert enumerate_nbb_bases_top(n, ambient) == \
            tuple(oracle_bases(n, ambient, SetPartition.top(n)))

    @pytest.mark.parametrize("ambient, n", [(ambient, n) for ambient, (_, low, high)
                                            in NBB_CAPS.items()
                                            for n in range(low, high + 1)])
    def test_top_bases_match_rank_free_search(self, ambient, n):
        """The search by ranks finds the bases that the search without
        ranks finds, in the same order, at every n up to the cap."""
        assert enumerate_nbb_bases_top(n, ambient) == \
            tuple(nbb_bases(n, ambient, SetPartition.top(n)))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_nc_element_matches_oracle(self, n):
        for x in enumerate_noncrossing(n):
            assert nbb_bases(n, "nc", x) == oracle_bases(n, "nc", x)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_every_pe_element_matches_oracle(self, n):
        for x in pe_members(n):
            assert nbb_bases(n, "pe", x) == oracle_bases(n, "pe", x)


class TestArbitraryElement:
    @pytest.mark.parametrize("n", (3, 4, 5))
    def test_signed_counts_match_recursion(self, n):
        p = build_nc(n)
        table = moebius_table(p)
        bottom = p.bottom
        for k, x in enumerate(p.keys):
            bases = nbb_bases(n, "nc", x)
            assert sum((-1) ** len(b) for b in bases) == table[(bottom, k)]

    def test_bottom_has_empty_base(self):
        assert nbb_bases(4, "nc", SetPartition.bottom(4)) == [()]

    @pytest.mark.parametrize("ambient, x", [
        ("nc", SetPartition.top(5)),         # wrong ground set
        ("nc", parse_partition("13|24")),    # crossing
        ("pe", parse_partition("1|2|34")),   # block {n-1, n}
        ("pe", parse_partition("13|2|4")),   # {n} alone, 1 ~ n-1
    ])
    def test_element_outside_ambient_rejected(self, ambient, x):
        with pytest.raises(BuildError):
            nbb_bases(4, ambient, x)
