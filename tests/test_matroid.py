import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from test_theorem import linear_matroids, loopless_matroids
from tropicon import matroid
from tropicon.fanjson import fan_to_text
from tropicon.matroid import (
    Flat, HasLoops, LoopContraction, Matroid, bergman_fine, contraction,
    matroid_from_json, maximal_chains, proper_flats,
)
from tropicon.polyhedral import Complex, Polyhedron, validate_complex

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def k4():
    return Matroid.graphic(K4_EDGES)


def parallel_classes(m):
    """The rank-one flats minus the loops, one per class of non-loops."""
    loops = m.loops()
    return sorted(sorted(c) for c in {m.closure({e}) - loops
                                      for e in m.elements if e not in loops})


def check_rank_axioms(m):
    """Exhaustively verify the rank axioms; intended for small ground sets."""
    elems = m.elements
    subsets = [frozenset(c) for k in range(len(elems) + 1)
               for c in itertools.combinations(elems, k)]
    assert m.rank(frozenset()) == 0
    for S in subsets:
        rs = m.rank(S)
        assert 0 <= rs <= len(S), f"rank out of range on {set(S)}"
        for e in elems:
            gain = m.rank(S | {e}) - rs
            assert gain in (0, 1), f"unit increase fails on {set(S)} + {e}"
    for S in subsets:
        for T in subsets:
            lhs = m.rank(S | T) + m.rank(S & T)
            rhs = m.rank(S) + m.rank(T)
            assert lhs <= rhs, f"submodularity fails on {set(S)}, {set(T)}"


@pytest.mark.parametrize("build, message", [
    (lambda: Matroid([0, 1, 0], len), "repeated ground set labels"),
    (lambda: Matroid.uniform(3, 2), "need 0 <= r <= n"),
    (lambda: Matroid.from_bases(2, []), "at least one basis required"),
    (lambda: Matroid.from_bases(3, [{0}, {1, 2}]), "bases must have equal size"),
    (lambda: Matroid.uniform(2, 3).rank({0, 3}), "subset leaves the ground set"),
    (lambda: contraction(Matroid.uniform(2, 3), 5), "element 5 not in the ground set"),
], ids=["repeated-labels", "uniform-rank", "no-basis", "basis-sizes", "rank-subset",
        "contraction"])
def test_input_checks(build, message):
    with pytest.raises(ValueError) as e:
        build()
    assert str(e.value) == message


class TestClosureAndRank:
    def test_uniform_pair(self):
        m = Matroid.uniform(3, 4)
        assert m.closure({0, 1}) == frozenset({0, 1}) and m.rank({0, 1}) == 2

    def test_uniform_full_rank_closes_up(self):
        m = Matroid.uniform(3, 4)
        assert m.closure({0, 1, 2}) == frozenset({0, 1, 2, 3})
        assert m.rank({0, 1, 2}) == 3

    def test_graphic_triangle_closes(self):
        # edges 0=(0,1) and 1=(0,2) span the triangle {0,1,3} on vertices 0,1,2
        m = k4()
        assert m.closure({0, 1}) == frozenset({0, 1, 3}) and m.rank({0, 1}) == 2

    def test_closure_idempotent_and_monotone(self):
        m = k4()
        for S in itertools.combinations(range(6), 2):
            cl = m.closure(S)
            assert m.closure(cl) == cl
            assert frozenset(S) <= cl


class TestProperFlats:
    def test_u23(self):
        flats = proper_flats(Matroid.uniform(2, 3))
        assert {r: len(fs) for r, fs in flats.items()} == {1: 3}
        assert all(len(f.elements) == 1 for f in flats[1])

    def test_u34(self):
        flats = proper_flats(Matroid.uniform(3, 4))
        assert {r: len(fs) for r, fs in flats.items()} == {1: 4, 2: 6}

    def test_k4_flat_census(self):
        flats = proper_flats(k4())
        assert {r: len(fs) for r, fs in flats.items()} == {1: 6, 2: 7}
        rank2 = [f.elements for f in flats[2]]
        triangles = [f for f in rank2 if len(f) == 3]
        matchings = [f for f in rank2 if len(f) == 2]
        assert len(triangles) == 4 and len(matchings) == 3


class TestMaximalChains:
    def test_counts(self):
        assert len(maximal_chains(Matroid.uniform(2, 3))) == 3
        assert len(maximal_chains(Matroid.uniform(3, 4))) == 12
        assert len(maximal_chains(k4())) == 18

    def test_chain_structure(self):
        for chain in maximal_chains(Matroid.uniform(3, 4)):
            assert [f.rank for f in chain] == [1, 2]
            assert chain[0].elements < chain[1].elements

    def test_chain_limit(self, monkeypatch):
        # U(4, 6) has 6!/3! = 120 maximal chains: a limit of 120 keeps them
        # all, in the same order, and one of 119 refuses the matroid
        chains = maximal_chains(Matroid.uniform(4, 6))
        monkeypatch.setattr(matroid, "CHAIN_LIMIT", 120)
        assert maximal_chains(Matroid.uniform(4, 6)) == chains
        monkeypatch.setattr(matroid, "CHAIN_LIMIT", 119)
        with pytest.raises(ValueError, match="^maximal chains of flats exceed the limit 119$"):
            maximal_chains(Matroid.uniform(4, 6))

    def test_loops_rejected(self):
        loopy = Matroid.from_bases(3, [[0], [1]])
        with pytest.raises(HasLoops):
            maximal_chains(loopy)

    def test_chain_must_strictly_increase(self):
        # chains are plain tuples of flats, built increasing: every maximal
        # chain is a strictly increasing tuple of flats of ranks 1, ..., r - 1
        for m in (Matroid.uniform(4, 6), k4()):
            chains = maximal_chains(m)
            assert chains and len(set(chains)) == len(chains)
            for chain in chains:
                assert all(type(f) is Flat for f in chain)
                assert [f.rank for f in chain] == list(range(1, m.full_rank))
                assert all(a.elements < b.elements for a, b in zip(chain, chain[1:]))


class TestBergmanFine:
    @pytest.mark.parametrize("r,n,rays,facets", [(2, 3, 3, 3), (3, 4, 10, 12)])
    def test_uniform_counts(self, r, n, rays, facets):
        b = bergman_fine(Matroid.uniform(r, n))
        assert len(b.ray_pool) == rays
        assert len(b) == facets
        assert b.lineality_dim == 1
        assert b.dim == r

    def test_k4_counts(self):
        b = bergman_fine(k4())
        assert len(b.ray_pool) == 13 and len(b) == 18

    def test_valid_and_counts_match_lattice(self):
        m = Matroid.uniform(3, 4)
        b = bergman_fine(m)
        assert validate_complex(b, pairwise=True).valid
        assert len(b) == len(maximal_chains(m))
        assert len(b.ray_pool) == sum(len(v) for v in proper_flats(m).values())

    def test_facets_simplicial_modulo_lineality(self):
        b = bergman_fine(k4())
        for f in b.facet_polyhedra:
            assert len(f.rays) == f.dim - 1  # rays + the lineality line

    def test_weights_are_one(self):
        assert set(bergman_fine(Matroid.uniform(3, 4)).weights) == {1}

    def test_empty_ground_set(self):
        # the fan R^0: one cell, and no lineality row (the all-ones row is empty)
        b = bergman_fine(Matroid.uniform(0, 0))
        assert (b.ambient_dim, b.ray_pool, b.lineality, b.cells) == (0, (), (), (((), ()),))


class TestContraction:
    def test_uniform_contraction_is_uniform(self):
        c = contraction(Matroid.uniform(3, 4), 0)
        assert c.elements == (1, 2, 3)
        u23 = Matroid.uniform(2, 3)
        for k in range(4):
            for S in itertools.combinations((1, 2, 3), k):
                relabeled = frozenset(x - 1 for x in S)
                assert c.rank(S) == u23.rank(relabeled)

    def test_rank_drops_by_one(self):
        m = k4()
        c = contraction(m, 0)
        assert c.full_rank == m.full_rank - 1

    def test_graphic_contraction_parallel_pairs(self):
        c = contraction(k4(), 0)
        assert not c.loops()
        assert parallel_classes(c) == [[1, 3], [2, 4], [5]]

    def test_loop_contraction_rejected(self):
        loopy = Matroid.from_bases(3, [[0], [1]])
        with pytest.raises(LoopContraction):
            contraction(loopy, 2)


class TestParallelClassesAndLoops:
    def test_uniform_no_loops(self):
        m = Matroid.uniform(3, 4)
        assert parallel_classes(m) == [[0], [1], [2], [3]]
        assert not m.loops() and m.is_loop_free()

    def test_bases_oracle_parallel_and_loop(self):
        m = Matroid.from_bases(3, [[0], [1]])
        assert m.rank({0, 1}) == 1
        assert m.closure({0}) == frozenset({0, 1, 2})  # the loop 2 is in every flat
        assert parallel_classes(m) == [[0, 1]]
        assert m.loops() == frozenset({2}) and not m.is_loop_free()


class TestRankAxioms:
    @pytest.mark.parametrize("m", [
        Matroid.uniform(2, 4),
        Matroid.uniform(3, 5),
        Matroid.graphic(K4_EDGES),
        Matroid.linear([[1, 0], [0, 1], [1, 1], [2, 2]]),
        Matroid.from_bases(3, [[0, 1], [0, 2], [1, 2]]),
    ], ids=["u24", "u35", "k4", "linear", "bases"])
    def test_exhaustive(self, m):
        check_rank_axioms(m)

    def test_exchange_violation_rejected(self):
        with pytest.raises(ValueError, match="exchange"):
            Matroid.from_bases(4, [[0, 1], [2, 3]])

    def test_ground_limit(self):
        with pytest.raises(ValueError, match="limit"):
            Matroid.uniform(2, 13)


class TestFlatContractionBijection:
    """Flats containing cl({e}) correspond to flats of M/e, rank shifted by one."""

    @staticmethod
    def all_flats(m):
        # brute-force oracle: close every subset of the ground set
        out = set()
        for k in range(len(m.elements) + 1):
            for S in itertools.combinations(m.elements, k):
                cl = m.closure(S)
                out.add((cl, m.rank(cl)))
        return out

    @pytest.mark.parametrize("m", [
        Matroid.uniform(2, 3), Matroid.uniform(3, 4), Matroid.graphic(K4_EDGES),
    ], ids=["u23", "u34", "k4"])
    def test_bijection(self, m):
        for e in m.elements:
            cl_e = m.closure({e})
            upper = [(els, r) for els, r in self.all_flats(m) if cl_e <= els]
            contracted = self.all_flats(contraction(m, e))
            mapped = {(frozenset(x for x in els if x != e), r - 1)
                      for els, r in upper}
            assert mapped == contracted
            assert len(mapped) == len(upper)


class TestMatroidJson:
    def test_uniform(self):
        m = matroid_from_json({"type": "uniform", "r": 3, "n": 4})
        assert m.full_rank == 3 and len(m.elements) == 4

    def test_graphic(self):
        m = matroid_from_json({"type": "graphic", "edges": [[0, 1], [1, 2], [0, 2]]})
        assert m.full_rank == 2

    def test_linear(self):
        m = matroid_from_json({"type": "linear",
                               "columns": [["1", "0"], ["0", "1"], ["1/2", "1/2"]]})
        assert m.full_rank == 2
        assert m.rank({0, 2}) == 2

    def test_bases(self):
        m = matroid_from_json({"type": "bases", "n": 3, "bases": [[0], [1]]})
        assert m.rank({0, 1}) == 1

    @pytest.mark.parametrize("obj", [
        {"type": "linear", "columns": [[0.1, 1], [1, 0]]},
        {"type": "linear", "columns": [[True, 0], [0, 1]]},
        {"type": "uniform", "r": 2.7, "n": 4},
        {"type": "uniform", "r": True, "n": 4},
        {"type": "graphic", "edges": [[0, 1.0], [1, 2]]},
        {"type": "bases", "n": 3, "bases": [[0], [True]]},
    ], ids=["float-entry", "bool-entry", "float-rank", "bool-rank",
            "float-vertex", "bool-basis"])
    def test_floats_and_bools_rejected(self, obj):
        with pytest.raises(ValueError):
            matroid_from_json(obj)

    @pytest.mark.parametrize("obj,word", [
        ({"type": "bases", "n": 3, "bases": [[0], [7]]}, "ground set"),
        ({"type": "bases", "n": 3, "bases": [[0], [-1]]}, "ground set"),
        ([{"type": "uniform", "r": 1, "n": 2}], "object"),
        ("uniform", "object"),
        ({"type": "graphic", "edges": 5}, "edges"),
        ({"type": "graphic", "edges": [5, [0, 1]]}, "edge"),
        ({"type": "graphic", "edges": [[0]]}, "pair"),
        ({"type": "graphic", "edges": [[0, 1, 2]]}, "pair"),
        ({"type": "linear", "columns": 5}, "columns"),
        ({"type": "linear", "columns": [5, [1, 0]]}, "column"),
        ({"type": "bases", "n": 3, "bases": 5}, "bases"),
        ({"type": "bases", "n": 3, "bases": [0, 1]}, "basis"),
    ], ids=["basis-past-n", "basis-negative", "list-input", "string-input",
            "edges-not-list", "edge-not-list", "edge-single", "edge-triple",
            "columns-not-list", "column-not-list", "bases-not-list",
            "basis-not-list"])
    def test_bad_shapes_rejected(self, obj, word):
        with pytest.raises(ValueError, match=word):
            matroid_from_json(obj)

    def test_unknown_type(self):
        with pytest.raises(ValueError, match="unknown matroid type"):
            matroid_from_json({"type": "transversal"})


# ---------------------------------------------------------------------------
# bergman_fine builds its pools from the flats; the per-chain cones it
# replaced are the oracle


def _bergman_by_cones(m):
    """One cone per maximal chain of flats, pooled by `Complex.from_facets`."""
    ground = m.elements
    n = len(ground)
    all_ones = (F(1),) * n
    facets = [Polyhedron.cone([[F(int(e in f.elements)) for e in ground] for f in chain],
                              [all_ones], ambient_dim=n)
              for chain in maximal_chains(m)]
    if not facets:  # rank one: the fan is the lineality line
        facets = [Polyhedron.cone((), [all_ones], ambient_dim=n)]
    return Complex.from_facets(facets, lineality=[all_ones], ambient_dim=n)


def _assert_same_complex(m):
    got, want = bergman_fine(m), _bergman_by_cones(m)
    assert (got.ambient_dim, got.vertex_pool, got.ray_pool, got.lineality, got.cells,
            got.weights) == (want.ambient_dim, want.vertex_pool, want.ray_pool,
                             want.lineality, want.cells, want.weights)
    assert all(type(x) is F for r in got.ray_pool + got.lineality for x in r)
    assert fan_to_text(got) == fan_to_text(want)
    assert [f.canonical_key for f in got.facet_polyhedra] == \
        [f.canonical_key for f in want.facet_polyhedra]


@pytest.mark.parametrize("m", [
    Matroid.uniform(1, 1), Matroid.uniform(1, 3), Matroid.uniform(2, 3),
    Matroid.uniform(3, 4), Matroid.uniform(3, 6), Matroid.uniform(4, 6),
    Matroid.uniform(5, 6), k4(),
    Matroid.graphic([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 1)]),
    Matroid.linear([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, 2, 3]]),
    Matroid.from_bases(4, [[0, 1], [0, 2], [1, 2], [0, 3], [1, 3]]),
], ids=["U(1,1)", "U(1,3)", "U(2,3)", "U(3,4)", "U(3,6)", "U(4,6)", "U(5,6)", "M(K4)",
        "C5-parallel", "linear", "bases"])
def test_bergman_fine_equals_the_per_chain_cones(m):
    _assert_same_complex(m)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.one_of(loopless_matroids(), linear_matroids()))
def test_bergman_fine_equals_the_per_chain_cones_on_drawn_matroids(m):
    _assert_same_complex(m)
