import itertools
from collections import Counter

import pytest

from tropicon.connectivity import (
    BudgetExceeded, TooFewFacets, build_hypergraph,
    clique_connected_after_removal, colex_combinations,
    connected_after_removal, connected_components, hypergraph_dot,
    is_k_connected, min_facet_cut,
)
from tropicon.matroid import Matroid, bergman_fine
from tropicon.polyhedral import Complex, Polyhedron
from tropicon.ratlin import vec
from tropicon.tropical import cube_normal_fan, skeleton, two_planes_fan

E1 = vec([1, 0, 0, 0, 0])


def facets_containing_e1(c):
    return [i for i, f in enumerate(c.facet_polyhedra)
            if f.contains_point(E1)]


class TestBuildHypergraph:
    def test_two_planes_shape(self):
        h = build_hypergraph(two_planes_fan())
        assert h.num_facets == 12
        assert h.num_ridges == 7
        assert sorted(len(e) for e in h.hyperedges) == [3, 3, 3, 3, 3, 3, 6]

    def test_cube_fan_is_cube_graph(self):
        h = build_hypergraph(cube_normal_fan(3))
        assert h.num_facets == 8
        assert h.num_ridges == 12
        assert all(len(e) == 2 for e in h.hyperedges)
        degrees = Counter(f for e in h.hyperedges for f in e)
        assert set(degrees.values()) == {3}

    def test_bergman_u34(self):
        h = build_hypergraph(bergman_fine(Matroid.uniform(3, 4)))
        assert h.num_facets == 12
        assert h.num_ridges == 10
        assert sorted(len(e) for e in h.hyperedges) == [2] * 6 + [3] * 4

    def test_impure_complex_rejected(self):
        from tropicon.connectivity import ImpureComplex
        c = Complex.from_facets(
            [Polyhedron.cone([[1, 0, 0]], ambient_dim=3),
             Polyhedron.cone([[0, 1, 0], [0, 0, 1]], ambient_dim=3)])
        with pytest.raises(ImpureComplex):
            build_hypergraph(c)


class TestConnectedAfterRemoval:
    def test_two_planes_bridge(self):
        c = two_planes_fan()
        h = build_hypergraph(c)
        assert connected_after_removal(h, set()) is True
        for fid in facets_containing_e1(c):
            assert connected_after_removal(h, {fid}) is False

    def test_two_planes_non_bridge(self):
        c = two_planes_fan()
        h = build_hypergraph(c)
        bridge = set(facets_containing_e1(c))
        for fid in range(h.num_facets):
            if fid not in bridge:
                assert connected_after_removal(h, {fid}) is True

    def test_cube_single_removals_fine(self):
        h = build_hypergraph(cube_normal_fan(3))
        for fid in range(8):
            assert connected_after_removal(h, {fid})

    def test_vacuous_when_one_left(self):
        h = build_hypergraph(cube_normal_fan(1))
        assert connected_after_removal(h, {0}) is True


class TestIsKConnected:
    def test_two_planes_not_2_connected(self):
        c = two_planes_fan()
        cert = is_k_connected(build_hypergraph(c), 2)
        assert cert.verdict is False
        assert cert.witness is not None and len(cert.witness) == 1
        assert cert.witness[0] in facets_containing_e1(c)

    def test_two_planes_1_connected(self):
        cert = is_k_connected(build_hypergraph(two_planes_fan()), 1)
        assert cert.verdict is True and cert.subsets_examined == 1

    def test_bergman_u34_2_connected(self):
        cert = is_k_connected(build_hypergraph(bergman_fine(Matroid.uniform(3, 4))), 2)
        assert cert.verdict is True

    def test_cube_3_but_not_4_connected(self):
        h = build_hypergraph(cube_normal_fan(3))
        assert is_k_connected(h, 3).verdict is True
        cert = is_k_connected(h, 4)
        assert cert.verdict is False and len(cert.witness) == 3

    def test_monotonicity_on_two_planes(self):
        h = build_hypergraph(two_planes_fan())
        assert is_k_connected(h, 2).verdict is False
        assert is_k_connected(h, 3).verdict is False

    def test_vacuous_beyond_facet_count(self):
        h = build_hypergraph(cube_normal_fan(1))
        assert is_k_connected(h, 5).verdict is True

    def test_k_zero_vacuous_negative_rejected(self):
        h = build_hypergraph(two_planes_fan())
        cert = is_k_connected(h, 0)
        assert (cert.k, cert.verdict, cert.witness, cert.subsets_examined) == \
            (0, True, None, 0)
        with pytest.raises(ValueError):
            is_k_connected(h, -1)

    def test_witness_recheck(self):
        h = build_hypergraph(two_planes_fan())
        cert = is_k_connected(h, 2)
        assert connected_after_removal(h, cert.witness) is False

    def test_budget(self):
        h = build_hypergraph(cube_normal_fan(3))
        with pytest.raises(BudgetExceeded):
            is_k_connected(h, 4, budget=10)


class TestColexOrder:
    def test_small_case(self):
        got = list(colex_combinations(4, 2))
        assert got == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]

    def test_complete_and_deterministic(self):
        got = list(colex_combinations(6, 3))
        assert len(got) == 20
        assert len(set(got)) == 20
        assert got == sorted(got, key=lambda s: tuple(reversed(s)))


class TestMinFacetCut:
    def test_two_planes(self):
        c = two_planes_fan()
        size, witness = min_facet_cut(build_hypergraph(c))
        assert size == 1
        assert witness[0] in facets_containing_e1(c)

    def test_bergman_u34(self):
        size, _ = min_facet_cut(build_hypergraph(bergman_fine(Matroid.uniform(3, 4))))
        assert size == 2

    def test_cube_and_its_skeleton(self):
        cube = cube_normal_fan(3)
        assert min_facet_cut(build_hypergraph(cube))[0] == 3
        assert min_facet_cut(build_hypergraph(skeleton(cube, 2)))[0] == 2

    def test_witness_disconnects(self):
        h = build_hypergraph(cube_normal_fan(3))
        size, witness = min_facet_cut(h)
        assert not connected_after_removal(h, witness)
        # minimality: all smaller subsets keep it connected
        for smaller in itertools.combinations(range(h.num_facets), size - 1):
            assert connected_after_removal(h, smaller)

    def test_no_cut_with_two_facets(self):
        # removing anything leaves at most one facet, so nothing disconnects
        assert min_facet_cut(build_hypergraph(cube_normal_fan(1))) is None

    def test_shared_origin_ridge_cuts_at_one(self):
        # 1-skeleton of the cube fan: six rays joined by the single origin ridge
        h = build_hypergraph(skeleton(cube_normal_fan(3), 1))
        assert h.num_facets == 6 and h.num_ridges == 1
        size, _ = min_facet_cut(h)
        assert size == 1

    def test_budget_covers_all_sizes(self):
        # 8 facets, min cut 3: sizes 1-3 need 8 + 28 + 56 = 92 subsets
        h = build_hypergraph(cube_normal_fan(3))
        with pytest.raises(BudgetExceeded, match="92 subsets through size 3 "
                                                 "exceed budget 91"):
            min_facet_cut(h, budget=91)
        size, witness = min_facet_cut(h, budget=92)
        assert size == 3 and not connected_after_removal(h, witness)

    def test_too_few_facets(self):
        single = Complex.from_facets([Polyhedron.cone([[1, 0]], ambient_dim=2)])
        with pytest.raises(TooFewFacets):
            min_facet_cut(build_hypergraph(single))

    def test_consistency_with_k_connectivity(self):
        for c in (two_planes_fan(), cube_normal_fan(3),
                  bergman_fine(Matroid.uniform(3, 4))):
            h = build_hypergraph(c)
            s, _ = min_facet_cut(h)
            for k in range(1, s + 2):
                assert is_k_connected(h, k).verdict == (k <= s)


class TestCliqueComparison:
    def test_gap_on_two_planes(self):
        c = two_planes_fan()
        h = build_hypergraph(c)
        for fid in facets_containing_e1(c):
            assert not connected_after_removal(h, {fid})
            assert clique_connected_after_removal(h, {fid})


class TestDotExport:
    def test_two_planes_dot(self):
        h = build_hypergraph(two_planes_fan())
        dot = hypergraph_dot(h)
        assert dot.count("shape=box") == 12
        assert dot.count("shape=circle") == 7
        assert dot.count(" -- ") == sum(len(e) for e in h.hyperedges) == 24
        assert hypergraph_dot(h) == dot  # deterministic

    def test_single_cone(self):
        c = Complex.from_facets([Polyhedron.cone([[1, 0], [0, 1]])])
        dot = hypergraph_dot(build_hypergraph(c))
        assert dot.count("shape=box") == 1
        assert dot.count("shape=circle") == 2


def test_connected_components_of_section():
    from fractions import Fraction as F
    from tropicon.polyhedral import AffineHyperplane
    from tropicon.tropical import hyperplane_section
    sec = hyperplane_section(two_planes_fan(),
                             AffineHyperplane(vec([1, 0, 0, 0, 0]), F(-1)))
    comps = connected_components(build_hypergraph(sec.section))
    assert len(comps) == 2
