"""The paper's theorem as a property test.

Bergman fans of loopless matroids are balanced and (d-l)-connected through
codimension one, where d is the fan's dimension and l its lineality
dimension.  The bound is sharp: every facet is simplicial modulo the
lineality, so removing one neighbor across each of its d-l ridges isolates
it, and the minimum facet cut is d-l once at least d-l+2 facets exist.
Balinski's theorem on the graphs of polytopes is a second oracle.
"""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from tropicon.connectivity import build_hypergraph, is_k_connected, min_facet_cut
from tropicon.fanjson import fan_from_text, fan_to_text
from tropicon.matroid import Matroid, bergman_fine, proper_flats
from tropicon.polyhedral import _level_below, is_face_of
from tropicon.ratlin import matrix_rank, vec
from tropicon.tropical import balancing_check, normal_fan, star


@st.composite
def loopless_matroids(draw):
    """Uniform matroids, and graphic matroids of loopless multigraphs on five
    vertices: at most 6 elements and rank at most 4."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 6))
        return Matroid.uniform(draw(st.integers(1, min(4, n))), n)
    edge = st.tuples(st.integers(0, 4), st.integers(1, 4)).map(
        lambda e: (e[0], (e[0] + e[1]) % 5))
    return Matroid.graphic(draw(st.lists(edge, min_size=1, max_size=6)))


@st.composite
def linear_matroids(draw):
    """Vector matroids of three to six nonzero integer columns in Q^2 .. Q^4
    with entries in -2..2, so parallel, dependent and non-uniform columns
    occur."""
    rows = draw(st.integers(2, 4))
    column = st.lists(st.integers(-2, 2), min_size=rows, max_size=rows).filter(any)
    return Matroid.linear(draw(st.lists(column, min_size=3, max_size=6)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(loopless_matroids())
def test_bergman_fans_are_balanced_and_sharply_connected(m):
    _assert_balanced_and_sharply_connected(m)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(linear_matroids())
def test_bergman_fans_of_linear_matroids(m):
    _assert_balanced_and_sharply_connected(m)


def _assert_balanced_and_sharply_connected(m):
    fan = bergman_fine(m)
    k = fan.dim - fan.lineality_dim
    assert balancing_check(fan).balanced
    h = build_hypergraph(fan)
    assert is_k_connected(h, k).verdict
    if len(fan) >= k + 2:
        cut = min_facet_cut(h)
        assert cut is not None and cut[0] == k


def _random_lattice_polytope(rng, d):
    """Lattice points in a small box whose hull is full-dimensional."""
    while True:
        pts = {tuple(rng.randint(-5, 5) for _ in range(d))
               for _ in range(rng.randint(3 * d, 5 * d))}
        if matrix_rank([[x - y for x, y in zip(p, min(pts))] for p in pts]) == d:
            return sorted(pts)


@pytest.mark.parametrize("d,seed", [(3, s) for s in range(10)] + [(4, s) for s in range(4)])
def test_balinski_normal_fans_are_d_connected(d, seed):
    """Balinski's theorem: the graph of a d-polytope is d-connected.  The
    normal fan's facet-ridge hypergraph is that graph, every ridge of the
    complete fan bounding two cones."""
    fan = normal_fan(_random_lattice_polytope(random.Random(seed), d))
    assert (fan.dim, fan.lineality_dim) == (d, 0)
    h = build_hypergraph(fan)
    assert all(len(e) == 2 for e in h.hyperedges)
    assert is_k_connected(h, d).verdict
    cut = min_facet_cut(h)
    assert cut is None or cut[0] >= d


def _chain_count(m, flats, a, b):
    """The number of maximal chains of flats from the flat a up to b."""
    if m.rank(b) - m.rank(a) == 1:
        return 1
    return sum(_chain_count(m, flats, g, b) for g in flats
               if a < g < b and m.rank(g) == m.rank(a) + 1)


def test_stars_of_a_bergman_fan_are_products_of_minors():
    """The fine Bergman fan of a loopless matroid M is the cone over the
    order complex of the proper part of its lattice of flats, with the
    all-ones lineality (Ardila & Klivans 2006, Theorem 1).  The link of a
    chain 0 < F_1 < ... < F_k < 1 in an order complex is the join of the
    order complexes of the open intervals (F_i, F_(i+1)), so the star of
    its cone is, modulo the cone's span, the product of the Bergman fans of
    the minors M[F_i, F_(i+1)], with one facet per maximal chain through
    the F_i: the product of the intervals' maximal chain counts.  U(4,6) is
    realizable over Q, so its minors are, and each star is the
    tropicalization of a linear space: balanced and (d-l)-connected by the
    paper's theorem.  Each of its 150 ridges and 41 codimension-two faces
    is checked, and each star loads back from its own text."""
    from test_integer_record import assert_loads_back  # it imports this module
    m = Matroid.uniform(4, 6)
    fan = fan_from_text(fan_to_text(bergman_fine(m)))
    flats = [f.elements for level in proper_flats(m).values() for f in level]
    cells = fan.facet_polyhedra
    ridges = [(face, fids, tuple(1 << j for j in cuts)) for face, fids, cuts in fan.ridges]
    below = _level_below(cells, ridges)
    assert (len(ridges), len(below)) == (150, 41)
    sizes = Counter()
    for face, _, _ in ridges + below:
        s = star(fan, face)
        chain = [f for f in flats if face.contains_direction(vec(int(e in f) for e in m.elements))]
        bounds = [frozenset()] + sorted(chain, key=len) + [frozenset(m.elements)]
        products = math.prod(_chain_count(m, flats, a, b) for a, b in zip(bounds, bounds[1:]))
        assert len(s) == sum(is_face_of(face, f) for f in cells) == products, face.label()
        assert balancing_check(s).balanced
        assert is_k_connected(build_hypergraph(s), s.dim - s.lineality_dim).verdict
        assert_loads_back(s)
        sizes[len(s)] += 1
    assert sizes == {2: 120, 4: 30, 6: 20, 8: 15, 20: 6}
