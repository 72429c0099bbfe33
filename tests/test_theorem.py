"""The paper's theorem as a property test.

Bergman fans of loopless matroids are balanced and (d-l)-connected through
codimension one, where d is the fan's dimension and l its lineality
dimension.  The bound is sharp: every facet is simplicial modulo the
lineality, so removing one neighbor across each of its d-l ridges isolates
it, and the minimum facet cut is d-l once at least d-l+2 facets exist.
Balinski's theorem on the graphs of polytopes is a second oracle.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from tropicon.connectivity import build_hypergraph, is_k_connected, min_facet_cut
from tropicon.matroid import Matroid, bergman_fine
from tropicon.ratlin import matrix_rank
from tropicon.tropical import balancing_check, normal_fan


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
