"""The paper's theorem as a property test.

Bergman fans of loopless matroids are balanced and (d-l)-connected through
codimension one, where d is the fan's dimension and l its lineality
dimension.  The bound is sharp: every facet is simplicial modulo the
lineality, so removing one neighbor across each of its d-l ridges isolates
it, and the minimum facet cut is d-l once at least d-l+2 facets exist.
"""

from hypothesis import given, settings, strategies as st

from tropicon.connectivity import build_hypergraph, is_k_connected, min_facet_cut
from tropicon.matroid import Matroid, bergman_fine
from tropicon.tropical import WeightedComplex, balancing_check


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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(loopless_matroids())
def test_bergman_fans_are_balanced_and_sharply_connected(m):
    fan = bergman_fine(m)
    k = fan.dim - fan.lineality_dim
    assert balancing_check(WeightedComplex(fan)).balanced
    h = build_hypergraph(fan)
    assert is_k_connected(h, k).verdict
    if len(fan) >= k + 2:
        cut = min_facet_cut(h)
        assert cut is not None and cut[0] == k
