import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from test_theorem import loopless_matroids
from tropicon import connectivity
from tropicon.connectivity import (
    BudgetExceeded, FacetRidgeHypergraph, TooFewFacets, build_hypergraph,
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

    def test_separators_found_at_every_k_beyond_facet_count(self):
        # the middle facet of a path of three separates the ends
        path = FacetRidgeHypergraph(3, (frozenset({0, 1}), frozenset({1, 2})))
        for k in (2, 3, 4, 7):
            cert = is_k_connected(path, k)
            assert (cert.verdict, cert.witness, cert.subsets_examined) == \
                (False, (1,), 2), k
        # two facets without a common ridge: the empty set separates
        apart = FacetRidgeHypergraph(2, ())
        for k in (1, 2, 5):
            cert = is_k_connected(apart, k)
            assert (cert.verdict, cert.witness, cert.subsets_examined) == \
                (False, (), 1), k

    def test_vacuous_with_at_most_one_facet(self):
        for h in (FacetRidgeHypergraph(0, ()),
                  FacetRidgeHypergraph(1, (frozenset({0}),))):
            for k in range(4):
                cert = is_k_connected(h, k)
                assert (cert.verdict, cert.witness, cert.subsets_examined) == \
                    (True, None, 0)

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

    def test_disconnected_hypergraph_has_the_empty_cut(self):
        # facet 0 shares no ridge: rays -e1,-e2,e2,e3,e1 with cells
        # {-e1,-e2}, {e3,e2}, {e2,e1}
        rays = [[-1, 0, 0], [0, -1, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0]]
        c = Complex.from_facets([Polyhedron.cone([rays[i], rays[j]])
                                 for i, j in ((0, 1), (3, 2), (2, 4))])
        assert min_facet_cut(build_hypergraph(c)) == (0, ())
        # two components of two facets each: no facet is isolated
        h = FacetRidgeHypergraph(4, (frozenset({0, 1}), frozenset({2, 3})))
        assert min_facet_cut(h) == (0, ())
        assert min_facet_cut(FacetRidgeHypergraph(2, ())) == (0, ())

    def test_shared_origin_ridge_cuts_at_one(self):
        # 1-skeleton of the cube fan: six rays joined by the single origin ridge
        h = build_hypergraph(skeleton(cube_normal_fan(3), 1))
        assert h.num_facets == 6 and h.num_ridges == 1
        size, _ = min_facet_cut(h)
        assert size == 1

    def test_budget_covers_all_sizes(self):
        # the cube graph, isolation cap 3.  Ruling out cuts of size 2 takes
        # 28 units: pairs (0,1) and (0,2) share a ridge (a search node and
        # one path each), pair (1,2) and the virtual facets x_3..x_7 pack 3
        # paths (4 units each).  Fixing the colex-least cut of size 3 takes
        # one search within facets {0..6} (18 units), which returns the cut
        # {1,2,4}, then direct tests of the 3-subsets of the probes of at
        # most 4 facets, {0..3}, {0,1,2,4}, {0,1,4} and {0,2,4}: 4 + 4 + 1
        # + 1 = 10 units, 56 in all.
        h = build_hypergraph(cube_normal_fan(3))
        with pytest.raises(BudgetExceeded, match="56 units of work exceed budget 55"):
            min_facet_cut(h, budget=55)
        assert min_facet_cut(h, budget=56) == (3, (1, 2, 4))

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
        # the clique expansion (open removal) hides the obstruction
        c = two_planes_fan()
        h = build_hypergraph(c)
        for fid in facets_containing_e1(c):
            assert not connected_after_removal(h, {fid})
            assert len(_oracle_components(h, {fid}, closed=False)) == 1


class TestDotExport:
    def test_two_planes_dot(self):
        c = two_planes_fan()
        h = build_hypergraph(c)
        dot = hypergraph_dot(c)
        assert dot.count("shape=box") == 12
        assert dot.count("shape=circle") == 7
        assert dot.count(" -- ") == sum(len(e) for e in h.hyperedges) == 24
        assert hypergraph_dot(c) == dot  # deterministic

    def test_single_cone(self):
        c = Complex.from_facets([Polyhedron.cone([[1, 0], [0, 1]])])
        dot = hypergraph_dot(c)
        assert dot.count("shape=box") == 1
        assert dot.count("shape=circle") == 2

    def test_impure_complex_rejected(self):
        # as build_hypergraph does
        from tropicon.connectivity import ImpureComplex
        c = Complex.from_facets(
            [Polyhedron.cone([[1, 0, 0]], ambient_dim=3),
             Polyhedron.cone([[0, 1, 0], [0, 0, 1]], ambient_dim=3)])
        with pytest.raises(ImpureComplex):
            hypergraph_dot(c)


def test_connected_components_of_section():
    from fractions import Fraction as F
    from tropicon.polyhedral import AffineHyperplane
    from tropicon.tropical import hyperplane_section
    sec = hyperplane_section(two_planes_fan(),
                             AffineHyperplane(vec([1, 0, 0, 0, 0]), F(-1)))
    comps = connected_components(build_hypergraph(sec.section))
    assert len(comps) == 2


# ---------------------------------------------------------------------------
# the exhaustive colex scan as the oracle of the pair engine


def _oracle_components(h, removed=(), closed=True):
    """Components by union-find, independent of the module, by least facet.
    Closed removal drops every hyperedge meeting `removed`; open removal
    (the clique expansion) drops only the removed members."""
    removed = set(removed)
    root = list(range(h.num_facets))

    def find(x):
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    for edge in h.hyperedges:
        if not closed or removed.isdisjoint(edge):
            members = sorted(edge - removed)
            for f in members[1:]:
                root[find(f)] = find(members[0])
    comps = {}
    for f in range(h.num_facets):
        if f not in removed:
            comps.setdefault(find(f), set()).add(f)
    return list(comps.values())


def _oracle_disconnects(h, removed):
    """Closed-facet removal leaves two facets in two components."""
    return len(_oracle_components(h, removed)) > 1


def _oracle_scan(h, t):
    """First disconnecting t-subset in colex order and the subsets examined."""
    subsets = sorted(itertools.combinations(range(h.num_facets), t),
                     key=lambda s: s[::-1])
    for rank, s in enumerate(subsets, 1):
        if _oracle_disconnects(h, s):
            return s, rank
    return None, len(subsets)


def _oracle_certificate(h, k):
    """Scan at k-1 clamped to #facets - 2, the largest size a separator has."""
    t = min(k - 1, h.num_facets - 2)
    if t < 0:
        return True, None, 0
    witness, examined = _oracle_scan(h, t)
    return witness is None, witness, examined


def _oracle_min_cut(h):
    """Scan sizes 0, 1, ... up to the cheapest facet isolation, and n - 2."""
    n = h.num_facets
    isolation = [len(set().union(*(e for e in h.hyperedges if f in e)) - {f})
                 for f in range(n)]
    cap = min([c for c in isolation if n - c >= 2] + [n - 1, n - 2])
    for s in range(cap + 1):
        witness, _ = _oracle_scan(h, s)
        if witness is not None:
            return s, witness
    return None


def _random_hypergraph(rng):
    n = rng.randint(4, 10)
    edges = [frozenset(rng.sample(range(n), rng.randint(2, min(4, n))))
             for _ in range(rng.randint(n // 2, 3 * n))]
    return FacetRidgeHypergraph(n, tuple(edges))


class TestPairEngineAgainstScan:
    def assert_agrees(self, h, ks):
        # past k = 5, small hypergraphs also run every k up to #facets + 1
        if h.num_facets <= 12:
            ks = sorted(set(ks) | set(range(h.num_facets + 2)))
        cut = _oracle_min_cut(h) if h.num_facets >= 2 else None
        for k in ks:
            cert = is_k_connected(h, k)
            assert (cert.verdict, cert.witness, cert.subsets_examined) == \
                _oracle_certificate(h, k), k
            # k-connected: no separator has at most k-1 facets
            assert cert.verdict == (cut is None or cut[0] >= k), k
        if h.num_facets >= 2:
            assert min_facet_cut(h) == cut

    @pytest.mark.parametrize("fan", [
        two_planes_fan, lambda: cube_normal_fan(3),
        lambda: skeleton(cube_normal_fan(3), 2),
        lambda: bergman_fine(Matroid.uniform(3, 4)),
        lambda: bergman_fine(Matroid.uniform(3, 6)),
        lambda: bergman_fine(Matroid.uniform(4, 5)),
        lambda: bergman_fine(Matroid.graphic(
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])),
        lambda: bergman_fine(Matroid.uniform(4, 6)),
    ], ids=["two-planes", "cube3", "cube3-2-skeleton", "U(3,4)", "U(3,6)",
            "U(4,5)", "M(K4)", "U(4,6)"])
    def test_fixtures(self, fan):
        self.assert_agrees(build_hypergraph(fan()), range(5))

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(loopless_matroids())
    def test_bergman_fans_of_random_matroids(self, m):
        self.assert_agrees(build_hypergraph(bergman_fine(m)), range(5))

    def test_random_hypergraphs_reach_the_exact_fallback(self, monkeypatch):
        # branch nodes are searches with facets already removed; count those
        # that find a separator and those that prove the pair
        outcomes = Counter()
        search = connectivity._Separators._search

        def counted(self, a, b, removed, r, seen):
            found = search(self, a, b, removed, r, seen)
            if removed:
                outcomes[found is not None] += 1
            return found

        monkeypatch.setattr(connectivity._Separators, "_search", counted)
        rng = random.Random(20260)
        for _ in range(2000):
            self.assert_agrees(_random_hypergraph(rng), range(1, 5))
        assert outcomes[True] > 0 and outcomes[False] > 0


def test_refutation_tests_few_subsets(monkeypatch):
    # U(4,6) at k = 4: the witness sits at colex rank 1148, found without
    # scanning the subsets before it
    calls = []
    check = connectivity.connected_after_removal

    def counted(h, removed):
        calls.append(removed)
        return check(h, removed)

    monkeypatch.setattr(connectivity, "connected_after_removal", counted)
    cert = is_k_connected(build_hypergraph(bergman_fine(Matroid.uniform(4, 6))), 4)
    assert (cert.verdict, cert.witness, cert.subsets_examined) == (False, (1, 4, 20), 1148)
    assert len(calls) <= 15


# ---------------------------------------------------------------------------
# the BFS on the adjacency's member tuples against the BFS on hyperedge sets


def _set_search(self, a, b, removed, r, seen):
    """`_Separators._search` as written, so that the two searches differ
    only in how `_path` reads a hyperedge."""
    self.spend()
    blocked = set(removed)
    shortest = None
    for _ in range(r + 1):
        interior = self._path(a, b, blocked)
        if interior is None:
            break
        interior &= self.allowed
        if not interior:
            return None
        shortest = shortest or interior
        blocked |= interior
    else:
        return None
    if shortest is None:
        return removed
    for c in sorted(shortest):
        grown = removed | {c}
        if grown not in seen:
            seen.add(grown)
            found = self._search(a, b, grown, r - 1, seen)
            if found is not None:
                return found
    return None


def _set_path(self, a, b, blocked):
    """`_Separators._path` read off the hyperedges: each whole hyperedge
    tested against the set `blocked` by `isdisjoint`, each member visited
    from the hyperedge, and the interior the union of the path's hyperedges."""
    self.spend()
    edges, incidence = self.h.hyperedges, self.set_incidence
    parent = {b: None}
    queue = [b]
    for u in queue:
        for e in incidence[u]:
            edge = edges[e]
            if not blocked.isdisjoint(edge):
                continue
            for w in edge:
                if w in parent:
                    continue
                parent[w] = (u, e)
                if w == a or (a is None and w < b):
                    interior = set()
                    while w != b:
                        w, e = parent[w]
                        interior |= edges[e]
                    return interior - {a, b}
                queue.append(w)
    return None


def _certificates_and_work(h, ks):
    """Every certificate of `is_k_connected` at ks and of `min_facet_cut`,
    and the work each call spent."""
    spent = []
    init = connectivity._Separators.__init__

    def counted(self, hg, budget):
        init(self, hg, budget)
        spent.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(connectivity._Separators, "__init__", counted)
        out = [is_k_connected(h, k) for k in ks]
        if h.num_facets >= 2:
            out.append(min_facet_cut(h))
    return out, [w.done for w in spent]


def _fresh(h):
    """A hypergraph with the same hyperedges and nothing decided yet, so
    the unrestricted probes one engine decided are not reused by another."""
    return FacetRidgeHypergraph(h.num_facets, h.hyperedges)


def _set_incidence(h):
    """Per facet, the hyperedges through it that reach another facet,
    smallest first, as the set-based BFS read them."""
    edges = h.hyperedges
    incident = [[] for _ in range(h.num_facets)]
    for i in sorted(range(len(edges)), key=lambda i: len(edges[i])):
        if len(edges[i]) > 1:
            for f in edges[i]:
                incident[f].append(i)
    return incident


def _assert_adjacency_matches_sets(h, ks):
    got = _certificates_and_work(_fresh(h), ks)
    init = connectivity._Separators.__init__

    def keep_incidence(self, hg, budget):
        init(self, hg, budget)
        self.set_incidence = _set_incidence(hg)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(connectivity._Separators, "__init__", keep_incidence)
        mp.setattr(connectivity._Separators, "_search", _set_search)
        mp.setattr(connectivity._Separators, "_path", _set_path)
        want = _certificates_and_work(_fresh(h), ks)
    assert got == want


@st.composite
def _drawn_hypergraphs(draw):
    n = draw(st.integers(2, 10))
    member = st.integers(0, n - 1)
    edges = draw(st.lists(st.frozensets(member, min_size=1, max_size=4), max_size=3 * n))
    return FacetRidgeHypergraph(n, tuple(edges))


class TestAdjacencyBreadthFirstSearch:
    @pytest.mark.parametrize("fan", [
        two_planes_fan, lambda: cube_normal_fan(3),
        lambda: bergman_fine(Matroid.uniform(3, 6)),
        lambda: bergman_fine(Matroid.graphic(
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 1)])),
        lambda: bergman_fine(Matroid.uniform(4, 6)),
    ], ids=["two-planes", "cube3", "U(3,6)", "C5-parallel", "U(4,6)"])
    def test_fixtures(self, fan):
        _assert_adjacency_matches_sets(build_hypergraph(fan()), range(6))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_drawn_hypergraphs())
    def test_drawn_hypergraphs(self, h):
        _assert_adjacency_matches_sets(h, range(1, 5))

    def test_seeded_hypergraphs(self):
        rng = random.Random(4242)
        for _ in range(300):
            _assert_adjacency_matches_sets(_random_hypergraph(rng), range(1, 5))


# ---------------------------------------------------------------------------
# the witness descent against the binary search it replaced


def _bisection(n, size, holds):
    """The colex search as it was: each element by a binary search over the
    facet prefixes, holds(A) read only as true or false."""
    cut = []
    top = n - 1
    for level in range(size, 0, -1):
        least = level - 1
        while least < top:
            m = (least + top) // 2
            if holds(frozenset(range(m + 1)).union(cut)) is not None:
                top = m
            else:
                least = m + 1
        cut.append(least)
        top = least - 1
    return tuple(reversed(cut))


def _bisection_certificates_and_work(h, ks):
    """`_certificates_and_work` with the binary search over the same test
    of a facet set, each unrestricted probe decided afresh as before."""
    find = connectivity._Separators.find

    def undecided(self, t, allowed=None):
        return find(self, t, self.facets if allowed is None else allowed)

    def bisection(self, t, known):
        return _bisection(self.n, t, lambda A: self._holds(t, A))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(connectivity._Separators, "witness", bisection)
        mp.setattr(connectivity._Separators, "find", undecided)
        return _certificates_and_work(h, ks)


def _descent_against_bisection(h, ks):
    """Equal certificates and min cuts; the work of both, summed over calls."""
    got, work = _certificates_and_work(_fresh(h), ks)
    want, oracle_work = _bisection_certificates_and_work(_fresh(h), ks)
    assert got == want
    return sum(work), sum(oracle_work)


class TestWitnessDescent:
    @pytest.mark.parametrize("fan", [
        two_planes_fan, lambda: cube_normal_fan(3),
        lambda: skeleton(cube_normal_fan(3), 2),
        lambda: bergman_fine(Matroid.uniform(3, 6)),
        lambda: bergman_fine(Matroid.graphic(
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 1)])),
        lambda: bergman_fine(Matroid.uniform(4, 6)),
    ], ids=["two-planes", "cube3", "cube3-2-skeleton", "U(3,6)", "C5-parallel", "U(4,6)"])
    def test_fixtures(self, fan):
        _descent_against_bisection(build_hypergraph(fan()), range(6))

    def test_bergman_fans_take_less_work(self):
        # the sharp k of the theorem and the min cut, as `check --mincut` runs them
        for m in (Matroid.uniform(4, 6), Matroid.graphic(
                [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 1)])):
            fan = bergman_fine(m)
            work, oracle_work = _descent_against_bisection(
                build_hypergraph(fan), [fan.dim - fan.lineality_dim])
            assert work < oracle_work

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_drawn_hypergraphs())
    def test_drawn_hypergraphs(self, h):
        _descent_against_bisection(h, range(1, 5))

    def test_seeded_hypergraphs(self):
        rng = random.Random(5151)
        totals = [_descent_against_bisection(_random_hypergraph(rng), range(1, 5))
                  for _ in range(300)]
        assert sum(w for w, _ in totals) < sum(w for _, w in totals)

    def test_check_decides_the_unrestricted_probe_once(self, tmp_path, monkeypatch):
        # `check --mincut` on U(4,6): is_k_connected at k = 3 decides size 2,
        # and min_facet_cut lowers its size to 2 without deciding it again
        from tropicon import cli
        path = tmp_path / "u46.json"
        assert cli.main(["gen", "bergman-uniform", "4", "6", "-o", str(path)]) == 0
        passes = []  # per pass of the engine with every facet removable, its size
        search = connectivity._Separators._search

        def counted(self, a, b, removed, r, seen):
            if (a, b, removed) == (0, 1, frozenset()) and len(self.allowed) == self.n:
                passes.append(r)
            return search(self, a, b, removed, r, seen)

        monkeypatch.setattr(connectivity._Separators, "_search", counted)
        assert cli.main(["check", str(path), "--mincut"]) == 0
        assert passes.count(2) == 1, passes

    def test_budget_overrun_stores_nothing(self):
        h = build_hypergraph(cube_normal_fan(3))
        with pytest.raises(BudgetExceeded):
            is_k_connected(h, 3, budget=5)
        assert h._decided == {}
        assert is_k_connected(h, 3).verdict and h._decided == {2: None}


# ---------------------------------------------------------------------------
# one adjacency: both deletion semantics against union-find, and the
# witness search's direct tests


class TestComponentsAgainstUnionFind:
    def test_seeded_hypergraphs(self):
        # hyperedges of one to four members, removed sets of up to four facets
        rng = random.Random(6161)
        for _ in range(400):
            n = rng.randint(1, 10)
            edges = tuple(frozenset(rng.sample(range(n), rng.randint(1, min(4, n))))
                          for _ in range(rng.randint(0, 3 * n)))
            h = FacetRidgeHypergraph(n, edges)
            assert connected_components(h) == _oracle_components(h)
            for _ in range(5):
                removed = rng.sample(range(n), rng.randint(0, min(4, n)))
                closed = _oracle_components(h, removed)
                assert connected_after_removal(h, removed) == (len(closed) <= 1)

    @pytest.mark.parametrize("fan", [
        two_planes_fan, lambda: skeleton(cube_normal_fan(3), 1),
        lambda: bergman_fine(Matroid.uniform(3, 6)),
    ], ids=["two-planes", "cube3-1-skeleton", "U(3,6)"])
    def test_every_facet_pair_of_fixtures(self, fan):
        h = build_hypergraph(fan())
        for removed in itertools.combinations(range(h.num_facets), 2):
            assert connected_after_removal(h, removed) == \
                (len(_oracle_components(h, removed)) <= 1)

    def test_adjacency_is_built_with_the_hypergraph(self):
        # smallest hyperedge first; a 1-member hyperedge reaches no facet
        h = FacetRidgeHypergraph(3, (frozenset({0, 1, 2}), frozenset({1}), frozenset({0, 2})))
        assert vars(h)["_adjacency"] == (
            ((2,), (1, 2)),
            ((0, 2),),
            ((0,), (0, 1)),
        )


class TestDirectTestsOfSmallProbes:
    @pytest.mark.parametrize("fan, k", [
        (lambda: cube_normal_fan(3), 4), (two_planes_fan, 3),
        (lambda: bergman_fine(Matroid.graphic(
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 1)])), 4),
        (lambda: bergman_fine(Matroid.uniform(4, 6)), 4),
    ], ids=["cube3", "two-planes", "C5-parallel", "U(4,6)"])
    def test_probes_of_at_most_t_plus_one_facets_run_no_engine_pass(self, fan, k, monkeypatch):
        # a refutation at k and the min cut: every probe of at most t+1
        # facets is decided by at most t+1 subset tests and no pass
        h = build_hypergraph(fan())
        probes, passes = [], []
        holds, find = connectivity._Separators._holds, connectivity._Separators.find

        def counted_holds(self, t, A):
            before = (len(passes), self.done)
            found = holds(self, t, A)
            probes.append((t, len(A), len(passes) - before[0], self.done - before[1]))
            return found

        def counted_find(self, t, allowed=None):
            passes.append(t)
            return find(self, t, allowed)

        monkeypatch.setattr(connectivity._Separators, "_holds", counted_holds)
        monkeypatch.setattr(connectivity._Separators, "find", counted_find)
        assert is_k_connected(h, k).verdict is False
        min_facet_cut(h)
        small = [(n_passes, units, t) for t, size, n_passes, units in probes if size <= t + 1]
        assert small and all(n_passes == 0 and 1 <= units <= t + 1 for n_passes, units, t in small)
        assert all(n_passes == 1 for t, size, n_passes, _ in probes if size > t + 1)


def _assert_work(call, units):
    """call(budget) runs within `units` units of work and raises
    BudgetExceeded one unit below; returns its result."""
    with pytest.raises(BudgetExceeded, match=f"^{units} units of work exceed budget {units - 1}$"):
        call(units - 1)
    return call(units)


def _after_verdict(c, k):
    """The hypergraph of c after the verdict at k, as `check --mincut` runs."""
    h = build_hypergraph(c)
    is_k_connected(h, k)
    return h


class TestCertifierWork:
    """The units of work the certifier spends, pinned through the public
    budget, so that a change to its sizing rules shows: each call runs
    within its count and raises one unit below, from the same state."""

    @pytest.mark.parametrize("name,from_file,verdict,mincut", [
        ("U(4,6)", False, 488, 639), ("U(5,7)", False, 4210, 5940),
        ("hexagon x heptagon", False, 211, 656),
        ("U(4,6)", True, 488, 639), ("U(5,7)", True, 4210, 5896),
        ("hexagon x heptagon", True, 211, 371),
    ])
    def test_verdict_then_min_cut(self, name, from_file, verdict, mincut):
        # as `check --mincut` runs them: the min cut reuses the size the
        # verdict decided (`_decided`); a file has the writer's facet order,
        # a fan in memory its constructor's
        from test_golden import HEX_HEPT
        from tropicon.fanjson import fan_from_text, fan_to_text
        from tropicon.tropical import normal_fan
        fan = {"U(4,6)": lambda: bergman_fine(Matroid.uniform(4, 6)),
               "U(5,7)": lambda: bergman_fine(Matroid.uniform(5, 7)),
               "hexagon x heptagon": lambda: normal_fan(HEX_HEPT)}[name]()
        if from_file:
            fan = fan_from_text(fan_to_text(fan))
        k = fan.dim - fan.lineality_dim
        assert _assert_work(lambda b: is_k_connected(build_hypergraph(fan), k, b), verdict).verdict
        assert _assert_work(lambda b: min_facet_cut(_after_verdict(fan, k), b), mincut)[0] == k

    def test_witness_descent_padding(self):
        # U(4,6) refuted at k = 5: the descent pads each probe with the
        # t + 2 least facets of its range (`_Separators._holds`)
        h = build_hypergraph(bergman_fine(Matroid.uniform(4, 6)))
        cert = _assert_work(lambda b: is_k_connected(_fresh(h), 5, b), 399)
        assert cert.witness == (1, 2, 4, 20)

    def test_isolation_cap(self):
        # the cube's four quadrants: removing a facet's two neighbours
        # leaves two facets (n - d >= 2), so the cap is 2
        c = cube_normal_fan(2)
        assert _assert_work(lambda b: min_facet_cut(build_hypergraph(c), b), 13) == (2, (1, 2))
        assert _assert_work(lambda b: min_facet_cut(_after_verdict(c, 2), b), 5) == (2, (1, 2))

    @pytest.mark.parametrize("h,units,cut", [
        (build_hypergraph(bergman_fine(Matroid.uniform(2, 3))), 6, (1, (0,))),
        (FacetRidgeHypergraph(4, tuple(map(frozenset, itertools.combinations(range(4), 2)))),
         10, None),
    ], ids=["tropical-line", "complete-graph"])
    def test_size_above_an_uncapped_isolation(self, h, units, cut):
        # no facet can be isolated with two left, so the search starts one
        # size above the cap (`cap + 1`)
        assert _assert_work(lambda b: min_facet_cut(_fresh(h), b), units) == cut

    def test_default_budget(self, monkeypatch):
        from tropicon import cli
        monkeypatch.delenv("TROPICON_BUDGET", raising=False)
        assert connectivity.DEFAULT_BUDGET == cli._budget() == 10 ** 7
