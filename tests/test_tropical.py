import itertools
import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import invariant_factors

from test_golden import RATIONAL_COMPLEX
from test_polyhedral import (
    _face_levels, codim1_faces, contains, fm_feasible, hrep, intersect,
)
from test_ratlin import lattice_normal_generator, saturation_basis
from test_theorem import loopless_matroids
from tropicon import polyhedral, tropical
from tropicon.connectivity import build_hypergraph, connected_components, is_k_connected
from tropicon.fanjson import fan_from_obj, fan_from_text, fan_to_obj, fan_to_text
from tropicon.matroid import Matroid, bergman_fine, contraction, proper_flats
from tropicon.polyhedral import (
    AffineHyperplane, Complex, HRep, NotInComplex, Polyhedron, _feasible_point,
    _lattice_normal, _numerators, _outside, validate_complex,
)
from tropicon.ratlin import (
    _int_kernel, _primitive_ints, dot, identity_mat, is_zero,
    lattice_complement_projection, mat, mat_vec, primitive_vector,
    subspace_canonical_basis, transpose, unit_vec, vec, zero_vec,
)
from tropicon.tropical import (
    DegenerateInput, LinealityObstruction, NotAFan, NotTransverse,
    balancing_check, check_witness_hyperplane, cube_normal_fan,
    hyperplane_section, normal_fan, quotient_by_lineality, skeleton,
    standard_tropical_plane, star, two_planes_fan, witness_hyperplane,
)

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
DIAMOND_EDGES = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]


def tropical_line():
    return Complex.from_facets(
        [Polyhedron.cone([r], ambient_dim=2) for r in ([1, 0], [0, 1], [-1, -1])])


def _reweighted(c, weights):
    """c with other weights (None: all 1), over the same pools and cells."""
    return Complex(c.ambient_dim, c.vertex_pool, c.ray_pool, c.lineality, c.cells, weights)


def same_fan(c1, c2):
    """Equality of complexes as sets of maximal cells (canonical forms)."""
    keys1 = sorted(f.canonical_key for f in c1.facet_polyhedra)
    keys2 = sorted(f.canonical_key for f in c2.facet_polyhedra)
    return c1.ambient_dim == c2.ambient_dim and keys1 == keys2


class TestComplexLinealitySpace:
    """The declared lineality of a complex against the true lineality of
    each of its facets, which the facet's record computes."""

    def test_bergman_all_ones(self):
        b = bergman_fine(Matroid.uniform(3, 4))
        assert b.lineality == (vec([1, 1, 1, 1]),)
        assert all(f.canonical_key[1] == b.lineality for f in b.facet_polyhedra)

    def test_two_planes_pointed(self):
        fan = two_planes_fan()
        assert fan.lineality == ()
        assert all(f.canonical_key[1] == () for f in fan.facet_polyhedra)

    def test_subspace_cell(self):
        # pooled without a declared lineality, the plane becomes opposite
        # ray pairs, and the record finds the plane again
        cell = Polyhedron.from_hrep(HRep(3, (), ((vec([1, -2, -2]), F(0)),)))
        V = Complex.from_facets([cell]).facet_polyhedra[0].canonical_key[1]
        assert len(V) == 2
        for v in V:
            assert v[0] == 2 * v[1] + 2 * v[2]

    def test_declared_lineality_always_inside_computed(self):
        # cells carry the declared lineality by construction; a wrong
        # declaration is caught at construction time instead (see the
        # from_facets tests)
        fan = Complex.from_facets(
            [Polyhedron.cone([[1, 0]], lineality=[[0, 1]]),
             Polyhedron.cone([[-1, 0]], lineality=[[0, 1]])],
            lineality=[[0, 1]], ambient_dim=2)
        assert all(vec([0, 1]) in f.canonical_key[1] for f in fan.facet_polyhedra)

    def test_smaller_declaration_allowed(self):
        # using less lineality than the largest possible space is legitimate
        fan = Complex.from_facets(
            [Polyhedron.cone([[1, 0]], lineality=[[0, 1]]),
             Polyhedron.cone([[-1, 0]], lineality=[[0, 1]])],
            lineality=(), ambient_dim=2)
        assert fan.lineality == ()
        assert all(f.canonical_key[1] == (vec([0, 1]),) for f in fan.facet_polyhedra)


def u34_times_a_line():
    """The Bergman fan of U(3,4) times R in R^5, the tropicalization of a
    linear space times a torus.  The line e5 is given as the rays e5 and -e5
    in every cell, not declared, so each cell's lineality is two-dimensional
    and the declared one is the all-ones line alone."""
    obj = fan_to_obj(bergman_fine(Matroid.uniform(3, 4)))
    obj["ambient_dim"] = 5
    obj["rays"] = [r + [0] for r in obj["rays"]] + [[0, 0, 0, 0, 1], [0, 0, 0, 0, -1]]
    obj["lineality"] = [l + [0] for l in obj["lineality"]]
    m = len(obj["rays"])
    for cell in obj["cells"]:
        cell["r"] = cell["r"] + [m - 2, m - 1]
    return fan_from_obj(obj)


def disjoint_lines():
    """Two disjoint lines in R^3, through the origin along e1 and through
    e3 along e2: each cell's lineality is its own line, so the lineality
    both contain is the origin alone."""
    return fan_from_obj({
        "ambient_dim": 3, "vertices": [[0, 0, 0], [0, 0, 1]],
        "rays": [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]], "lineality": [],
        "cells": [{"v": [0], "r": [0, 1]}, {"v": [1], "r": [2, 3]}], "weights": [1, 1]})


def _oracle_shared_lineality_dim(c):
    """The dimension of the meet of the cells' true lineality spaces, each
    read off its canonical key, by sympy: n minus the rank of the stacked
    orthogonal complements."""
    n = c.ambient_dim
    rows = []
    for f in c.facet_polyhedra:
        lin = f.canonical_key[1]
        rows += Matrix(lin).nullspace() if lin else [Matrix(unit_vec(i, n)) for i in range(n)]
    return n - (Matrix.hstack(*rows).rank() if rows else 0)


class TestLinealityEveryCellContains:
    """`Complex.lineality_dim` is the dimension of the lineality every cell
    contains, which a file may declare only in part."""

    def test_product_with_an_undeclared_line(self):
        c = u34_times_a_line()
        assert validate_complex(c, pairwise=True).valid
        assert balancing_check(c).balanced
        assert (c.dim, len(c.lineality), c.lineality_dim) == (4, 1, 2)
        assert is_k_connected(build_hypergraph(c), c.dim - c.lineality_dim).verdict
        q, _ = quotient_by_lineality(c)
        assert (q.dim, len(q.lineality), q.lineality_dim) == (3, 0, 1)
        assert is_k_connected(build_hypergraph(q), q.dim - q.lineality_dim).verdict
        with pytest.raises(LinealityObstruction):
            skeleton(c, 1)

    def test_disjoint_lines_share_only_the_origin(self):
        # the meet of the cells' lineality spaces, not the smallest of them
        c = disjoint_lines()
        assert validate_complex(c, pairwise=True).valid
        assert (c.dim, c.lineality_dim) == (1, 0)
        cert = is_k_connected(build_hypergraph(c), c.dim - c.lineality_dim)
        assert (cert.k, cert.verdict, cert.witness) == (1, False, ())

    def test_declared_count_takes_no_rank(self, monkeypatch):
        # in every generated fan some cell has no lineality beyond the
        # declared rows, so no rank is computed
        fans = [two_planes_fan(), standard_tropical_plane(), cube_normal_fan(3),
                bergman_fine(Matroid.uniform(4, 5)), bergman_fine(Matroid.graphic(K4_EDGES)),
                normal_fan([[0, 0, 0], [1, 1, 0], [2, 0, 1]])]
        for c in fans:
            c.facet_polyhedra
        monkeypatch.setattr(polyhedral, "matrix_rank", None)
        assert [c.lineality_dim for c in fans] == [len(c.lineality) for c in fans]
        assert fans[-1].lineality_dim == 1

    def test_against_the_meet_of_the_cells_lineality(self):
        fans = [c for _, c, _ in _section_fixtures()]
        fans += [u34_times_a_line(), disjoint_lines(), tropical_line()]
        for c in fans:
            assert c.lineality_dim == _oracle_shared_lineality_dim(c)


class TestHandBuiltFans:
    """`standard_tropical_plane` and `two_planes_fan` write their pools and
    cells directly; the oracle is one `Polyhedron.cone` per pair of rays of
    a plane, pooled by `Complex.from_facets`."""

    @staticmethod
    def by_cones(planes, n):
        facets = [Polyhedron.cone([a, b], ambient_dim=n)
                  for plane in planes for a, b in itertools.combinations(plane, 2)]
        return Complex.from_facets(facets, lineality=(), ambient_dim=n)

    @staticmethod
    def assert_same_pools(got, want):
        fields = ("ambient_dim", "vertex_pool", "ray_pool", "lineality", "cells", "weights")
        assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
        assert fan_to_text(got) == fan_to_text(want)

    def test_tropical_plane(self):
        rays = [unit_vec(i, 3) for i in range(3)] + [vec([-1, -1, -1])]
        self.assert_same_pools(standard_tropical_plane(), self.by_cones([rays], 3))

    def test_two_planes(self):
        e = [unit_vec(i, 5) for i in range(5)]
        planes = [[e[0], e[1], e[2], vec([-1, -1, -1, 0, 0])],
                  [e[0], e[3], e[4], vec([-1, 0, 0, -1, -1])]]
        self.assert_same_pools(two_planes_fan(), self.by_cones(planes, 5))


class TestQuotientByLineality:
    def test_u23_quotient(self):
        q, proj = quotient_by_lineality(bergman_fine(Matroid.uniform(2, 3)))
        assert q.ambient_dim == 2 and q.dim == 1 and q.lineality_dim == 0
        assert len(q.ray_pool) == 3 and len(q) == 3

    def test_trivial_lineality_is_identity(self):
        c = two_planes_fan()
        q, proj = quotient_by_lineality(c)
        assert q is c
        assert all(proj[i][j] == (1 if i == j else 0)
                   for i in range(5) for j in range(5))

    @pytest.mark.parametrize("m", [Matroid.uniform(2, 3), Matroid.uniform(3, 4),
                                   Matroid.graphic(K4_EDGES)],
                             ids=["u23", "u34", "k4"])
    def test_hypergraph_isomorphic(self, m):
        b = bergman_fine(m)
        q, _ = quotient_by_lineality(b)
        assert q.dim == b.dim - 1 and q.lineality_dim == 0
        h1, h2 = build_hypergraph(b), build_hypergraph(q)
        assert h1.num_facets == h2.num_facets
        # facet order is preserved, so hyperedges must agree as multisets
        assert Counter(h1.hyperedges) == Counter(h2.hyperedges)

    def test_unvalidated_fan_runs_no_double_description(self, monkeypatch):
        # the projection reads each cell's generators off the pools, so the
        # cells of a freshly loaded fan build no record
        c = fan_from_text(fan_to_text(bergman_fine(Matroid.uniform(4, 6))))
        calls = []
        real = polyhedral.dd_cone
        monkeypatch.setattr(polyhedral, "dd_cone",
                            lambda *args: calls.append(args) or real(*args))
        q, _ = quotient_by_lineality(c)
        assert calls == []
        monkeypatch.undo()
        assert (len(q), len(q.ridges), q.dim, q.lineality_dim) == (120, 150, 3, 0)

    def test_projection_is_integral_with_kernel_lineality(self):
        b = bergman_fine(Matroid.uniform(3, 4))
        _, proj = quotient_by_lineality(b)
        assert all(x.denominator == 1 for row in proj for x in row)
        assert is_zero(mat_vec(proj, vec([1, 1, 1, 1])))


class TestStar:
    def test_cube_fan_at_axis_ray(self):
        cube = cube_normal_fan(3)
        st = star(cube, Polyhedron.cone([[1, 0, 0]]))
        assert len(st) == 4 and st.dim == 2 and st.ambient_dim == 2
        assert same_fan(st, cube_normal_fan(2))

    def test_star_at_facet_is_quotient_point(self):
        cube = cube_normal_fan(3)
        st = star(cube, cube.facet_polyhedra[0])
        assert len(st) == 1 and st.ambient_dim == 0 and st.dim == 0

    def test_not_in_complex(self):
        with pytest.raises(NotInComplex):
            star(cube_normal_fan(2), Polyhedron.cone([[1, 2]]))

    def test_requires_fan(self):
        square = Complex.from_facets(
            [Polyhedron.from_vertices([[0, 0], [1, 0], [0, 1], [1, 1]])])
        with pytest.raises(NotAFan):
            star(square, Polyhedron.from_vertices([[0, 0]]))

    @pytest.mark.parametrize("m,label", [
        (Matroid.uniform(2, 3), "u23"),
        (Matroid.uniform(3, 4), "u34"),
        (Matroid.graphic(K4_EDGES), "k4"),
        (Matroid.uniform(4, 5), "u45"),
    ], ids=["u23", "u34", "k4", "u45"])
    def test_star_at_rank_one_flat_is_contraction_fan(self, m, label):
        b = bergman_fine(m)
        n = len(m.elements)
        ones = vec([1] * n)
        for flat in proper_flats(m)[1]:
            e = min(flat.elements)
            ray = vec([1 if x in flat.elements else 0 for x in m.elements])
            face = Polyhedron.cone([ray], [ones], ambient_dim=n)
            st = star(b, face)
            expected = _embedded_contraction_fan(m, e, face)
            assert same_fan(st, expected)


def _embedded_contraction_fan(m, e, face):
    """Bergman fan of M/e, embedded by ground labels and pushed through the
    same lattice projection the star uses."""
    n = len(m.elements)
    mc = contraction(m, e)
    bc = bergman_fine(mc)
    proj = lattice_complement_projection(face.direction_span, n)
    target = n - face.dim

    def embed(v):
        out = [F(0)] * n
        for x, lbl in zip(v, mc.elements):
            out[m.elements.index(lbl)] = x
        return vec(out)

    facets = []
    for f in bc.facet_polyhedra:
        rays = [mat_vec(proj, embed(r)) for r in f.rays]
        lin = [mat_vec(proj, embed(l)) for l in f.lineality]
        facets.append(Polyhedron(target, (),
                                 tuple(r for r in rays if not is_zero(r)),
                                 tuple(l for l in lin if not is_zero(l))))
    return Complex.from_facets(facets, lineality=(), ambient_dim=target)


def per_vertex_normal_fan(vertices) -> Complex:
    """The normal fan by one double description per input point: the cone
    of v is {h : h.(v - w) >= 0 for all w}, kept when it is full-dimensional
    and new, and the lineality is the kernel of the difference vectors."""
    pts = mat(vertices)
    n = len(pts[0])
    m = math.lcm(*(x.denominator for p in pts for x in p))
    ipts = [tuple(x.numerator * (m // x.denominator) for x in p) for p in pts]
    cones, seen = [], set()
    for v in ipts:
        normals = [d for w in ipts if any(d := tuple(a - b for a, b in zip(v, w)))]
        cone = Polyhedron(n, (), *polyhedral.dd_cone(normals, [], n))
        if cone.dim == n and cone.canonical_key not in seen:
            seen.add(cone.canonical_key)
            cones.append(cone)
    directions = [d for w in ipts[1:]
                  if any(d := tuple(a - b for a, b in zip(w, ipts[0])))]
    lineality = subspace_canonical_basis(
        [vec(k) for k in _int_kernel(directions)[1]] if directions else identity_mat(n))
    return Complex.from_facets(cones, lineality=lineality, ambient_dim=n)


def seeded_point_set(rng: random.Random, n: int, k: int) -> list[list[F]]:
    """Points with rational coordinates in a random affine subspace of
    dimension at most k, some of them repeated."""
    base = [F(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(n)]
    if rng.random() < 0.2:
        base = [F(0)] * n
    dirs = [[F(rng.randint(-2, 2), rng.choice([1, 2])) for _ in range(n)]
            for _ in range(k)]
    pts = [[b + sum((c * d[i] for c, d in zip(cs, dirs)), F(0))
            for i, b in enumerate(base)]
           for cs in ([rng.randint(-3, 3) for _ in range(k)]
                      for _ in range(rng.randint(1, 8)))]
    return pts + [list(p) for p in pts if rng.random() < 0.2]


# hexagon x heptagon: the product of two lattice polygons in R^4
HEX_HEPT = [p + q for p in ([2, 0], [1, 2], [-1, 2], [-2, 0], [-1, -2], [1, -2])
            for q in ([3, 0], [2, 2], [0, 3], [-2, 2], [-3, 0], [-1, -3], [2, -2])]


def assert_per_vertex_fan(points):
    """Same bytes as the per-vertex construction, and the same pools and
    cells in memory, where the order of cones and rays shows."""
    got, want = normal_fan(points), per_vertex_normal_fan(points)
    assert fan_to_text(got) == fan_to_text(want), points
    assert (got.ray_pool, got.lineality, got.cells) == \
        (want.ray_pool, want.lineality, want.cells), points


class TestNormalFanOracle:
    """`normal_fan` reads every cone off one double description of the hull;
    the per-vertex construction must give the same fan."""

    @pytest.mark.parametrize("points", [
        HEX_HEPT,
        [[0, 0], [2, 0], [0, 2], [1, 1], [F(1, 2), F(1, 2)], [2, 0]],  # interior, repeated
        [[0, 0, 0], [1, 2, 3], [2, 4, 6], [F(1, 2), 1, F(3, 2)]],  # a segment in R^3
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],  # a triangle off the origin
        [[F(-3, 2)], [F(5, 3)], [0]],  # n = 1
        [[7]], [[0]], [[0, 0, 0]], [[0, 0], [0, 0]], [[F(1, 2), -3, 2]],  # one point
    ])
    def test_fixed_point_sets(self, points):
        assert_per_vertex_fan(points)

    def test_seeded_point_sets(self):
        rng = random.Random(1995)
        for _ in range(300):
            n = rng.randint(1, 4)
            assert_per_vertex_fan(seeded_point_set(rng, n, rng.randint(0, n)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(st.fractions(-3, 3, max_denominator=3), min_size=n, max_size=n),
        min_size=1, max_size=7)))
    def test_matches_per_vertex_construction(self, pts):
        assert_per_vertex_fan(pts)

    def test_one_double_description(self, monkeypatch):
        calls = []
        real = polyhedral.dd_cone
        counted = lambda *args: calls.append(args) or real(*args)
        monkeypatch.setattr(polyhedral, "dd_cone", counted)
        # a per-vertex loop would call its own imported name: count that too
        monkeypatch.setattr(tropical, "dd_cone", counted, raising=False)
        assert len(normal_fan(HEX_HEPT)) == 42
        assert len(calls) == 1


def pooled_normal_fan(vertices) -> Complex:
    """`normal_fan` as it was built through `Complex.from_facets`: the same
    hull record, but one cone polyhedron per extreme vertex, re-pooled."""
    pts = mat(vertices)
    n = len(pts[0])
    hull = Polyhedron(n, pts)
    rec = hull._rec
    lineality = subspace_canonical_basis(rec.span_eqs)
    lin_rows = [_numerators(l) for l in lineality]
    outer = {i: _primitive_ints([-x for x in a]) for i in range(len(rec.facets))
             if _outside(a := rec.cut(i), lin_rows)}
    extreme = {mask for _, mask in rec.key_verts} if hull.dim else {rec.verts[0][1]}
    cones = []
    for _, mask in rec.verts:
        if mask in extreme:
            extreme.remove(mask)
            rays = sorted(r for i, r in outer.items() if mask >> i & 1)
            cones.append(Polyhedron._raw(n, (), tuple(tuple(map(F, r)) for r in rays),
                                        lineality))
    return Complex.from_facets(cones, lineality=lineality, ambient_dim=n)


def assert_pooled_fan(points):
    got, want = normal_fan(points), pooled_normal_fan(points)
    assert fan_to_text(got) == fan_to_text(want), points
    assert (got.ray_pool, got.lineality, got.cells, got.weights) == \
        (want.ray_pool, want.lineality, want.cells, want.weights), points


class TestNormalFanFromMasks:
    """`normal_fan` builds its complex from the hull record's masks; the
    path through one cone polyhedron per vertex and `from_facets` must give
    the same pools, cells and bytes."""

    @pytest.mark.parametrize("points", [
        HEX_HEPT,
        # non-simple vertices: the apex of a square pyramid, the octahedron
        [[0, 0, 0], [2, 0, 0], [0, 2, 0], [2, 2, 0], [1, 1, 2]],
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
        [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1]],  # in R^4
        [[0, 0], [2, 0], [0, 2], [2, 0], [0, 2], [1, 1]],  # repeated and interior
        [[0, 0, 0], [1, 2, 3], [2, 4, 6]],  # a segment: lineality of dimension 2
        [[F(1, 2), -3, 2]], [[0, 0]], [[5]],  # one point
    ])
    def test_fixed_point_sets(self, points):
        assert_pooled_fan(points)

    def test_seeded_point_sets(self):
        rng = random.Random(2023)
        for _ in range(200):
            n = rng.randint(1, 4)
            assert_pooled_fan(seeded_point_set(rng, n, rng.randint(0, n)))

    def test_builds_no_cone_polyhedra(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("normal_fan pooled cone polyhedra")
        monkeypatch.setattr(Complex, "from_facets", refuse)
        monkeypatch.setattr(Polyhedron, "_raw", refuse)
        assert len(normal_fan(HEX_HEPT)) == 42


class TestNormalFan:
    def test_cube_is_orthants(self):
        fan = cube_normal_fan(3)
        assert len(fan) == 8
        keys = {f.canonical_key for f in fan.facet_polyhedra}
        orthants = {Polyhedron.cone([[s1, 0, 0], [0, s2, 0], [0, 0, s3]]).canonical_key
                    for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)}
        assert keys == orthants

    def test_triangle(self):
        fan = normal_fan([[0, 0], [1, 0], [0, 1]])
        assert len(fan) == 3
        h = build_hypergraph(fan)
        assert all(len(e) == 2 for e in h.hyperedges)  # complete fan

    def test_segment_with_lineality(self):
        fan = normal_fan([[0, 0], [1, 0]])
        assert len(fan) == 2
        assert fan.dim == 2 and fan.lineality_dim == 1
        assert fan.lineality == (vec([0, 1]),)

    def test_non_extreme_points_skipped(self):
        fan = normal_fan([[0, 0], [2, 0], [0, 2], [1, 1], [F(1, 2), F(1, 2)]])
        assert len(fan) == 3

    def test_weights_default_one(self):
        assert set(normal_fan([[0, 0], [1, 0], [0, 1]]).weights) == {1}

    def test_no_points(self):
        with pytest.raises(ValueError, match="^at least one point required$"):
            normal_fan([])


def _ray_faces(c):
    """The rays of the fan c outside its lineality, each with the
    lineality, as cones."""
    return [Polyhedron.cone([r], c.lineality, ambient_dim=c.ambient_dim)
            for r, key in zip(c.ray_pool, c._pool[2]) if key]


def _derived_weight_fans():
    """Seeded Bergman fans and normal fans, some of these with lineality."""
    rng = random.Random(26)
    fans = [bergman_fine(m) for m in (
        Matroid.uniform(2, 4), Matroid.uniform(3, 5), Matroid.graphic(K4_EDGES),
        Matroid.graphic(DIAMOND_EDGES))]
    fans += [normal_fan(pts) for pts in (
        [[0, 0], [2, 0], [0, 1]], [[0, 0, 0], [1, 0, 0], [0, 2, 0], [1, 1, 3]],
        [[0, 0, 0], [2, 1, 0], [1, 3, 0]], [[1, 1, 1], [3, 2, 1]])]
    fans += [normal_fan(seeded_point_set(rng, 3, k)) for k in (1, 2, 3, 3)]
    return fans


class TestDerivedFanWeights:
    """`quotient_by_lineality` and `star` keep each cell's weight; what they
    return from a balanced fan must be balanced again."""

    @pytest.mark.parametrize("c", _derived_weight_fans())
    def test_quotient_is_balanced(self, c):
        assert balancing_check(c).balanced
        assert balancing_check(quotient_by_lineality(c)[0]).balanced

    @pytest.mark.parametrize("c", _derived_weight_fans())
    def test_star_at_every_ray_is_balanced(self, c):
        faces = _ray_faces(c)
        assert faces or not c.ray_pool
        for face in faces:
            assert balancing_check(star(c, face)).balanced, face.label()

    def test_heavier_weights_carry_over(self):
        c = bergman_fine(Matroid.uniform(3, 5))
        c = _reweighted(c, (3,) * len(c))
        assert set(quotient_by_lineality(c)[0].weights) == {3}
        assert set(star(c, _ray_faces(c)[0]).weights) == {3}


class TestSkeleton:
    def test_cube_2_skeleton(self):
        sk = skeleton(cube_normal_fan(3), 2)
        assert len(sk) == 12 and sk.dim == 2
        h = build_hypergraph(sk)
        assert h.num_ridges == 6
        assert all(len(e) == 4 for e in h.hyperedges)

    def test_full_skeleton_is_identity(self):
        cube = cube_normal_fan(3)
        assert skeleton(cube, 3) is cube

    def test_cube_1_skeleton(self):
        sk = skeleton(cube_normal_fan(3), 1)
        assert len(sk) == 6
        h = build_hypergraph(sk)
        assert h.num_ridges == 1 and len(h.hyperedges[0]) == 6

    def test_lineality_obstruction(self):
        b = bergman_fine(Matroid.uniform(3, 4))
        with pytest.raises(LinealityObstruction):
            skeleton(b, 0)

    def test_no_skeleton_above_the_dimension(self):
        with pytest.raises(ValueError, match=r"^need lineality dim <= k <= 3$"):
            skeleton(cube_normal_fan(3), 4)

    def test_bergman_skeleton_keeps_lineality(self):
        b = bergman_fine(Matroid.uniform(3, 4))
        sk = skeleton(b, 2)
        assert sk.lineality_dim == 1 and sk.dim == 2
        assert len(sk) == 10  # one cell per proper flat ray

    @pytest.mark.parametrize("k", [3, 2, 1])
    def test_one_double_description_per_facet(self, monkeypatch, k):
        # faces below the ridges are cut out of their cells by more of the
        # cells' own inequalities, so only the 60 facets of U(4,5) run one
        import tropicon.polyhedral as polyhedral
        from tropicon.fanjson import fan_from_text, fan_to_text
        text = fan_to_text(bergman_fine(Matroid.uniform(4, 5)))
        fan = fan_from_text(text)
        calls = []
        real = polyhedral.dd_cone
        monkeypatch.setattr(polyhedral, "dd_cone",
                            lambda *args: calls.append(args) or real(*args))
        got = fan_to_text(skeleton(fan, k))
        assert len(calls) == 60
        # the same faces as a face walk that describes every face by its own
        # double description
        monkeypatch.setattr(polyhedral, "dd_cone", real)
        fan = fan_from_text(text)
        faces = [f for f, _, _ in fan.ridges]
        for _ in range(fan.dim - 1 - k):
            faces = [f for f, _, _ in next(_face_levels(
                [Polyhedron(f.ambient_dim, f.vertices, f.rays, f.lineality)
                 for f in faces]), ())]
        assert got == fan_to_text(Complex.from_facets(
            faces, lineality=fan.lineality, ambient_dim=fan.ambient_dim))

    def test_no_rank(self, monkeypatch):
        # every face the walk makes takes its dimension from the face it was
        # cut from, and a slice from its cell, so no level and no section
        # computes an integer rank (the old rule made 172 here, and 120 in
        # the section)
        fans = [cube_normal_fan(4), bergman_fine(Matroid.uniform(4, 6))]
        calls = []
        real = polyhedral.matrix_rank
        monkeypatch.setattr(polyhedral, "matrix_rank",
                            lambda *args: calls.append(args) or real(*args))
        for fan in fans:
            for k in range(fan.lineality_dim, fan.dim + 1):
                assert len(skeleton(fan, k)) > 0
        sec = hyperplane_section(fans[1], AffineHyperplane(vec([1, 2, 4, 8, 16, 32]), F(1)))
        assert sec.pure and len(sec.section) == 120
        assert calls == []

    def test_faces_of_polyhedra_skip_empty_intersections(self):
        # the facets x = 1 and x = 2 of a slab meet nowhere, although the
        # ray (0, 1, 0) is tight on both: the slab has eight edges, and the
        # empty intersection must not pass for a ninth (the cone on that ray)
        slab = Polyhedron.from_vertices(
            [[1, 0, 1], [2, 0, 1], [1, 0, 2], [2, 0, 2]], rays=[[0, 1, 0]])
        c = Complex.from_facets([slab])
        edges = skeleton(c, 1)
        assert len(edges) == 8
        assert sorted(len(f.vertices) for f in edges.facet_polyhedra) == [1] * 4 + [2] * 4


class TestBalancing:
    def test_tropical_line_balanced(self):
        report = balancing_check(tropical_line())
        assert report.balanced and len(report.entries) == 1

    def test_weighted_line_unbalanced_with_residual(self):
        report = balancing_check(
            _reweighted(tropical_line(), (1, 1, 2)))
        assert not report.balanced
        failing = report.failing()
        assert len(failing) == 1
        assert failing[0].residual == vec([-1, -1])

    def test_two_planes_balanced_at_all_seven_ridges(self):
        report = balancing_check(two_planes_fan())
        assert report.balanced and len(report.entries) == 7

    @pytest.mark.parametrize("m", [Matroid.uniform(2, 3), Matroid.uniform(3, 4),
                                   Matroid.graphic(K4_EDGES)],
                             ids=["u23", "u34", "k4"])
    def test_bergman_fans_balanced(self, m):
        assert balancing_check(bergman_fine(m)).balanced

    def test_complete_fans_balanced(self):
        for fan in (cube_normal_fan(3), normal_fan([[0, 0], [3, 1], [1, 3]])):
            assert balancing_check(fan).balanced

    def test_random_polytope_normal_fan_balanced(self):
        rng = random.Random(808)
        pts = [[F(rng.randint(-5, 5), rng.randint(1, 2)) for _ in range(3)]
               for _ in range(6)]
        fan = normal_fan(pts)
        assert fan.dim == 3
        assert balancing_check(fan).balanced

    def test_one_double_description_per_facet(self, monkeypatch):
        # ridges and lattice normals are read off the facets' own facet
        # descriptions, so only the facets run a double description
        import tropicon.polyhedral as polyhedral
        from tropicon.fanjson import fan_from_text, fan_to_text
        fan = fan_from_text(fan_to_text(bergman_fine(Matroid.uniform(3, 6))))
        calls = []
        real = polyhedral.dd_cone
        monkeypatch.setattr(polyhedral, "dd_cone",
                            lambda *args: calls.append(args) or real(*args))
        build_hypergraph(fan)
        assert balancing_check(fan).balanced
        assert len(fan) == 30 and len(calls) == 30

    def test_lattice_normals_from_the_recorded_cut(self, monkeypatch):
        # balancing reads each facet inequality off the ridge walk and
        # proves no incidence again; the normals are those taken after
        # proving it.  Both sides take the same `_lattice_normal`; its
        # oracle is the Smith path in test_integer_record.py
        import tropicon.polyhedral as polyhedral
        fans = [bergman_fine(Matroid.uniform(3, 5)), cube_normal_fan(3),
                tropical_line(), two_planes_fan()]
        for fan in fans:
            for tau, fids, cuts in fan.ridges:
                for fid, k in zip(fids, cuts):
                    sigma = fan.facet_polyhedra[fid]
                    a, _ = hrep(sigma).inequalities[k]
                    assert _lattice_normal(sigma, a) == \
                        lattice_normal_generator(sigma, tau)
        monkeypatch.setattr(polyhedral, "is_face_of", None)
        for fan in fans:
            assert balancing_check(fan).balanced

    def test_verdict_independent_of_normal_representative(self):
        # shifting a lattice normal by a ridge-span vector keeps the sum's
        # class unchanged; check by balancing the same fan twice through
        # different but equal-weight presentations
        line = tropical_line()
        r1 = balancing_check(_reweighted(line, (1, 1, 1)))
        r2 = balancing_check(_reweighted(line, (2, 2, 2)))
        assert r1.balanced and r2.balanced


class TestHyperplaneSection:
    def test_tropical_plane_slice(self):
        sec = hyperplane_section(standard_tropical_plane(),
                                 AffineHyperplane(vec([1, 2, 4]), F(1)))
        assert len(sec.section) == 6
        assert sec.pure and sec.section.dim == 1
        h = build_hypergraph(sec.section)
        assert h.num_ridges == 3
        assert all(len(e) == 3 for e in h.hyperedges)
        assert len(connected_components(h)) == 1
        bounded = [f for f in sec.section.facet_polyhedra if not f.rays]
        assert len(bounded) == 3  # three segments, three unbounded rays

    def test_two_planes_slice_disconnects(self):
        sec = hyperplane_section(two_planes_fan(),
                                 AffineHyperplane(vec([1, 0, 0, 0, 0]), F(-1)))
        assert len(sec.section) == 6
        comps = connected_components(build_hypergraph(sec.section))
        assert len(comps) == 2

    def test_origin_hyperplane_not_transverse(self):
        with pytest.raises(NotTransverse):
            hyperplane_section(standard_tropical_plane(),
                               AffineHyperplane(vec([1, 2, 4]), F(0)))

    def test_span_in_hyperplane_not_transverse(self):
        square = Complex.from_facets(
            [Polyhedron.from_vertices([[0, 0], [1, 0], [0, 1], [1, 1]])])
        with pytest.raises(NotTransverse):
            # contains the affine span of the bottom edge (and its vertices)
            hyperplane_section(square, AffineHyperplane(vec([0, 1]), F(0)))

    def test_missing_hyperplane_gives_empty_section(self):
        square = Complex.from_facets(
            [Polyhedron.from_vertices([[0, 0], [1, 0], [0, 1], [1, 1]])])
        sec = hyperplane_section(square, AffineHyperplane(vec([1, 0]), F(3)))
        assert len(sec.section) == 0

    def test_provenance_and_ridge_structure(self):
        c = standard_tropical_plane()
        H = AffineHyperplane(vec([1, 2, 4]), F(1))
        sec = hyperplane_section(c, H)
        assert len(sec.facet_provenance) == len(sec.section)
        source_facets = c.facet_polyhedra
        for sid, fid in enumerate(sec.facet_provenance):
            assert contains(source_facets[fid], sec.section.facet_polyhedra[sid])
        # every section ridge is the slice of a source ridge
        source_ridges = {r.canonical_key: r
                         for f in source_facets for r in codim1_faces(f)}
        sliced = set()
        for r in source_ridges.values():
            piece = intersect(r, _hyperplane_polyhedron(H))
            if piece is not None:
                sliced.add(piece.canonical_key)
        for f in sec.section.facet_polyhedra:
            for ridge in codim1_faces(f):
                assert ridge.canonical_key in sliced

    def test_section_weights_inherited(self):
        c = Complex.from_facets(
            [Polyhedron.cone([r], ambient_dim=2) for r in ([1, 0], [0, 1], [-1, -1])],
            weights=(5, 7, 11))
        sec = hyperplane_section(c, AffineHyperplane(vec([1, 1]), F(1)))
        # the (-1,-1) ray misses the slice; (1,1) takes the value 1 on the
        # other rays, so they meet it with multiplicity one
        assert sec.section.weights == (5, 7)


def _hyperplane_polyhedron(H):
    return Polyhedron.from_hrep(
        HRep(len(H.normal), (), ((H.normal, H.offset),)))


# ---------------------------------------------------------------------------
# the generator-sign section against the feasibility and face-walk reference


def _reference_section(c, H, faces):
    """Section by the feasibility and face-walk path.  H is not transverse
    when it contains the affine span of one of `faces` (every face of c,
    from the facets down); a facet is sliced when the Fourier-Motzkin oracle
    finds its relative interior meets H."""
    n = c.ambient_dim
    for face in faces:
        base = face.vertices[0] if face.vertices else zero_vec(n)
        if H.value(base) == 0 and \
                all(dot(H.normal, d) == 0 for d in face.direction_span):
            raise NotTransverse("hyperplane contains the affine span of a face")
    slices, provenance = [], []
    for i, f in enumerate(c.facet_polyhedra):
        h = hrep(f)
        cons = [(a, b, ">") for a, b in h.inequalities]
        cons += [(a, b, "=") for a, b in h.equations]
        cons.append((H.normal, H.offset, "="))
        if not fm_feasible(n, cons):
            continue
        slices.append(Polyhedron.from_hrep(
            HRep(n, h.inequalities, h.equations + ((H.normal, H.offset),))))
        provenance.append(i)
    vals = [dot(H.normal, l) for l in c.lineality]
    pivot = next((i for i, v in enumerate(vals) if v != 0), None)
    lin = c.lineality if pivot is None else [
        primitive_vector(tuple(a - v / vals[pivot] * b for a, b in zip(l, c.lineality[pivot])))
        for i, (l, v) in enumerate(zip(c.lineality, vals)) if i != pivot]
    section = Complex.from_facets(slices, lineality=lin, ambient_dim=n,
                                  weights=section_weights(c, H, provenance))
    return section, tuple(provenance), all(p.dim == c.dim - 1 for p in slices)


def _section_fixtures():
    """(name, complex, hyperplane count): fans, complexes with vertices,
    extra lineality encoded as opposite rays, and redundant generators."""
    cone, poly = Polyhedron.cone, Polyhedron.from_vertices
    e3 = [[0, 0, 1]]
    plane_rays = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]
    line_rays = [[1, 0, 0], [0, 1, 0], [-1, -1, 0]]
    return [
        ("tropical-plane", standard_tropical_plane(), 40),
        ("two-planes", two_planes_fan(), 25),
        ("U(3,6)", bergman_fine(Matroid.uniform(3, 6)), 15),
        ("U(4,5)", bergman_fine(Matroid.uniform(4, 5)), 6),
        ("M(K4)", bergman_fine(Matroid.graphic(K4_EDGES)), 10),
        ("cube3", cube_normal_fan(3), 30),
        ("plane-slice", hyperplane_section(
            standard_tropical_plane(), AffineHyperplane(vec([1, 2, 4]), F(1))
        ).section, 30),
        ("polytopes", Complex.from_facets([
            poly([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]),
            poly([[0, 0, 0], [1, 0, 0], [0, 0, 1], [1, 0, 1]]),
            poly([[1, 0, 0], [1, 1, 0], [2, 0, 1]])]), 30),
        ("opposite-rays", Complex.from_facets(
            [cone([r], lineality=e3, ambient_dim=3) for r in line_rays]), 30),
        ("unbounded", Complex.from_facets(
            [poly([[1, -1, 2]], rays=[a, b])
             for i, a in enumerate(plane_rays) for b in plane_rays[i + 1:]]), 30),
        ("unbounded-lineality", Complex.from_facets(
            [poly([[1, 2, 0]], rays=[r], lineality=e3) for r in line_rays]
            + [poly([[1, 2, 0], [3, 2, 0]], rays=[[0, 1, 0]], lineality=e3)],
            lineality=e3), 30),
        ("redundant", Complex.from_facets([
            cone([[1, 0], [1, 1], [0, 1]]), cone([[0, 1], [-1, 1], [-1, 0]]),
            cone([[-1, 0], [0, -1]]), cone([[0, -1], [1, -1], [1, 0], [2, -1]])]),
         30),
        ("redundant-polytopes", Complex.from_facets([
            poly([[0, 0], [2, 0], [0, 2], [2, 2], [1, 1], [1, 0]]),
            poly([[2, 0], [4, 0], [2, 2], [4, 2], [2, 1]])]), 30),
    ]


def _random_hyperplane(rng, c):
    """Small integer normal; the offset is zero, the value at a pool vertex,
    or a small rational.  Some normals are made orthogonal to the all-ones
    vector, so that they are parallel to a Bergman fan's lineality."""
    n = c.ambient_dim
    normal = [0] * n
    while not any(normal):
        normal = [rng.randint(-3, 3) for _ in range(n)]
        if rng.random() < 0.3:
            normal[-1] = -sum(normal[:-1])
    roll = rng.random()
    if roll < 0.2:
        offset = F(0)
    elif roll < 0.4 and c.vertex_pool:
        offset = dot(vec(normal), rng.choice(c.vertex_pool))
    else:
        offset = F(rng.randint(-4, 4), rng.randint(1, 3))
    return AffineHyperplane(vec(normal), offset)


class TestSectionAgainstLPReference:
    def test_agrees_with_reference(self):
        rng = random.Random(8)
        pairs = raised = sliced = 0
        for name, c, count in _section_fixtures():
            faces = list(c.facet_polyhedra)
            for level in _face_levels(c.facet_polyhedra):
                faces += [face for face, _, _ in level]
            for _ in range(count):
                H = _random_hyperplane(rng, c)
                pairs += 1
                try:
                    expected = _reference_section(c, H, faces)
                except NotTransverse:
                    with pytest.raises(NotTransverse):
                        hyperplane_section(c, H)
                    raised += 1
                    continue
                got = hyperplane_section(c, H)
                section, provenance, pure = expected
                assert fan_to_text(got.section) == fan_to_text(section), (name, H)
                assert got.section.weights == section.weights, (name, H)
                assert (got.facet_provenance, got.pure) == (provenance, pure), \
                    (name, H)
                sliced += len(got.section) > 0
        assert pairs >= 300 and raised >= 30 and sliced >= 150

    def test_no_lp_and_no_face_walk(self, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        level_below = polyhedral._level_below
        for module in (polyhedral, tropical):
            monkeypatch.setattr(module, "_feasible_point",
                                counted("_feasible_point", _feasible_point))
            monkeypatch.setattr(module, "_level_below", counted("_level_below", level_below))
        for name, c, _ in _section_fixtures():
            sec = hyperplane_section(c, AffineHyperplane(
                vec([3 ** i for i in range(c.ambient_dim)]), F(1, 7)))
            assert len(sec.section) > 0, name
        with pytest.raises(NotTransverse):
            hyperplane_section(standard_tropical_plane(),
                               AffineHyperplane(vec([1, 2, 4]), F(0)))
        assert calls == Counter()


# ---------------------------------------------------------------------------
# the one-pass section against a transversality pass plus a sign test


def _two_pass_section(c, H):
    """The section in two passes over the cells: transversality first, on
    each cell's canonical vertices and true lineality, then a sign test on
    the generators the cell was given, lineality in both directions."""
    n = c.ambient_dim
    for f in c.facet_polyhedra:
        lin = f.canonical_key[1]
        if any(dot(H.normal, l) != 0 for l in lin):
            continue
        _, _, verts, _ = f.canonical_key
        for v in verts or (zero_vec(n),):
            if H.value(v) == 0:
                face = Polyhedron(n, (v,), (), lin)
                raise NotTransverse(f"hyperplane contains {face.label()}, a face of a cell")
    slices, provenance = [], []
    for i, f in enumerate(c.facet_polyhedra):
        vals = [H.value(v) for v in f.vertices or (zero_vec(n),)]
        vals += [dot(H.normal, r) for r in f.rays]
        vals += [s * dot(H.normal, l) for l in f.lineality for s in (1, -1)]
        if not min(vals) < 0 < max(vals):
            continue
        h = hrep(f)
        slices.append(Polyhedron.from_hrep(
            HRep(n, h.inequalities, h.equations + ((H.normal, H.offset),))))
        provenance.append(i)
    _, coeffs = _int_kernel([[dot(H.normal, l) for l in c.lineality]])
    lin = [mat_vec(transpose(c.lineality), vec(ks)) for ks in coeffs]
    section = Complex.from_facets(slices, lineality=lin, ambient_dim=n,
                                  weights=section_weights(c, H, provenance))
    return section, tuple(provenance), all(p.dim == c.dim - 1 for p in slices)


def _invariant_factors(rows):
    m = Matrix([[int(x) for x in r] for r in rows])
    return tuple(int(x) for x in invariant_factors(m, domain=ZZ))


def smith_index(f, normal):
    """[Z^n : L + (h^perp ∩ Z^n)] for the saturated lattice L of the cell f
    and the normal h: the product of the invariant factors, by sympy, of a
    basis of L stacked on a basis of h^perp ∩ Z^n.  Both bases are checked
    to have the right rank and to be saturated (invariant factors all 1)."""
    n = f.ambient_dim
    perp = [vec(k) for k in _int_kernel([normal])[1]]
    bases = [list(saturation_basis(f.direction_span, n)), list(saturation_basis(perp, n))]
    for basis, rank in zip(bases, (len(f.direction_span), n - 1)):
        assert len(basis) == rank and _invariant_factors(basis) == (1,) * rank
    return math.prod(_invariant_factors(bases[0] + bases[1]))


def section_weights(c, H, provenance):
    """The weights of the section's cells: the source weight times the
    multiplicity of the transverse intersection, by an independent index."""
    return tuple(c.weights[i] * smith_index(c.facet_polyhedra[i], H.normal)
                 for i in provenance)


def assert_one_pass_section(c, H):
    """`hyperplane_section` gives the two-pass section, or raises the same
    NotTransverse, or the same ValueError when two slices pool to identical
    cells; returns whether it raised."""
    try:
        section, provenance, pure = _two_pass_section(c, H)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            hyperplane_section(c, H)
        assert (type(got.value), str(got.value)) == (type(e), str(e))
        return True
    got = hyperplane_section(c, H)
    assert fan_to_text(got.section) == fan_to_text(section), H
    assert (got.section.lineality, got.section.weights) == \
        (section.lineality, section.weights), H
    assert (got.facet_provenance, got.pure) == (provenance, pure), H
    return False


@st.composite
def _drawn_fans(draw):
    """Fans whose cells are arbitrary sets of small rays, so cells list
    non-extreme rays, pooled (`Complex.pooled`): rays inside the lineality
    drop out and rays equal modulo it merge; sets that then coincide are
    rejected."""
    n = draw(st.integers(1, 3))
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(
        lambda r: math.gcd(*r) == 1)
    lineality = draw(st.lists(row, max_size=1))
    rays = draw(st.lists(row, min_size=1, max_size=5, unique_by=tuple))
    cell = st.lists(st.integers(0, len(rays) - 1), unique=True, max_size=len(rays))
    cells = draw(st.lists(cell, min_size=1, max_size=4, unique_by=frozenset))
    try:
        return Complex.pooled(n, (), tuple(map(vec, rays)), tuple(map(vec, lineality)),
                              [((), r) for r in cells])
    except ValueError as e:  # two cells pool to one set
        assert str(e).endswith(" are identical"), e
        assume(False)


def _drawn_hyperplanes(n):
    normal = st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any)
    offset = st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(-5, 3)])
    return st.builds(lambda a, b: AffineHyperplane(vec(a), b), normal, offset)


class TestOnePassSection:
    """One pass over the canonical generators decides transversality and
    slicing as the transversality pass plus the sign test did."""

    def test_fixtures(self):
        rng = random.Random(23)
        fixtures = _section_fixtures() + [
            ("rational", fan_from_obj(RATIONAL_COMPLEX), 40)]
        pairs = raised = 0
        for name, c, count in fixtures:
            for _ in range(count):
                raised += assert_one_pass_section(c, _random_hyperplane(rng, c))
                pairs += 1
        assert pairs >= 300 and raised >= 30

    def test_u46_through_the_origin(self):
        # h.x = 0 misses the all-ones lineality, so every slice is a cone,
        # and it equals the from_hrep slice of the cell's facet description
        c = bergman_fine(Matroid.uniform(4, 6))
        H = AffineHyperplane(vec([1, 2, 4, 8, 16, 32]), F(0))
        assert not assert_one_pass_section(c, H)
        s = hyperplane_section(c, H).section
        assert (s.vertex_pool, len(s), len(s.ridges)) == ((), 120, 150)

    def test_messages_name_the_first_face(self):
        c = standard_tropical_plane()
        with pytest.raises(NotTransverse, match=r"^hyperplane contains origin, a face of a cell$"):
            hyperplane_section(c, AffineHyperplane(vec([1, 2, 4]), F(0)))
        square = Complex.from_facets(
            [Polyhedron.from_vertices([[0, 0], [1, 0], [0, 1], [1, 1]])])
        assert assert_one_pass_section(square, AffineHyperplane(vec([0, 1]), F(1)))
        assert assert_one_pass_section(fan_from_obj(RATIONAL_COMPLEX),
                                       AffineHyperplane(vec([0, 0, 2]), F(1)))

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_drawn_fans(self, data):
        c = data.draw(_drawn_fans())
        assert_one_pass_section(c, data.draw(_drawn_hyperplanes(c.ambient_dim)))

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_bergman_fans(self, data):
        c = bergman_fine(data.draw(loopless_matroids()))
        assert_one_pass_section(c, data.draw(_drawn_hyperplanes(c.ambient_dim)))


class TestSectionMultiplicities:
    """A slice weighs its source weight times the multiplicity of the
    transverse intersection, so sections of balanced fans are balanced."""

    def test_tropical_plane_by_2_3_7(self):
        sec = hyperplane_section(standard_tropical_plane(),
                                 AffineHyperplane(vec([2, 3, 7]), F(1)))
        assert sec.section.weights == (1, 1, 2, 1, 3, 1)
        assert balancing_check(sec.section).balanced
        assert not balancing_check(_reweighted(sec.section, None)).balanced

    def test_u35_by_1_2_3_4_6(self):
        c = bergman_fine(Matroid.uniform(3, 5))
        sec = hyperplane_section(c, AffineHyperplane(vec([1, 2, 3, 4, 6]), F(1)))
        assert Counter(sec.section.weights) == Counter({1: 14, 2: 6})
        assert balancing_check(sec.section).balanced
        assert not balancing_check(_reweighted(sec.section, None)).balanced

    def test_seeded_bergman_sections_balance(self):
        rng = random.Random(56)
        fans = [(bergman_fine(Matroid.uniform(3, 5)), 12),
                (bergman_fine(Matroid.uniform(4, 6)), 3),
                (bergman_fine(Matroid.graphic(DIAMOND_EDGES)), 12),
                (bergman_fine(Matroid.graphic(K4_EDGES)), 12)]
        sections = heavier = 0
        for c, count in fans:
            while count:
                normal = [rng.randint(-3, 3) for _ in range(c.ambient_dim)]
                if not any(normal):
                    continue
                H = AffineHyperplane(vec(normal), F(rng.choice([1, -1, 2]), rng.choice([1, 2])))
                try:
                    sec = hyperplane_section(c, H)
                except NotTransverse:
                    continue
                count -= 1
                sections += 1
                assert sec.section.weights == \
                    section_weights(c, H, sec.facet_provenance), H
                assert balancing_check(sec.section).balanced, H
                heavier += max(sec.section.weights, default=1) > 1
        assert sections == 39 and heavier >= 10


class TestWitnessHyperplane:
    def test_tropical_line_triple(self):
        P = Polyhedron.cone([[1, 0]])
        Q = Polyhedron.cone([[0, 1]])
        Fc = Polyhedron.cone([[-1, -1]])
        H = witness_hyperplane(P, Q, Fc)
        assert H is not None
        assert check_witness_hyperplane(P, Q, Fc, H)

    def test_interval_triple_has_no_witness(self):
        P = Polyhedron.from_vertices([[0], [1]])
        Fc = Polyhedron.from_vertices([[1], [2]])
        Q = Polyhedron.from_vertices([[2], [3]])
        assert witness_hyperplane(P, Q, Fc) is None

    def test_two_planes_triple(self):
        P = Polyhedron.cone([[0, 1, 0, 0, 0], [0, 0, 1, 0, 0]])
        Q = Polyhedron.cone([[0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
        Fc = Polyhedron.cone([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]])
        H = witness_hyperplane(P, Q, Fc)
        assert H is not None
        assert check_witness_hyperplane(P, Q, Fc, H)

    def test_feasibility_calls_of_criterion_8(self, monkeypatch):
        # the search tries F above H only and pairs no generator with
        # itself: 18 calls find the two-planes witness, 7 settle the
        # interval triple
        calls = []
        real = tropical._feasible_point
        monkeypatch.setattr(tropical, "_feasible_point",
                            lambda *args: calls.append(args) or real(*args))
        H = witness_hyperplane(Polyhedron.cone([[0, 1, 0, 0, 0], [0, 0, 1, 0, 0]]),
                               Polyhedron.cone([[0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]),
                               Polyhedron.cone([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]]))
        assert (H.normal, H.offset, len(calls)) == (vec([0, 0, -1, -1, 0]), F(-1), 18)
        calls.clear()
        assert witness_hyperplane(Polyhedron.from_vertices([[0], [1]]),
                                  Polyhedron.from_vertices([[2], [3]]),
                                  Polyhedron.from_vertices([[1], [2]])) is None
        assert len(calls) == 7

    @pytest.mark.parametrize("P, Q, Fc, expected", [
        # F's lineality must be parallel to H: every line through both
        # points meets F
        (Polyhedron.from_vertices([[0, 0]]), Polyhedron.from_vertices([[5, -1]]),
         Polyhedron.from_vertices([[0, 1]], lineality=[[1, 0]]), None),
        # only h.l < 0 for P's lineality l puts F above H
        (Polyhedron.cone([], lineality=[[1]], ambient_dim=1), Polyhedron.from_vertices([[2]]),
         Polyhedron.from_vertices([[0]]), ([-1], -2)),
        # h.l = 0 would miss P: its lineality mode is strict
        (Polyhedron.from_vertices([[0, 5]], lineality=[[1, 0]]),
         Polyhedron.from_vertices([[0, 0]]), Polyhedron.from_vertices([[0, 1]]), ([1, 1], 0)),
        # P inside H holds H parallel to P's lineality
        (Polyhedron.cone([], lineality=[[1, 0]]), Polyhedron.from_vertices([[0, 0]]),
         Polyhedron.from_vertices([[1, 1]]), ([0, 1], 0)),
    ], ids=["F-line", "P-line", "P-affine-line", "P-inside-H"])
    def test_cells_with_lineality(self, P, Q, Fc, expected):
        H = witness_hyperplane(P, Q, Fc)
        if expected is None:
            assert H is None
        else:
            assert (H.normal, H.offset) == (vec(expected[0]), expected[1])
            assert check_witness_hyperplane(P, Q, Fc, H)

    def test_witness_failing_the_check_raises(self, monkeypatch):
        monkeypatch.setattr(tropical, "check_witness_hyperplane", lambda *args: False)
        with pytest.raises(AssertionError, match="failed the independent check"):
            witness_hyperplane(Polyhedron.cone([[1, 0]]), Polyhedron.cone([[0, 1]]),
                               Polyhedron.cone([[-1, -1]]))

    def test_handpicked_witness_passes_checker(self):
        P = Polyhedron.cone([[0, 1, 0, 0, 0], [0, 0, 1, 0, 0]])
        Q = Polyhedron.cone([[0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
        Fc = Polyhedron.cone([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]])
        H = AffineHyperplane(vec([0, 1, -1, 1, -1]), F(-1))
        assert check_witness_hyperplane(P, Q, Fc, H)

    def test_degenerate_inputs_rejected(self):
        P = Polyhedron.cone([[1, 0]])
        Q = Polyhedron.cone([[0, 1]])
        with pytest.raises(DegenerateInput):
            witness_hyperplane(P, P, Q)
        with pytest.raises(DegenerateInput):
            witness_hyperplane(P, Q, P)

    def test_random_cone_triples_verified(self):
        rng = random.Random(4242)
        found = 0
        for _ in range(25):
            cells = []
            while len(cells) < 3:
                r = [rng.randint(-3, 3) for _ in range(3)]
                if any(r):
                    p = Polyhedron.cone([r])
                    if all(p.canonical_key != q.canonical_key for q in cells):
                        cells.append(p)
            P, Q, Fc = cells
            H = witness_hyperplane(P, Q, Fc)
            if H is not None:
                found += 1
                assert check_witness_hyperplane(P, Q, Fc, H)
        assert found > 0

    @staticmethod
    def _oracle_finds_witness(P, Q, Fc):
        """Whether some pair of modes, one meeting relint(P) and one
        relint(Q), is feasible with Fc strictly on either side, by the
        Fourier-Motzkin oracle over the search's own constraint families:
        the rows of `_side_constraints` negated put Fc strictly below, so a
        witness found only there would break the search's one-sided claim."""
        n = P.ambient_dim
        above = tropical._side_constraints(Fc)
        below = [(tuple(-x for x in a), -b, rel) for a, b, rel in above]
        pairs = list(itertools.product(tropical._meet_relint_modes(P),
                                       tropical._meet_relint_modes(Q)))
        return any(fm_feasible(n + 1, side + mp + mq)
                   for side in (above, below) for mp, mq in pairs)

    @pytest.mark.parametrize("family", ["cones", "polyhedra"])
    def test_verdicts_match_oracle_search(self, family):
        """`witness_hyperplane` returns a hyperplane exactly when the
        oracle finds a feasible mode pair, so its None verdicts are checked
        too: cones of one or two rays in R^2 and R^3, and polyhedra of one
        or two vertices plus at most one ray in R^1 and R^2."""
        rng = random.Random(7 if family == "cones" else 8)

        def vector(n):
            while not any(v := [rng.randint(-3, 3) for _ in range(n)]):
                pass
            return v

        def cell(n):
            if family == "cones":
                return Polyhedron.cone([vector(n) for _ in range(rng.randint(1, 2))],
                                       ambient_dim=n)
            pts = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, 2))]
            rays = [vector(n) for _ in range(rng.randint(0, 1))]
            return Polyhedron.from_vertices(pts, rays, ambient_dim=n)

        verdicts = Counter()
        for _ in range(60):
            n = rng.choice((2, 3) if family == "cones" else (1, 2))
            cells = []
            while len(cells) < 3:
                p = cell(n)
                if all(p.canonical_key != q.canonical_key for q in cells):
                    cells.append(p)
            P, Q, Fc = cells
            H = witness_hyperplane(P, Q, Fc)
            assert (H is not None) == self._oracle_finds_witness(P, Q, Fc), cells
            assert H is None or check_witness_hyperplane(P, Q, Fc, H)
            verdicts[H is not None] += 1
        assert verdicts[True] >= 5 and verdicts[False] >= 5, verdicts

    def test_cells_of_different_dimensions_rejected(self):
        P, Fc = Polyhedron.cone([[1, 0]]), Polyhedron.cone([[-1, -1]])
        with pytest.raises(ValueError, match="length mismatch"):
            witness_hyperplane(P, Polyhedron.cone([[0, 1, 0]]), Fc)

    def test_hyperplane_of_another_dimension_rejected(self):
        P, Q = Polyhedron.cone([[1, 0]]), Polyhedron.cone([[0, 1]])
        H = AffineHyperplane(vec([1, 1, 1]), F(1))
        with pytest.raises(ValueError, match="length mismatch"):
            check_witness_hyperplane(P, Q, Polyhedron.cone([[-1, -1]]), H)


class TestSharpness:
    """Minimum cuts meet the dimension-minus-lineality bound exactly on
    fans whose facets are simplicial."""

    @pytest.mark.parametrize("fan,expected", [
        (bergman_fine(Matroid.uniform(2, 3)), 1),
        (bergman_fine(Matroid.uniform(3, 4)), 2),
        (cube_normal_fan(3), 3),
        (skeleton(cube_normal_fan(3), 2), 2),
    ], ids=["u23", "u34", "cube", "cube-2-skel"])
    def test_cut_equals_bound(self, fan, expected):
        from tropicon.connectivity import min_facet_cut
        assert fan.dim - fan.lineality_dim == expected
        size, _ = min_facet_cut(build_hypergraph(fan))
        assert size == expected
