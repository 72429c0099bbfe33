"""The integer cell record against the Fraction computations it replaced.

Every `Polyhedron` reads its dimension, true lineality, extreme generators,
faces, membership and lattice off one integer record (`Polyhedron._rec`),
and balancing tests span membership with integer dot products.  The
Fraction versions below are kept here as oracles: the rank test of double
description for extremality, the generator elimination `direction_span`
ran before it read the record's lattice, for spans and dimensions,
dot-product tightness for faces and `reduce_mod_subspace` for balancing.
They run on seeded cones, polytopes and polyhedra with lineality, with
repeated, scaled and redundant generators and with rays inside the
lineality.
"""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction as F
from operator import mul

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from test_golden import HEX_HEPT, RATIONAL_COMPLEX
from test_polyhedral import (
    TestCanonicalFormAgainstLP, _face_levels, codim1_faces, face_by_mask, hrep, intersect,
    oracle_fit_issues, oracle_is_face_of,
)
from test_ratlin import lattice_normal_generator
from test_tropical import _reweighted, _section_fixtures
from tropicon import polyhedral
from tropicon.fanjson import fan_from_obj, fan_from_text, fan_to_text
from tropicon.matroid import Matroid, bergman_fine
from tropicon.polyhedral import (
    AffineHyperplane, Complex, Polyhedron, _face, _lattice_normal, is_face_of, validate_complex,
)
from tropicon.ratlin import (
    _int_kernel, _int_reduce, _int_row, _primitive, _primitive_ints, identity_mat, is_zero,
    matrix_rank, neg, primitive_vector, reduce_mod_subspace, subspace_canonical_basis, vec,
    zero_vec,
)
from tropicon.tropical import (
    balancing_check, cube_normal_fan, hyperplane_section, normal_fan, skeleton,
    standard_tropical_plane, two_planes_fan,
)


# ---------------------------------------------------------------------------
# Fraction oracles


def _dot(u, v):
    return sum((F(a) * F(b) for a, b in zip(u, v)), F(0))


def _rank(rows):
    return sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows]).rank() \
        if rows else 0


def _oracle_lineality(p):
    """The kernel of every facet and equation normal."""
    h = hrep(p)
    normals = [a for a, _ in h.inequalities] + [a for a, _ in h.equations]
    if not normals:
        return subspace_canonical_basis(identity_mat(p.ambient_dim))
    return subspace_canonical_basis([vec(k) for k in _int_kernel(normals)[1]])


def _oracle_direction_span(p):
    """The generator elimination `Polyhedron.direction_span` ran before it
    read the record's lattice: the canonical basis of the rays, the
    lineality and the differences of the vertices."""
    gens = list(p.rays) + list(p.lineality)
    gens += [tuple(a - b for a, b in zip(v, p.vertices[0])) for v in p.vertices[1:]]
    return subspace_canonical_basis(gens)


def _oracle_canonical_key(p):
    """Extremality by the rank test: with L the true lineality, a ray is
    extreme when the equation normals and the inequality normals vanishing
    on it have rank n - dim L - 1, and a vertex when those tight at it have
    rank n - dim L."""
    h = hrep(p)
    n = p.ambient_dim
    lin = _oracle_lineality(p)
    full = n - len(lin)

    def tight_rank(x, point):
        rows = [a for a, _ in h.equations]
        rows += [a for a, b in h.inequalities if _dot(a, x) == (b if point else 0)]
        return _rank(rows)

    verts = {reduce_mod_subspace(v, lin) for v in p.vertices}
    rays = {primitive_vector(r2) for r in p.rays
            if not is_zero(r2 := reduce_mod_subspace(r, lin))}
    verts = sorted(v for v in verts if tight_rank(v, True) == full)
    rays = sorted(r for r in rays if tight_rank(r, False) == full - 1)
    if verts == [zero_vec(n)]:
        verts = []
    return (n, lin, tuple(verts), tuple(rays))


def _oracle_face_key(p, tight):
    """The face of p cut out by the inequalities `tight`, by dot products
    on p's canonical generators, or None when it is empty."""
    n, lin, all_verts, rays = p.canonical_key
    verts = tuple(v for v in all_verts if all(_dot(a, v) == b for a, b in tight))
    if all_verts and not verts:
        return None
    rays = tuple(r for r in rays if all(_dot(a, r) == 0 for a, _ in tight))
    if verts == (zero_vec(n),):
        verts = ()
    return (n, lin, verts, rays)


def _oracle_equations(p):
    """Canonical basis of the equation normals of p, homogenized as (-b, a)
    when p has vertices: the kernel of its generator rows, by sympy."""
    n = p.ambient_dim
    if p.vertices:
        rows = [(1,) + v for v in p.vertices]
        rows += [(0,) + g for g in p.rays + p.lineality]
    else:
        rows = list(p.rays + p.lineality)
    if not rows:
        return subspace_canonical_basis(identity_mat(n))
    kernel = sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows]).nullspace()
    return subspace_canonical_basis(
        [tuple(F(int(x.p), int(x.q)) for x in k) for k in kernel])


def _oracle_pools(facets, lineality):
    """(vertex pool, ray pool, cells) as `Complex.pooled` pools the facets'
    generators, on fraction tuples: a vertex as it is, a ray by the
    `primitive_vector` of its normal form modulo the lineality (rays inside
    it drop out) and kept as the first such ray's `primitive_vector`, facet
    lineality as opposite ray pairs, and a cell as the set of its entries.
    Raises the loader's ValueError when two cells are identical."""
    lin = subspace_canonical_basis([vec(l) for l in lineality])
    vpool, keys, rpool, cells = [], [], [], []

    def index(pool, v):
        if v not in pool:
            pool.append(v)
        return pool.index(v)

    for f in facets:
        vidx = {index(vpool, vec(v)) for v in f.vertices}
        ridx = set()
        for r in f.rays + tuple(g for l in f.lineality for g in (l, neg(l))):
            if not is_zero(reduced := reduce_mod_subspace(r, lin)):
                if primitive_vector(reduced) not in keys:
                    rpool.append(primitive_vector(r))
                ridx.add(index(keys, primitive_vector(reduced)))
        cell = (tuple(sorted(vidx)), tuple(sorted(ridx)))
        if cell in cells:
            raise ValueError(f"cells {cells.index(cell)} and {len(cells)} are identical")
        cells.append(cell)
    return tuple(vpool), tuple(rpool), tuple(cells)


def _oracle_balancing(c):
    """Per ridge: the weighted sum of the lattice normals, each with its
    incidence proved, reduced modulo the span of the ridge."""
    out = []
    for tau, fids, _ in c.ridges:
        total = zero_vec(c.ambient_dim)
        for fid in fids:
            u = lattice_normal_generator(c.facet_polyhedra[fid], tau)
            total = tuple(t + c.weights[fid] * x for t, x in zip(total, u))
        residual = reduce_mod_subspace(total, tau.direction_span)
        out.append((tau.label(), is_zero(residual), residual))
    return out


# ---------------------------------------------------------------------------
# seeded polyhedra


def _direction(rng, n, span=3):
    return [rng.randint(-span, span) for _ in range(n)]


def _polyhedron(rng, kind, n=None):
    """A cone, polytope or polyhedron given with redundant generators."""
    n = rng.randint(1, 4) if n is None else n
    lin = [l for l in (_direction(rng, n) for _ in range(rng.choice((0, 0, 1, 2)))) if any(l)]
    rays = [r for r in (_direction(rng, n) for _ in range(rng.randint(0, n + 2))) if any(r)]
    extra = []
    for r in rays:
        roll = rng.random()
        if roll < 0.15:
            extra.append(list(r))  # repeated
        elif roll < 0.3:
            extra.append([rng.randint(2, 3) * x for x in r])  # scaled
        elif roll < 0.4:
            extra.append([-x for x in r])  # an opposite pair: a lineality direction
    if len(rays) > 1 and rng.random() < 0.5:
        u, v = rng.sample(rays, 2)
        extra.append([x + y for x, y in zip(u, v)])  # redundant
    if lin and rng.random() < 0.5:
        extra.append([rng.choice((-2, 1, 3)) * x for x in lin[0]])  # inside the lineality
    rays += extra
    rng.shuffle(rays)
    if kind == "cone":
        return Polyhedron.cone(rays, lin, ambient_dim=n)
    verts = [[F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) for _ in range(n)]
             for _ in range(rng.randint(1, n + 2))]
    if len(verts) > 1 and rng.random() < 0.5:
        u, v = rng.sample(verts, 2)
        verts.append([(x + y) / 2 for x, y in zip(u, v)])  # not extreme
    if rng.random() < 0.3:
        verts.append(list(verts[0]))  # repeated
    if lin and rng.random() < 0.3:
        verts.append([x + rng.choice((-1, 2)) * y for x, y in zip(verts[0], lin[0])])
    if kind == "polytope":
        return Polyhedron.from_vertices(verts, ambient_dim=n)
    return Polyhedron.from_vertices(verts, rays, lin, ambient_dim=n)


def _polyhedra(seed, count):
    rng = random.Random(seed)
    kinds = ("cone", "polytope", "polyhedron")
    return [_polyhedron(rng, kinds[i % 3]) for i in range(count)]


def _fresh(p):
    return Polyhedron(p.ambient_dim, p.vertices, p.rays, p.lineality)


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("seed", range(3))
class TestRecordReads:
    def test_extremality_against_the_rank_test(self, seed):
        for p in _polyhedra(seed, 150):
            assert p.canonical_key == _oracle_canonical_key(p), p
            assert p.canonical_key[1] == _oracle_lineality(p)

    def test_dim_against_the_direction_span(self, seed):
        for p in _polyhedra(seed, 150):
            # before the record exists the dimension is an integer rank,
            # after it n minus the number of equations
            assert p.dim == len(p.direction_span)
            assert p.direction_span == _oracle_direction_span(p)
            q = _fresh(p)
            q._rec
            assert q.dim == len(q.direction_span) == p.dim

    def test_tight_masks_against_dot_products(self, seed):
        for p in _polyhedra(seed, 150):
            rec = p._rec
            ineqs = hrep(p).inequalities
            assert rec.cuts == len(ineqs)
            assert [rec.cut(i) for i in range(len(ineqs))] == \
                [tuple(map(int, a)) for a, _ in ineqs]
            for v, (_, mask) in zip(p.vertices, rec.verts):
                assert mask & ((1 << len(ineqs)) - 1) == sum(
                    1 << i for i, (a, b) in enumerate(ineqs) if _dot(a, v) == b)
            for r, (_, mask) in zip(p.rays, rec.rays):
                assert mask & ((1 << len(ineqs)) - 1) == sum(
                    1 << i for i, (a, _) in enumerate(ineqs) if _dot(a, r) == 0)

    def test_faces_against_dot_product_tightness(self, seed):
        for p in _polyhedra(seed, 100):
            ineqs = hrep(p).inequalities
            for face, ineq in zip(codim1_faces(p), ineqs):
                assert face.canonical_key == _oracle_face_key(p, [ineq])
                assert face.dim == p.dim - 1 == len(face.direction_span)
            for size in (2, 3):
                for combo in itertools.combinations(range(len(ineqs)), size):
                    face = face_by_mask(p, sum(1 << i for i in combo))
                    want = _oracle_face_key(p, [ineqs[i] for i in combo])
                    assert (face and face.canonical_key) == want

    def test_membership_against_dot_products(self, seed):
        rng = random.Random(seed)
        for p in _polyhedra(seed, 100):
            h = hrep(p)
            n = p.ambient_dim
            for _ in range(10):
                x = [F(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(n)]
                if p.vertices and rng.random() < 0.5:
                    x = list(p.vertices[0])  # on the boundary
                assert p.contains_point(x) == (
                    all(_dot(a, x) >= b for a, b in h.inequalities)
                    and all(_dot(a, x) == b for a, b in h.equations))
                assert p.contains_direction(x) == (
                    all(_dot(a, x) >= 0 for a, _ in h.inequalities)
                    and all(_dot(a, x) == 0 for a, _ in h.equations))

    def test_hrep_equations_and_round_trip(self, seed):
        for p in _polyhedra(seed, 150):
            h = hrep(p)
            if p.vertices:
                eqs = [(-b,) + a for a, b in h.equations]
            else:
                eqs = [a for a, _ in h.equations]
            # a basis of the equation space, though not its canonical one
            assert len(subspace_canonical_basis(eqs)) == len(eqs)
            assert subspace_canonical_basis(eqs) == _oracle_equations(p)
            assert Polyhedron.from_hrep(h) == p

    def test_lattice_is_the_saturated_direction_lattice(self, seed):
        for p in _polyhedra(seed, 100):
            basis = p._lattice
            span = _oracle_direction_span(p)
            assert len(basis) == len(span)
            if not span:
                continue
            assert subspace_canonical_basis([tuple(map(F, w)) for w in basis]) == span
            # saturated: the maximal minors have gcd 1
            M = sympy.Matrix(basis)
            minors = [M[:, list(cols)].det()
                      for cols in itertools.combinations(range(p.ambient_dim), len(basis))]
            assert sympy.gcd_list(minors) == 1


@pytest.mark.parametrize("name,c", [(name, c) for name, c, _ in _section_fixtures()],
                         ids=[name for name, _, _ in _section_fixtures()])
def test_direction_span_against_the_generator_elimination(name, c):
    # cells read the pooled record, their fresh copies their own, and the
    # ridges and faces below the face walk's canonical generators
    faces = [f for f, _, _ in c.ridges]
    if c.dim - 1 >= c.lineality_dim:
        faces += [f for f, _, _ in skeleton(c, c.dim - 1).ridges]
    for p in [*c.facet_polyhedra, *map(_fresh, c.facet_polyhedra), *faces]:
        assert p.direction_span == _oracle_direction_span(p), (name, p)
        assert len(p.direction_span) == p.dim


class TestRidgeKeys:
    def test_ridges_sort_as_their_canonical_keys(self):
        # rational vertices: the integer sort keys put the faces in the
        # order of their fraction keys
        rng = random.Random(31)
        for _ in range(40):
            cells = [_polyhedron(rng, "polyhedron") for _ in range(3)]
            n = cells[0].ambient_dim
            cells = [c for c in cells if c.ambient_dim == n]
            ridges = next(_face_levels(cells), [])
            keys = [face.canonical_key for face, _, _ in ridges]
            assert keys == sorted(keys) and len(set(keys)) == len(keys)
            for face, fids, masks in ridges:
                for i, mask in zip(fids, masks):
                    assert face.canonical_key == _oracle_face_key(
                        cells[i], [hrep(cells[i]).inequalities[mask.bit_length() - 1]])


def _key_fixtures():
    """A polyhedron per form of key, each with the parts of its key that are
    not empty: lineality rows, vertices, rays."""
    return {
        "cone": (Polyhedron.cone([[1, 0, 0], [0, 2, 0], [1, 1, 1], [1, 1, 0]]), "rays"),
        "polytope": (Polyhedron.from_vertices(
            [[F(1, 2), 0], [0, F(1, 3)], [1, 1], [F(1, 4), F(1, 4)]]), "verts"),
        "polyhedron": (Polyhedron.from_vertices(
            [[F(1, 2), 0, 0], [0, 0, F(3, 2)]], rays=[[0, 1, 0]], lineality=[[2, 2, 0]]),
            "lin verts rays"),
        "pooled cell": (bergman_fine(Matroid.uniform(3, 4)).facet_polyhedra[0], "lin rays"),
    }


class TestOneKeyForm:
    """A polyhedron's canonical key is its integer face key with n in
    front: the lineality rows and the rays as int tuples, the vertices as
    Fraction rows."""

    @pytest.mark.parametrize("name", list(_key_fixtures()))
    def test_the_key_form(self, name):
        p, parts = _key_fixtures()[name]
        n, lin, verts, rays = key = p.canonical_key
        assert n == p.ambient_dim
        assert [part for part, rows in zip(("lin", "verts", "rays"), key[1:]) if rows] == \
            parts.split()
        for rows, kind in ((lin, int), (rays, int), (verts, F)):
            assert type(rows) is tuple and all(type(row) is tuple for row in rows)
            assert all(type(x) is kind for row in rows for x in row)
        assert key == _oracle_face_key(p, []) == _oracle_canonical_key(p)
        assert key[1:] == polyhedral._face_key(p, 0)

    def test_records_make_no_fraction_rows(self, monkeypatch):
        # U(4,6)'s 120 cells build their records from integer rows alone
        c = bergman_fine(Matroid.uniform(4, 6))
        calls, real = [], polyhedral._fraction_row
        monkeypatch.setattr(polyhedral, "_fraction_row", lambda row: calls.append(row) or real(row))
        assert len(c.facet_polyhedra) == 120 and calls == []

    def test_faces_are_made_from_their_keys(self, monkeypatch):
        # a ridge carries its canonical key: reading it builds no record
        c = bergman_fine(Matroid.uniform(4, 6))
        c.facet_polyhedra
        calls, real = [], polyhedral.dd_cone
        monkeypatch.setattr(polyhedral, "dd_cone", lambda *args: calls.append(args) or real(*args))
        keys = [face.canonical_key for face, _, _ in c.ridges]
        assert len(keys) == 150 and calls == []
        assert not any("_rec" in face.__dict__ for face, _, _ in c.ridges)


def _star_fans(seed, count):
    """Fans of rays or of 2-cones around a shared ray, in R^2 and R^3."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.choice((2, 3))
        rays, target = [], rng.randint(2, 5)
        while len(rays) < target:
            d = _direction(rng, n, 2)
            if any(d) and primitive_vector(d) not in rays:
                rays.append(primitive_vector(d))
        if n == 2 or rng.random() < 0.5:
            cells = [Polyhedron.cone([r], ambient_dim=n) for r in rays]
        else:
            axis = rays[0]
            cells = [Polyhedron.cone([axis, r], ambient_dim=n) for r in rays[1:]
                     if _rank([axis, r]) == 2]
            if len(cells) < 2:
                continue
        yield Complex.from_facets(cells, ambient_dim=n)


class TestBalancingMembership:
    @staticmethod
    def _fans():
        fans = [bergman_fine(Matroid.uniform(3, 4)),
                bergman_fine(Matroid.graphic([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])),
                cube_normal_fan(3), two_planes_fan(),
                normal_fan([[0, 0], [3, 1], [1, 3]])]
        tri = [[F(0), F(0)], [F(3, 2), F(0)], [F(0), F(2, 3)], [F(3, 2), F(2, 3)]]
        fans.append(Complex.from_facets([
            Polyhedron.from_vertices(tri[:3]), Polyhedron.from_vertices(tri[1:]),
            Polyhedron.from_vertices([tri[1], tri[3]], rays=[[1, 0]])]))
        return fans + list(_star_fans(5, 60))

    def test_against_reduce_mod_subspace(self):
        rng = random.Random(17)
        unbalanced = 0
        for fan in self._fans():
            for weights in [fan.weights] + [
                    tuple(rng.randint(1, 3) for _ in fan.weights) for _ in range(3)]:
                w = _reweighted(fan, weights)
                report = balancing_check(w)
                got = [(e.ridge_label, e.balanced, e.residual) for e in report.entries]
                assert got == _oracle_balancing(w)
                assert report.balanced == all(b for _, b, _ in got)
                unbalanced += not report.balanced
        assert unbalanced > 50


def _rational_multiple(rng, v):
    m = F(rng.randint(1, 4), rng.randint(1, 3))
    return [m * x for x in v]


def _facet_sets(seed, count):
    """Facets in one R^n, given with non-primitive and rational rays, some
    repeated, and with lineality that is declared for the complex (scaled
    differently in each facet) or that only some facets have."""
    rng = random.Random(seed)
    kinds = ("cone", "polytope", "polyhedron")
    for _ in range(count):
        n = rng.randint(1, 4)
        common = [d for d in [_direction(rng, n)] if any(d) and rng.random() < 0.4]
        facets = []
        for _ in range(rng.randint(1, 5)):
            p = _polyhedron(rng, rng.choice(kinds), n)
            rays = [_rational_multiple(rng, r) for r in p.rays]
            lin = list(p.lineality) + [_rational_multiple(rng, l) for l in common]
            facets.append(Polyhedron(n, p.vertices, tuple(map(vec, rays)),
                                     tuple(map(vec, lin))))
            if rng.random() < 0.3:
                facets.append(rng.choice(facets))
        yield facets, common, n


def _pooled_cell(c, i):
    """Cell i of c from its pool entries by the generic constructor."""
    vidx, ridx = c.cells[i]
    return Polyhedron(c.ambient_dim, tuple(c.vertex_pool[j] for j in vidx),
                      tuple(c.ray_pool[j] for j in ridx), c.lineality)


def assert_loads_back(c):
    """`fan_from_text(fan_to_text(c))` loads, with c's lineality, its pools
    in the writer's sorted order and its cells, as sets of pool entries with
    their weights, as a multiset."""
    d = fan_from_text(fan_to_text(c))
    assert (d.ambient_dim, d.lineality) == (c.ambient_dim, c.lineality)
    assert (d.vertex_pool, d.ray_pool) == (tuple(sorted(c.vertex_pool)), tuple(sorted(c.ray_pool)))

    def entries(x):
        return Counter((frozenset(x.vertex_pool[j] for j in v), frozenset(x.ray_pool[j] for j in r), w)
                       for (v, r), w in zip(x.cells, x.weights))

    assert entries(d) == entries(c)
    return d


def _assert_pools_match_the_fraction_pooling(facets, lineality, n):
    """The pools and cells of the oracle, or its ValueError; returns the
    complex, or None when two cells are identical."""
    try:
        expected = _oracle_pools(facets, lineality)
    except ValueError as e:
        with pytest.raises(ValueError, match=f"^{e}$"):
            Complex.from_facets(facets, lineality=lineality, ambient_dim=n)
        return None
    c = Complex.from_facets(facets, lineality=lineality, ambient_dim=n)
    assert (c.vertex_pool, c.ray_pool, c.cells) == expected
    assert all(type(x) is F for g in c.vertex_pool + c.ray_pool for x in g)
    for i, f in enumerate(c.facet_polyhedra):
        assert f.canonical_key == _pooled_cell(c, i).canonical_key
    assert_loads_back(c)
    return c


class TestIntegerPools:
    @pytest.mark.parametrize("seed", range(3))
    def test_against_the_fraction_pooling(self, seed):
        rng = random.Random(seed)
        repeated = 0
        for facets, common, n in _facet_sets(seed, 60):
            c = _assert_pools_match_the_fraction_pooling(facets, common, n)
            if c is None:
                # a repeated facet is the same object: without the repeats
                # the set pools in full
                repeated += 1
                c = _assert_pools_match_the_fraction_pooling(
                    list(dict.fromkeys(facets)), common, n)
            # pool rays given non-primitive, rational and repeated, and cells
            # that repeat an index: pooling them gives c back, and each cell
            # converts them as the generic constructor does
            rays = tuple(map(vec, [_rational_multiple(rng, r) for r in c.ray_pool]))
            rays += rays[:1]
            cells = [(v, r + r[:1] + (len(rays) - 1,) * (0 in r)) for v, r in c.cells]
            scaled = Complex.pooled(n, c.vertex_pool, rays, c.lineality, cells)
            assert (scaled.vertex_pool, scaled.ray_pool, scaled.cells) == \
                (c.vertex_pool, c.ray_pool, c.cells)
            for (vidx, ridx), f in zip(cells, scaled.facet_polyhedra):
                g = Polyhedron(n, tuple(c.vertex_pool[j] for j in vidx),
                               tuple(rays[j] for j in ridx), c.lineality)
                assert (f.vertices, f.rays, f.lineality) == (g.vertices, g.rays, g.lineality)
        # a facet set repeats a facet about three times in five, so both
        # outcomes occur; every set, repeats removed, ran the full checks
        assert 25 <= repeated <= 50

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.tuples(*(st.lists(st.lists(st.fractions(-3, 3, max_denominator=3),
                                      min_size=n, max_size=n), max_size=size)
                    for size in (2, 3, 1))),
        min_size=1, max_size=4))))
    def test_drawn_facet_sets(self, drawn):
        n, gens = drawn
        facets = [Polyhedron(n, tuple(map(vec, v)), tuple(map(vec, r)), tuple(map(vec, l)))
                  for v, r, l in gens]
        _assert_pools_match_the_fraction_pooling(facets, (), n)


# ---------------------------------------------------------------------------
# ridge dimensions: known for codimension one, an integer rank below


def _rank_dim(face):
    """The dimension of a face as an integer rank of its generators, which
    is how every face without a record got it before."""
    rows = [_int_row(g) for g in face.rays + face.lineality]
    if not face.vertices:
        return matrix_rank(rows)
    rows = [[0] + r for r in rows] + [_int_row((1,) + v) for v in face.vertices]
    return matrix_rank(rows) - 1


def _dimension_fixtures():
    """Fans, complexes with rational vertices and unbounded cells, slices and
    normal fans of polytopes."""
    fixtures = [(name, c) for name, c, _ in _section_fixtures()]
    rational = fan_from_obj(RATIONAL_COMPLEX)
    fixtures += [
        ("U(2,3)", bergman_fine(Matroid.uniform(2, 3))),
        ("U(3,4)", bergman_fine(Matroid.uniform(3, 4))),
        ("rational", rational),
        ("rational-slice", hyperplane_section(
            rational, AffineHyperplane(vec([1, 2, 3]), F(1, 3))).section),
        ("cube3-slice", hyperplane_section(
            cube_normal_fan(3), AffineHyperplane(vec([1, 2, 4]), F(1))).section),
        ("triangle", normal_fan([[0, 0], [3, 1], [1, 3]])),
        ("hex-hept", normal_fan(HEX_HEPT)),
    ]
    return fixtures


def _copy(c):
    return Complex(c.ambient_dim, c.vertex_pool, c.ray_pool, c.lineality, c.cells,
                   c.weights)


@pytest.mark.parametrize("name,c", _dimension_fixtures(),
                         ids=[name for name, _ in _dimension_fixtures()])
class TestKnownRidgeDimensions:
    def test_ridge_dims_against_the_integer_rank(self, name, c):
        cells = c.facet_polyhedra
        assert c.ridges, name
        for face, fids, _ in c.ridges:
            assert face.dim == _rank_dim(face) == cells[fids[0]].dim - 1, name

    def test_levels_below_are_unchanged(self, name, c):
        # the walk, which sets its ridges' dimensions, against the oracle
        # walk below ridges made one per incidence with no dimension set
        got = [[(f.canonical_key, f.dim) for f, _, _ in level]
               for level in _face_levels(_copy(c).facet_polyhedra)]
        want = [[(f.canonical_key, f.dim) for f in level] for level in _faces_below(_copy(c))]
        assert got == want and got, name
        # and every dimension there is the integer rank
        for level in _face_levels(_copy(c).facet_polyhedra):
            assert all(f.dim == _rank_dim(f) for f, _, _ in level), name


# ---------------------------------------------------------------------------
# lattice normals from a unit ray, against the Smith path they shortcut


def _smith_normal(sigma, a):
    """`_lattice_normal` without the ray: the combination of a basis of the
    saturated lattice (a Smith normal form) on which a takes its least
    positive value, by `_bezout`."""
    a = _primitive_ints(a)
    basis = sigma._lattice
    u = [0] * sigma.ambient_dim
    for x, w in zip(polyhedral._bezout([sum(map(mul, a, w)) for w in basis]), basis):
        u = [ui + x * wi for ui, wi in zip(u, w)]
    return tuple(u)


def _assert_normal_matches_the_smith_path(sigma, i, tau):
    """At facet inequality i of sigma, which cuts out tau: a takes the same
    positive value on both normals, and they differ by a vector of tau's span."""
    a = sigma._rec.cut(i)
    u, v = _lattice_normal(sigma, a), _smith_normal(sigma, a)
    assert all(type(x) is int for x in u)
    assert _dot(a, u) == _dot(a, v) > 0
    assert is_zero(reduce_mod_subspace(vec([x - y for x, y in zip(u, v)]),
                                       tau.direction_span))


def _loaded(c):
    """The complex as the command line loads it from its fan file."""
    return fan_from_text(fan_to_text(c))


_K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
_BERGMAN = {
    "U(3,5)": Matroid.uniform(3, 5),
    "U(4,6)": Matroid.uniform(4, 6),
    "M(K4)+parallel": Matroid.graphic(_K4 + [(0, 1)]),
    "M(C5)+parallel": Matroid.graphic([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 1)]),
    "linear": Matroid.linear([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, 2, 1],
                              [0, 1, -1], [2, 0, 1]]),
}


def _lattice_fixtures():
    """Bergman fans, fans whose cells lack a unit ray, and complexes with
    vertices; the tropical line carries the weights 1, 1, 2."""
    line = Complex.from_facets([Polyhedron.cone([r], ambient_dim=2)
                                for r in ([1, 0], [0, 1], [-1, -1])], weights=(1, 1, 2))
    fixtures = [(name, _loaded(bergman_fine(m))) for name, m in _BERGMAN.items()]
    return fixtures + [
        ("cube3", cube_normal_fan(3)),
        ("line-112", line),
        ("triangle", normal_fan([[0, 0], [2, 0], [0, 1]])),
        ("hex-hept", normal_fan(HEX_HEPT)),
        ("plane-slice", hyperplane_section(
            _loaded(bergman_fine(Matroid.uniform(3, 4))),
            AffineHyperplane(vec([1, 2, 4, 8]), F(1))).section),
        ("rational", fan_from_obj(RATIONAL_COMPLEX)),
    ]


class TestUnitRayLatticeNormals:
    @pytest.mark.parametrize("name,c", _lattice_fixtures(),
                             ids=[name for name, _ in _lattice_fixtures()])
    def test_every_incidence_against_the_smith_path(self, name, c):
        assert c.ridges, name
        for tau, fids, cuts in c.ridges:
            for fid, cut in zip(fids, cuts):
                _assert_normal_matches_the_smith_path(c.facet_polyhedra[fid], cut, tau)

    @pytest.mark.parametrize("name", sorted(_BERGMAN))
    def test_bergman_cells_take_the_unit_ray(self, name):
        # no saturated lattice, so no Smith normal form, is computed
        fan = _loaded(bergman_fine(_BERGMAN[name]))
        assert balancing_check(fan).balanced
        assert not any("_lattice" in sigma.__dict__ for sigma in fan.facet_polyhedra)

    def test_full_dimensional_cells_take_the_unit_lattice(self):
        for fan in (normal_fan([[0, 0], [2, 0], [0, 1]]), normal_fan(HEX_HEPT),
                    cube_normal_fan(3)):
            assert balancing_check(fan).balanced
            assert all(s._lattice == list(identity_mat(s.ambient_dim))
                       for s in fan.facet_polyhedra)

    def test_cells_without_a_unit_ray_take_the_lattice(self):
        # a.r = 2 on the ray (1, 2, 0) of the cone over (1, 0, 0) and
        # (1, 2, 0), and on (1, 0, 0) at the other facet
        for i in range(2):
            sigma = Polyhedron.cone([[1, 0, 0], [1, 2, 0]])
            a = sigma._rec.cut(i)
            assert sorted(_dot(a, r) for r, _ in sigma._rec.rays) == [0, 2]
            u = _lattice_normal(sigma, a)
            assert sigma._rec.eqs and "_lattice" in sigma.__dict__
            assert u == _smith_normal(sigma, a)
            _assert_normal_matches_the_smith_path(sigma, i, codim1_faces(sigma)[i])

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_polyhedra(self, seed):
        # cones, polytopes and polyhedra with lineality, on the record's rows
        for p in _polyhedra(seed + 500, 90):
            for i in range(len(hrep(p).inequalities)):
                _assert_normal_matches_the_smith_path(p, i, face_by_mask(p, 1 << i))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(*(st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any),
        min_size=size, max_size=size + 4) for size in (1, 0)))))
    def test_drawn_cones(self, drawn):
        rays, lineality = drawn
        sigma = Polyhedron.cone(rays, lineality[:1])
        for i in range(len(hrep(sigma).inequalities)):
            _assert_normal_matches_the_smith_path(sigma, i, face_by_mask(sigma, 1 << i))


# ---------------------------------------------------------------------------
# the pool facts a complex decides once, loaded or built in memory


def _oracle_pool(c):
    """`Complex._pool` over fractions: the rows of the lineality's canonical
    basis, and per pool ray its primitive form and, by `reduce_mod_subspace`,
    its canonical row, or None when it reduces to zero."""
    lin = subspace_canonical_basis([vec(l) for l in c.lineality])
    keys, canon = [], {}
    for r in c.ray_pool:
        reduced = reduce_mod_subspace(vec(r), lin)
        key = None if is_zero(reduced) else tuple(x.numerator for x in primitive_vector(vec(r)))
        if key:
            canon[key] = tuple(x.numerator for x in primitive_vector(reduced))
        keys.append(key)
    return [tuple(x.numerator for x in l) for l in lin], canon, keys


def _record_fields(p):
    """The generators of p and every field of its integer record."""
    rec = p._rec
    return (p.vertices, p.rays, p.lineality, rec.affine, rec.facets, rec.eqs, rec.verts,
            rec.rays, rec.key_verts, rec.key_rays, rec.lin_ints)


def _assert_pool_matches_a_copy(c):
    """The pool facts of the loaded complex equal those of an in-memory copy
    (which computes its own on construction) and of the fraction oracle, and
    each cell it gives has the record of the copy's cell and of the cell
    rebuilt from its generators."""
    copy = _copy(c)
    assert c._pool == copy._pool == _oracle_pool(c)
    assert [_record_fields(p) for p in c.facet_polyhedra] == \
        [_record_fields(p) for p in copy.facet_polyhedra] == \
        [_record_fields(_general(p)) for p in c.facet_polyhedra]


@st.composite
def _drawn_fan_objects(draw):
    """Fan objects with lineality, whose distinct rays may lie inside it or
    be equal modulo it, which the loader rejects."""
    n = draw(st.integers(1, 3))
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(
        lambda r: math.gcd(*r) == 1)
    lineality = draw(st.lists(row, max_size=1))
    rays = draw(st.lists(row, max_size=5, unique_by=tuple))
    cell = st.lists(st.integers(0, max(len(rays) - 1, 0)), unique=True,
                    max_size=len(rays))
    cells = draw(st.lists(cell, min_size=1, max_size=4, unique_by=frozenset))
    return {"ambient_dim": n, "rays": rays, "vertices": [], "lineality": lineality,
            "cells": [{"r": r} for r in cells], "weights": [1] * len(cells)}


class TestSeededRayKeys:
    """A loaded fan decides its pool facts as an in-memory complex does."""

    @pytest.mark.parametrize("name,c", _dimension_fixtures() + _lattice_fixtures(),
                             ids=[name for name, _ in _dimension_fixtures() + _lattice_fixtures()])
    def test_fixtures(self, name, c):
        _assert_pool_matches_a_copy(_loaded(c))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_drawn_fan_objects())
    def test_drawn_fans(self, obj):
        try:
            c = fan_from_obj(obj)
        except ValueError:  # equal rays or identical cells
            assume(False)
        _assert_pool_matches_a_copy(c)

    def test_ray_inside_the_lineality(self):
        # the two cells are one set, the upper half-plane; the file and the
        # in-memory complex are rejected alike, and pooling merges the cells
        obj = {"ambient_dim": 2, "rays": [[1, 1], [1, 0], [-1, -1]], "vertices": [],
               "lineality": [[1, 1]], "cells": [{"r": [0, 1]}, {"r": [1, 2]}],
               "weights": [1, 1]}
        with pytest.raises(ValueError, match=r"^ray \[1, 1\] lies in the lineality$"):
            fan_from_obj(obj)
        rays = tuple(map(vec, obj["rays"]))
        with pytest.raises(ValueError, match=r"^ray \[1, 1\] lies in the lineality$"):
            Complex(2, (), rays, (vec([1, 1]),), (((), (0, 1)), ((), (1, 2))))
        with pytest.raises(ValueError, match="^cells 0 and 1 are identical$"):
            Complex.pooled(2, (), rays, (vec([1, 1]),), (((), (0, 1)), ((), (1, 2))))
        c = Complex.pooled(2, (), rays, (vec([1, 1]),), (((), (0, 1)),))
        assert c._pool == ([(1, 1)], {(1, 0): (0, -1)}, [(1, 0)])
        _assert_pool_matches_a_copy(c)

    def test_derived_complexes_compute_their_keys(self):
        c = _loaded(cube_normal_fan(2))
        derived = _reweighted(c, None)
        assert derived._pool == c._pool == _oracle_pool(c)


# ---------------------------------------------------------------------------
# the ridge walk on integer keys, against one face per incidence


def _oracle_ridges(c):
    """`Complex.ridges` as a walk over every incidence: the face
    `face_by_mask(p, 1 << i)` for each inequality i of each facet p, grouped on its
    canonical key and sorted."""
    groups = {}
    for fid, p in enumerate(c.facet_polyhedra):
        for i in range(len(hrep(p).inequalities)):
            face = face_by_mask(p, 1 << i)
            entry = groups.setdefault(face.canonical_key, (face, [], []))
            entry[1].append(fid)
            entry[2].append(i)
    return [(face, tuple(fids), tuple(cuts)) for _, (face, fids, cuts) in sorted(groups.items())]


def _faces_below(c):
    """The faces from the ridges down, one list per codimension, as the walk
    below the ridges made them when it was separate: the ridges of
    `_oracle_ridges`, then per level one face per `_face_key`, cut out of one
    incidence per face of the level above by one more inequality of its
    cell and kept when its integer rank is the next dimension."""
    cells = c.facet_polyhedra
    level = {polyhedral._face_key(cells[fids[0]], 1 << cuts[0]):
             (face, cells[fids[0]], 1 << cuts[0]) for face, fids, cuts in _oracle_ridges(c)}
    while level:
        keys = sorted(level)
        yield [level[key][0] for key in keys]
        below = {}
        for key in keys:
            face, cell, tight = level[key]
            d = face.dim - 1
            for i in range(len(hrep(cell).inequalities)):
                sub_tight = tight | 1 << i
                if sub_tight == tight:
                    continue
                sub_key = polyhedral._face_key(cell, sub_tight)
                if sub_key is not None and sub_key not in below:
                    sub = face_by_mask(cell, sub_tight)
                    below[sub_key] = (sub, cell, sub_tight) if sub.dim == d else None
        level = {key: entry for key, entry in below.items() if entry}


def _assert_levels_match_the_oracle(c):
    """Every level of `_face_levels` equals the oracle's, its first is
    `Complex.ridges`, and every (cell, mask) it lists cuts its face out of
    that cell."""
    cells = c.facet_polyhedra
    got = list(_face_levels(cells))
    assert [[(f.canonical_key, f.vertices, f.rays, f.lineality, f.dim) for f, _, _ in level]
            for level in got] == \
        [[(f.canonical_key, f.vertices, f.rays, f.lineality, _rank_dim(f)) for f in level]
         for level in _faces_below(c)]
    assert [(f.canonical_key, fids, masks) for f, fids, masks in (got[0] if got else [])] == \
        [(f.canonical_key, fids, tuple(1 << k for k in cuts)) for f, fids, cuts in c.ridges]
    for level in got:
        for face, fids, masks in level:
            assert len(fids) == len(masks) > 0
            for i, mask in zip(fids, masks):
                assert face_by_mask(cells[i], mask).canonical_key == face.canonical_key


def _assert_ridges_match_the_oracle(c):
    def rows(ridges, dim):
        return [(f.canonical_key, f.vertices, f.rays, f.lineality, dim(f), fids, cuts)
                for f, fids, cuts in ridges]

    assert rows(c.ridges, lambda f: f.dim) == rows(_oracle_ridges(c), _rank_dim)


_RIDGE_FIXTURES = _dimension_fixtures() + _lattice_fixtures()


class TestRidgeWalk:
    @pytest.mark.parametrize("name,c", _RIDGE_FIXTURES, ids=[name for name, _ in _RIDGE_FIXTURES])
    def test_fixtures(self, name, c):
        for complex_ in (_copy(c), _loaded(c)):
            assert complex_.ridges, name
            _assert_ridges_match_the_oracle(complex_)
            _assert_levels_match_the_oracle(complex_)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_drawn_fan_objects())
    def test_drawn_fans(self, obj):
        try:
            c = fan_from_obj(obj)
        except ValueError:  # equal rays or identical cells
            assume(False)
        _assert_ridges_match_the_oracle(c)
        _assert_ridges_match_the_oracle(_copy(c))
        _assert_levels_match_the_oracle(c)

    def test_affine_rational_complex(self):
        c = fan_from_obj(RATIONAL_COMPLEX)
        assert any(f.vertices for f, _, _ in c.ridges)
        _assert_ridges_match_the_oracle(c)
        _assert_levels_match_the_oracle(c)

    def test_lineality_carried_as_opposite_rays(self):
        e3 = [[0, 0, 1]]
        c = Complex.from_facets([Polyhedron.cone([r], lineality=e3, ambient_dim=3)
                                 for r in ([1, 0, 0], [0, 1, 0], [-1, -1, 0])])
        assert not c.lineality and all(len(p.canonical_key[1]) == 1 for p in c.facet_polyhedra)
        _assert_ridges_match_the_oracle(c)
        _assert_levels_match_the_oracle(c)

    def test_one_face_per_ridge_on_U46(self, monkeypatch):
        c = _loaded(bergman_fine(Matroid.uniform(4, 6)))
        made = []

        def counted(p, key):
            made.append(key)
            return _face(p, key)

        monkeypatch.setattr(polyhedral, "_face", counted)
        ridges = c.ridges
        assert sum(len(fids) for _, fids, _ in ridges) == 360
        assert len(made) == len(ridges) == 150

    def test_skeleton_starts_from_the_cached_ridges(self, monkeypatch):
        # U(4,6) has 150 ridges; the level below them takes 41 faces, and
        # once the ridges are read the skeleton makes only those
        text = fan_to_text(bergman_fine(Matroid.uniform(4, 6)))
        made = []

        def counted(p, key):
            made.append(key)
            return _face(p, key)

        monkeypatch.setattr(polyhedral, "_face", counted)
        fresh = fan_to_text(skeleton(fan_from_text(text), 2))
        assert len(made) == 191
        c = fan_from_text(text)
        c.ridges
        made.clear()
        assert fan_to_text(skeleton(c, 2)) == fresh and len(made) == 41

    @pytest.mark.parametrize("name,c", [
        ("U(4,6)", _loaded(bergman_fine(Matroid.uniform(4, 6)))),
        ("cube3", cube_normal_fan(3)),
        ("rational", fan_from_obj(RATIONAL_COMPLEX)),
    ], ids=["U(4,6)", "cube3", "rational"])
    def test_faces_below_make_one_face_per_key(self, name, c, monkeypatch):
        c = _copy(c)
        made = []

        def counted(p, key):
            face = _face(p, key)
            made.append(face.canonical_key)
            return face

        monkeypatch.setattr(polyhedral, "_face", counted)
        levels = [[f.canonical_key for f, _, _ in level]
                  for level in _face_levels(c.facet_polyhedra)]
        made.clear()
        found = []
        for i, level in enumerate(_face_levels(c.facet_polyhedra)):
            # each level is found by one `next`: one face per ridge, and
            # below the ridges one face per key met
            assert len(set(made)) == len(made) >= len(level) > 0, name
            if not i:
                assert len(made) == len(level), name
            found.append([f.canonical_key for f, _, _ in level])
            made.clear()
        assert found == levels and len(found) == c.dim - c.lineality_dim, name


class TestWalkDimensionsAgainstTheRank:
    """Every face the walk makes takes the dimension of the face it was cut
    from minus one; the integer rank of its generators, the rule faces below
    the ridges had before, is the oracle."""

    @staticmethod
    def _level_sizes(cells, depth=8):
        sizes = []
        for level in itertools.islice(_face_levels(cells), depth):
            assert all(f.dim == _rank_dim(f) for f, _, _ in level)
            sizes.append(len(level))
        return sizes

    @pytest.mark.parametrize("name,c", _RIDGE_FIXTURES, ids=[name for name, _ in _RIDGE_FIXTURES])
    def test_fixtures(self, name, c):
        assert len(self._level_sizes(c.facet_polyhedra)) == c.dim - c.lineality_dim, name

    @pytest.mark.parametrize("kind,seed", [("cone", 601), ("polytope", 602),
                                           ("polyhedron", 603)])
    def test_seeded_polyhedra(self, kind, seed):
        rng = random.Random(seed)
        for _ in range(25):
            p = TestCanonicalFormAgainstLP._random_polyhedron(rng, kind)
            self._level_sizes([p])

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(_drawn_fan_objects())
    def test_drawn_fans(self, obj):
        try:
            c = fan_from_obj(obj)
        except ValueError:  # equal rays or identical cells
            assume(False)
        self._level_sizes(c.facet_polyhedra)

    @pytest.mark.parametrize("p, sizes", [
        # the vertex at the origin has no key rows, only its tight mask
        (Polyhedron.from_vertices([[0, 0], [1, 0], [0, 1], [1, 1]]), [4, 4]),
        (Polyhedron.from_vertices([[0, 0], [1, 0]], [[0, 1]]), [3, 2]),
        # the apex cut by one more facet is the apex again, and no face of it
        (Polyhedron.cone([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), [3, 3, 1]),
        (Polyhedron.cone([[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]]), [4, 4, 1]),
    ], ids=["square", "half-strip", "orthant", "square-cone"])
    def test_origin_vertex_and_apex(self, p, sizes):
        assert self._level_sizes([p]) == sizes


# ---------------------------------------------------------------------------
# canonical rows read from the ray pool, against the general path


def _general(p):
    """p rebuilt from its generators, so its canonical form reduces its own
    rows."""
    return Polyhedron(p.ambient_dim, p.vertices, p.rays, p.lineality)


def _cells_reducing(c, monkeypatch):
    """Per cell of c, whether `facet_polyhedra` builds its record by reducing
    rows itself rather than reading the canonical rows of the complex's
    pool.  The rows are counted on an in-memory copy of c, whose pool is
    built first (it reduces the pool rays) and whose cells must then have
    the records of c's; `dd_cone`'s own primitive rows are not counted."""
    copy = _copy(c)
    copy._pool
    counts, quiet = [], [False]
    init, dd_cone = polyhedral._Record.__init__, polyhedral.dd_cone

    def counted_init(rec, *args):
        counts.append(0)
        init(rec, *args)

    def counted(f):
        def g(*args):
            counts[-1] += not quiet[0]
            return f(*args)
        return g

    def quiet_dd_cone(*args):
        quiet[0] = True
        try:
            return dd_cone(*args)
        finally:
            quiet[0] = False

    with monkeypatch.context() as m:
        m.setattr(polyhedral._Record, "__init__", counted_init)
        m.setattr(polyhedral, "dd_cone", quiet_dd_cone)
        m.setattr(polyhedral, "_int_reduce", counted(_int_reduce))
        m.setattr(polyhedral, "_primitive", counted(_primitive))
        cells = copy.facet_polyhedra
    assert len(counts) == len(cells)
    assert [_record_fields(p) for p in cells] == [_record_fields(p) for p in c.facet_polyhedra]
    return [bool(n) for n in counts]


def _assert_pool_rows_change_nothing(c, monkeypatch):
    """Every cell's record equals the general path's; a cone whose true
    lineality is the declared one reads its pool's rows, and any other cell
    takes the general path."""
    for p, general in zip(c.facet_polyhedra, _cells_reducing(c, monkeypatch)):
        assert general == (bool(p.vertices) or len(p.canonical_key[1]) > len(c.lineality))
        assert _record_fields(p) == _record_fields(_general(p))
        assert p.canonical_key == _general(p).canonical_key


class TestPoolCanonicalRows:
    @pytest.mark.parametrize("name,c", _RIDGE_FIXTURES, ids=[name for name, _ in _RIDGE_FIXTURES])
    def test_fixtures(self, name, c, monkeypatch):
        for complex_ in (_copy(c), _loaded(c)):
            _assert_pool_rows_change_nothing(complex_, monkeypatch)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_drawn_fan_objects())
    def test_drawn_fans(self, obj):
        try:
            c = fan_from_obj(obj)
        except ValueError:  # equal rays or identical cells
            assume(False)
        with pytest.MonkeyPatch.context() as monkeypatch:
            _assert_pool_rows_change_nothing(c, monkeypatch)
            _assert_pool_rows_change_nothing(_copy(c), monkeypatch)

    def test_reduction_under_the_all_ones_lineality(self, monkeypatch):
        # (1, 0, 0) has a nonzero first coordinate, so reducing it modulo
        # (1, 1, 1) changes the row
        obj = {"ambient_dim": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "vertices": [],
               "lineality": [[1, 1, 1]], "cells": [{"r": [0]}, {"r": [1]}, {"r": [2]}],
               "weights": [1, 1, 1]}
        for c in (fan_from_obj(obj), _copy(fan_from_obj(obj))):
            first = c.facet_polyhedra[0]
            assert c._pool[1][(1, 0, 0)] == (0, -1, -1)
            assert [row for row, _ in first._rec.key_rays] == [(0, -1, -1)]
            assert first.canonical_key[3] == ((0, -1, -1),)
            assert not _cells_reducing(c, monkeypatch)[0]
            _assert_pool_rows_change_nothing(c, monkeypatch)

    def test_rays_equal_modulo_the_lineality_in_memory(self, monkeypatch):
        # the loader and the constructor reject these two rays; pooling
        # keeps the first, and the cell is the one the three rays span
        rays = ((F(1), F(0), F(0)), (F(0), F(-1), F(-1)), (F(0), F(1), F(0)))
        args = (rays, ((F(1), F(1), F(1)),), (((), (0, 1, 2)),))
        with pytest.raises(ValueError, match=r"^rays \[1, 0, 0\] and \[0, -1, -1\] are "
                                             "equal modulo the lineality$"):
            Complex(3, (), *args)
        c = Complex.pooled(3, (), *args)
        assert c.ray_pool == rays[::2]
        p = c.facet_polyhedra[0]
        assert p.canonical_key == Polyhedron(3, (), rays, args[1]).canonical_key
        assert len(p.rays) == 2 and len(p.canonical_key[3]) == 2
        _assert_pool_rows_change_nothing(c, monkeypatch)

    def test_extra_lineality_takes_the_general_path(self, monkeypatch):
        e3 = [[0, 0, 1]]
        c = Complex.from_facets([Polyhedron.cone([r], lineality=e3, ambient_dim=3)
                                 for r in ([1, 0, 0], [0, 1, 0], [-1, -1, 0])])
        assert all(_cells_reducing(c, monkeypatch))
        _assert_pool_rows_change_nothing(c, monkeypatch)
        _assert_pool_rows_change_nothing(_loaded(c), monkeypatch)

    def test_vertices_take_the_general_path(self, monkeypatch):
        c = fan_from_obj(RATIONAL_COMPLEX)
        assert all(_cells_reducing(c, monkeypatch))
        _assert_pool_rows_change_nothing(c, monkeypatch)

    def test_cells_hold_their_records(self, monkeypatch):
        # facet_polyhedra builds every cell's record, so validation runs no
        # double description of its own
        calls = []
        real = polyhedral.dd_cone
        monkeypatch.setattr(polyhedral, "dd_cone", lambda *args: calls.append(args) or real(*args))
        for name, c in _RIDGE_FIXTURES:
            for complex_ in (_copy(c), _loaded(c)):
                before = len(calls)
                cells = complex_.facet_polyhedra
                assert all("_rec" in p.__dict__ for p in cells), name
                assert len(calls) - before == len(cells), name
                validate_complex(complex_)
                assert len(calls) - before == len(cells), name


# ---------------------------------------------------------------------------
# the face test and the pairwise fit on tight masks, against the Fraction
# path they replaced (merged facet descriptions, dot-product tightness and
# containment: test_polyhedral.oracle_is_face_of and oracle_fit_issues)


def _assert_fit_matches_the_oracle(c):
    """The default report names the purity issues and then the oracle's
    coinciding pairs, `validate_complex(c, pairwise=True)` adds the oracle's
    other fit issues, so each oracle issue appears exactly once, and
    `is_face_of` agrees with the oracle on each nonempty pairwise
    intersection in both of its cells; returns the number of fit issues."""
    report = validate_complex(c, pairwise=True)
    fit = oracle_fit_issues(c)
    coincide = [m for m in fit if m.endswith(" coincide")]
    default = list(c._validation.issues)
    assert all(m.endswith(f" expected {c.dim}") for m in default[:len(default) - len(coincide)])
    assert default[len(default) - len(coincide):] == coincide
    assert list(report.issues) == default + [m for m in fit if m not in coincide]
    cells = c.facet_polyhedra
    for p, q in itertools.combinations(cells, 2):
        inter = intersect(p, q)
        if inter is not None:
            for sigma in (p, q):
                assert is_face_of(inter, sigma) == oracle_is_face_of(inter, sigma)
    return len(fit)


def _assert_face_tests_match_the_oracle(c, rng, per_level=8):
    """`is_face_of` agrees with the oracle on sampled faces of every level,
    in a cell they are a face of and in a random cell, and on cells in
    other cells."""
    cells = c.facet_polyhedra
    for level in _face_levels(cells):
        for face, fids, _ in rng.sample(level, min(per_level, len(level))):
            for i in (fids[0], rng.randrange(len(cells))):
                got = is_face_of(face, cells[i])
                assert got == oracle_is_face_of(face, cells[i])
                assert got or i not in fids
    for _ in range(per_level):
        tau, sigma = rng.choice(cells), rng.choice(cells)
        assert is_face_of(tau, sigma) == oracle_is_face_of(tau, sigma)


def _outside_rays(c):
    """The primitive sums of two pool rays that equal no pool ray modulo the
    lineality and lie outside it, in the order of the pairs."""
    lin = subspace_canonical_basis(c.lineality)

    def key(r):
        r = reduce_mod_subspace(r, lin)
        return None if is_zero(r) else primitive_vector(r)

    taken = {key(r) for r in c.ray_pool}
    out = {}
    for a, b in itertools.combinations(c.ray_pool, 2):
        ab = tuple(x + y for x, y in zip(a, b))
        if (k := key(ab)) is not None and k not in taken:
            out.setdefault(k, primitive_vector(ab))
    return list(out.values())


def _perturbed(c, rng):
    """c with one generator of one cell swapped for another generator of
    the same kind: a ray, or a vertex when the pool has one ray.  Half the
    ray swaps take a ray from outside the pool (`_outside_rays`), which
    cuts through the cells around it; the others, and vertex swaps, take
    another pool generator.  None when the swap makes the cell another
    one, which the constructor rejects."""
    cells, rays = list(c.cells), c.ray_pool
    kind = int(len(rays) > 1)  # 1: rays, 0: vertices
    pool = (c.vertex_pool, rays)[kind]
    i = rng.choice([i for i, cell in enumerate(cells) if cell[kind]])
    gens = set(cells[i][kind])
    gens.remove(rng.choice(sorted(gens)))
    if kind and rng.random() < 0.5 and (outside := _outside_rays(c)):
        rays += (rng.choice(outside),)
        gens.add(len(pool))
    else:
        gens.add(rng.choice([j for j in range(len(pool)) if j not in cells[i][kind]]))
    cell = list(cells[i])
    cell[kind] = tuple(sorted(gens))
    cells[i] = tuple(cell)
    twin = next((j for j, other in enumerate(cells) if other == cells[i] and j != i), None)
    if twin is not None:
        i, j = sorted((i, twin))
        with pytest.raises(ValueError, match=f"^cells {i} and {j} are identical$"):
            Complex(c.ambient_dim, c.vertex_pool, rays, c.lineality, tuple(cells))
        return None
    return Complex(c.ambient_dim, c.vertex_pool, rays, c.lineality, tuple(cells), c.weights)


_HEXAGON = [[2, 0], [1, 2], [-1, 2], [-2, 0], [-1, -2], [1, -2]]
_FIT_FIXTURES = [
    ("U(3,4)", bergman_fine(Matroid.uniform(3, 4))),
    ("U(3,5)", bergman_fine(Matroid.uniform(3, 5))),
    ("tropical-plane", standard_tropical_plane()),
    ("cube3", cube_normal_fan(3)),
    ("two-planes", two_planes_fan()),
    ("rational", fan_from_obj(RATIONAL_COMPLEX)),
    ("hexagon", normal_fan(_HEXAGON)),
]
# per fixture, of its 20 seeded perturbations: those with a fit defect, and
# those the constructor rejects for two identical cells
_PERTURBATION_DEFECTS = {"U(3,4)": (12, 1), "U(3,5)": (3, 2), "tropical-plane": (6, 12),
                         "cube3": (17, 3), "two-planes": (5, 5), "rational": (18, 0),
                         "hexagon": (17, 2)}


def _random_2_cone(rng):
    return Polyhedron.cone([_direction(rng, 3, 2) for _ in range(2)], ambient_dim=3)


def _random_triangle(rng):
    verts = [[F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(2)] for _ in range(3)]
    rays = [_direction(rng, 2, 2) for _ in range(rng.randint(0, 2))]
    return Polyhedron.from_vertices(verts, [r for r in rays if any(r)], ambient_dim=2)


_FACE_FIXTURES = _FIT_FIXTURES + [
    (name, c) for name, c in _dimension_fixtures()
    if len(c) <= 45 and name not in dict(_FIT_FIXTURES)]


class TestFaceTestAndFitAgainstTheFractionPath:
    @pytest.mark.parametrize("name,c", _FACE_FIXTURES, ids=[name for name, _ in _FACE_FIXTURES])
    def test_fixtures(self, name, c):
        issues = _assert_fit_matches_the_oracle(_copy(c))
        # the complexes the perturbations start from are valid; a section
        # fixture of overlapping strips is not
        assert issues == (name == "unbounded-lineality"), name
        _assert_face_tests_match_the_oracle(_copy(c), random.Random(name))

    @pytest.mark.parametrize("name,c", _FIT_FIXTURES, ids=[name for name, _ in _FIT_FIXTURES])
    def test_seeded_perturbations(self, name, c):
        rng = random.Random(name)
        defects = rejected = 0
        for _ in range(20):
            perturbed = _perturbed(c, rng)
            if perturbed is None:  # two identical cells, which the constructor rejected
                rejected += 1
                continue
            defects += _assert_fit_matches_the_oracle(perturbed) > 0
            _assert_face_tests_match_the_oracle(perturbed, rng, per_level=4)
        # every pair of the tropical plane's rays is a cell, so each swap
        # within the pool repeats one, and the two planes' pool swaps fit:
        # their fit defects come from the rays swapped in from outside
        assert (defects, rejected) == _PERTURBATION_DEFECTS[name], name

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_drawn_fan_objects())
    def test_drawn_fans(self, obj):
        try:
            c = fan_from_obj(obj)
        except ValueError:  # equal rays or identical cells
            assume(False)
        _assert_fit_matches_the_oracle(c)
        _assert_face_tests_match_the_oracle(c, random.Random(repr(obj)), per_level=4)

    @pytest.mark.parametrize("kind", ["2-cones-in-R3", "triangles-with-rays", "mixed"])
    def test_random_pairs(self, kind):
        rng = random.Random(kind)
        pairs = defects = 0
        while pairs < 200:
            if kind == "2-cones-in-R3":
                p, q = _random_2_cone(rng), _random_2_cone(rng)
            elif kind == "triangles-with-rays":
                p, q = _random_triangle(rng), _random_triangle(rng)
            else:
                p = Polyhedron.cone([_direction(rng, 2, 2) for _ in range(2)], ambient_dim=2)
                q = _random_triangle(rng)
            if p.dim != q.dim:
                continue
            pairs += 1
            defects += _assert_fit_matches_the_oracle(Complex.from_facets([p, q]))
        assert 10 <= defects <= pairs - 10, defects

    def test_overlap_repro(self):
        c = fan_from_obj({"ambient_dim": 2, "rays": [[1, 0], [0, 1], [1, 1]], "vertices": [],
                          "lineality": [], "cells": [{"r": [0, 1]}, {"r": [0, 2]}],
                          "weights": [1, 1]})
        report = validate_complex(c, pairwise=True)
        assert not report.valid
        assert report.issues == ("facets 0 and 1 do not meet in a common face",)
        assert _assert_fit_matches_the_oracle(c) == 1

    @pytest.mark.parametrize("rays, cells, pairs", [
        # the ray (1, 1) lies inside cone((1, 0), (0, 1)), so the two cells
        # are one cone
        ([[1, 0], [0, 1], [1, 1]], [[0, 1], [0, 1, 2]], [(0, 1)]),
        # cells 0, 2, 3 are one quadrant and 1, 4 another: pairs in index order
        ([[1, 0], [0, 1], [1, 1], [1, 2], [-1, 0], [-1, 1]],
         [[0, 1], [1, 4], [0, 1, 2], [0, 1, 3], [1, 4, 5]], [(0, 2), (0, 3), (1, 4), (2, 3)]),
    ], ids=["repro", "two-groups"])
    def test_coinciding_cells(self, rays, cells, pairs):
        # the default report names every pair of cells that are one cone
        c = fan_from_obj({"ambient_dim": 2, "rays": rays, "vertices": [], "lineality": [],
                          "cells": [{"r": r} for r in cells], "weights": [1] * len(cells)})
        assert validate_complex(c) == (False, 2, tuple(
            f"facets {i} and {j} coincide" for i, j in pairs))
        assert _assert_fit_matches_the_oracle(c) == len(pairs)

    def test_one_double_description_per_pair(self, monkeypatch):
        # the fit runs one dd_cone per pair that does not coincide; cells
        # 0 and 3 are one cone given twice, which the default report names
        c = Complex.from_facets([Polyhedron.cone(rays, ambient_dim=2) for rays in (
            [[1, 0], [0, 1]], [[0, 1], [-1, 0]], [[-1, 0], [0, -1], [1, -1]],
            [[1, 0], [1, 1], [0, 1]])])
        c._validation
        calls = []
        real = polyhedral.dd_cone
        monkeypatch.setattr(polyhedral, "dd_cone",
                            lambda *args: calls.append(args) or real(*args))
        report = validate_complex(c, pairwise=True)
        assert report.issues == c._validation.issues == ("facets 0 and 3 coincide",)
        assert len(calls) == 5
