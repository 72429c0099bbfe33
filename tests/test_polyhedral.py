import itertools
import random
from fractions import Fraction as F

import pytest

from tropicon import polyhedral
from tropicon.polyhedral import (
    AffineHyperplane, Complex, EmptyPolyhedron, HRep, Polyhedron, _face, _face_key,
    _level_below, is_face_of, validate_complex,
)
from tropicon.ratlin import ZeroVector, dot, vec


def face_by_mask(p, tight):
    """The face of p on which the facet inequalities of p with bit set in
    the mask `tight` are equalities, or None when it is empty."""
    key = _face_key(p, tight)
    return None if key is None else _face(p, key)


def _face_levels(cells):
    """The face walk from the codimension-one faces down, one sorted list
    per level: `_level_below` from the cells until a level is empty."""
    level = _level_below(cells)
    while level:
        yield level
        level = _level_below(cells, level)


# ---------------------------------------------------------------------------
# the Fraction face tests that `is_face_of` and the pairwise fit replaced,
# kept as their oracle: containment and tightness by dot products with the
# facet description, intersections by a merged facet description


def hrep(p):
    """The facet description of p as fractions, from its record's integer
    rows: the irredundant facet inequalities a.x >= b, every facet but the
    trivial x0 >= 0, and a basis of the equations a.x = b.  With vertices,
    column 0 of a row holds -b."""
    rec = p._rec
    k = int(rec.affine)

    def row(a):
        return tuple(map(F, a[k:])), F(-a[0]) if k else F(0)

    return HRep(p.ambient_dim, tuple(row(a) for a in rec.facets if any(a[k:])),
                tuple(map(row, rec.eqs)))


def face_is_tight(face, a, b):
    """Whether the valid inequality a.x >= b is an equality on all of face."""
    if face.vertices:
        if any(dot(a, v) != b for v in face.vertices):
            return False
    elif b != 0:
        return False
    return all(dot(a, r) == 0 for r in face.rays) and \
        all(dot(a, l) == 0 for l in face.lineality)


def contains(p, q):
    """Whether q lies in p, by the signs of p's facet and equation rows on
    q's generators (the origin for a cone), lineality both ways."""
    h = hrep(p)
    pts = q.vertices or (tuple(F(0) for _ in range(q.ambient_dim)),)
    dirs = list(q.rays) + list(q.lineality) + [tuple(-x for x in l) for l in q.lineality]
    return all(dot(a, x) >= b for a, b in h.inequalities for x in pts) and \
        all(dot(a, x) == b for a, b in h.equations for x in pts) and \
        all(dot(a, d) >= 0 for a, _ in h.inequalities for d in dirs) and \
        all(dot(a, d) == 0 for a, _ in h.equations for d in dirs)


def intersect(p, q):
    """The intersection of two polyhedra from their merged facet
    descriptions, or None when it is empty."""
    h1, h2 = hrep(p), hrep(q)
    merged = HRep(p.ambient_dim, h1.inequalities + h2.inequalities,
                  h1.equations + h2.equations)
    try:
        return Polyhedron.from_hrep(merged)
    except EmptyPolyhedron:
        return None


def oracle_is_face_of(tau, sigma):
    """Face test by canonical keys: tau lies in sigma and equals, as a point
    set, sigma cut down by every facet inequality of sigma tight on tau."""
    if not contains(sigma, tau):
        return False
    verts, rays = sigma.vertices, sigma.rays
    for a, b in hrep(sigma).inequalities:
        if face_is_tight(tau, a, b):
            verts = tuple(v for v in verts if dot(a, v) == b)
            rays = tuple(r for r in rays if dot(a, r) == 0)
    cur = Polyhedron(sigma.ambient_dim, verts, rays, sigma.lineality)
    return cur.canonical_key == tau.canonical_key


def oracle_fit_issues(c):
    """The pairwise-fit issues of `validate_complex(c, pairwise=True)` by
    the merged facet descriptions and the oracle face test."""
    facets = c.facet_polyhedra
    issues = []
    for i, j in itertools.combinations(range(len(facets)), 2):
        if facets[i].canonical_key == facets[j].canonical_key:
            issues.append(f"facets {i} and {j} coincide")
            continue
        inter = intersect(facets[i], facets[j])
        if inter is not None and not (oracle_is_face_of(inter, facets[i])
                                      and oracle_is_face_of(inter, facets[j])):
            issues.append(f"facets {i} and {j} do not meet in a common face")
    return issues


def codim1_faces(p):
    """The faces of dimension dim(p) - 1, one per facet inequality of p in
    the order of `hrep(p).inequalities`: the first level of the face walk of
    p alone, ordered by cutting inequality."""
    return [face for face, _, _ in sorted(next(_face_levels([p]), []), key=lambda ridge: ridge[2])]


def fm_feasible(n, constraints):
    """Whether some x in Q^n satisfies every (a, b, relation) row, relation
    "=", ">=" or ">", by Fourier-Motzkin elimination (Schrijver 1986, 12.2).
    Each variable in turn is solved from an equation that has it; else every
    row with a positive coefficient on it is added to every row with a
    negative one, both scaled to coefficient +1 and -1, strict when either
    is.  Before each step the rows are scaled by a positive number to a
    leading coefficient of +1 or -1 and kept once, and a row 0 rel b is
    dropped when it holds and ends the search when it fails."""
    rows = [(tuple(map(F, a)), F(b), rel) for a, b, rel in constraints]
    for j in range(n + 1):
        kept = set()
        for a, b, rel in rows:
            lead = next((abs(x) for x in a if x), None)
            if lead:
                kept.add((tuple(x / lead for x in a), b / lead, rel))
            elif not (b == 0 if rel == "=" else b < 0 or b == 0 and rel == ">="):
                return False
        if j == n:
            return True
        eq = next((r for r in kept if r[2] == "=" and r[0][j]), None)
        if eq is not None:
            c, d, _ = eq
            rows = [(tuple(x - a[j] / c[j] * y for x, y in zip(a, c)), b - a[j] / c[j] * d, rel)
                    for a, b, rel in kept - {eq}]
            continue
        rows = [r for r in kept if not r[0][j]]
        for (a, b, s), (c, d, t) in itertools.product(kept, kept):
            if a[j] > 0 > c[j]:
                rows.append((tuple(x / a[j] - y / c[j] for x, y in zip(a, c)),
                             b / a[j] - d / c[j], ">" if ">" in (s, t) else ">="))


def satisfies(x, constraints):
    """Whether the point x satisfies every (a, b, relation) row, by
    substitution."""
    holds = {"=": lambda v, b: v == b, ">=": lambda v, b: v >= b, ">": lambda v, b: v > b}
    return all(holds[rel](dot(vec(a), x), F(b)) for a, b, rel in constraints)


def cone(*rays, lineality=(), n=None):
    return Polyhedron.cone(rays, lineality, ambient_dim=n)


class TestDualDescription:
    def test_coordinate_cone(self):
        h = hrep(cone([1, 0], [0, 1]))
        assert sorted(h.inequalities) == [
            (vec([0, 1]), F(0)), (vec([1, 0]), F(0))]
        assert h.equations == ()

    def test_unit_square(self):
        sq = Polyhedron.from_vertices([[0, 0], [1, 0], [0, 1], [1, 1]])
        ineqs = sorted(hrep(sq).inequalities)
        assert ineqs == [
            (vec([-1, 0]), F(-1)), (vec([0, -1]), F(-1)),
            (vec([0, 1]), F(0)), (vec([1, 0]), F(0))]

    def test_halfplane_decomposition(self):
        p = Polyhedron.from_hrep(HRep(2, ((vec([1, 0]), F(0)),), ()))
        assert p.vertices == ()  # implicit apex at the origin
        assert p.rays == (vec([1, 0]),)
        assert p.lineality == (vec([0, 1]),)

    def test_empty_hrep(self):
        with pytest.raises(EmptyPolyhedron):
            Polyhedron.from_hrep(HRep(1, ((vec([1]), F(1)), (vec([-1]), F(0))), ()))

    def test_round_trip_random_cones(self):
        rng = random.Random(2718)
        for _ in range(50):
            n = rng.randint(1, 4)
            k = rng.randint(1, n + 2)
            rays = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)]
            rays = [r for r in rays if any(r)]
            if not rays:
                continue
            p = cone(*rays, n=n)
            q = Polyhedron.from_hrep(hrep(p))
            assert q.canonical_key == p.canonical_key

    def test_hrep_inequalities_valid_and_irredundant(self):
        rng = random.Random(5050)
        for _ in range(20):
            n = rng.randint(2, 4)
            rays = [[rng.randint(-4, 4) for _ in range(n)]
                    for _ in range(rng.randint(2, n + 2))]
            rays = [r for r in rays if any(r)]
            if not rays:
                continue
            p = cone(*rays, n=n)
            h = hrep(p)
            for a, b in h.inequalities:
                assert b == 0
                assert all(dot(a, vec(r)) >= 0 for r in rays)
            # irredundancy: dropping any inequality admits a violating point
            for i, (a_i, _) in enumerate(h.inequalities):
                cons = [(a_j, F(0), ">=") for j, (a_j, _) in
                        enumerate(h.inequalities) if j != i]
                cons += [(e, F(0), "=") for e, _ in h.equations]
                cons.append((tuple(-x for x in a_i), F(0), ">"))
                assert fm_feasible(n, cons)

    def test_round_trip_random_polytopes(self):
        rng = random.Random(31415)
        for _ in range(25):
            n = rng.randint(1, 3)
            pts = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                   for _ in range(rng.randint(1, 6))]
            p = Polyhedron.from_vertices(pts)
            q = Polyhedron.from_hrep(hrep(p))
            assert q.canonical_key == p.canonical_key


class TestDimLinealityPointed:
    def test_pointed_cone(self):
        p = cone([1, 0], [0, 1])
        d, lin, pointed = p.dim, p.canonical_key[1], not p.canonical_key[1]
        assert (d, lin, pointed) == (2, (), True)

    def test_halfplane(self):
        p = Polyhedron.from_hrep(HRep(2, ((vec([1, 0]), F(0)),), ()))
        d, lin, pointed = p.dim, p.canonical_key[1], not p.canonical_key[1]
        assert d == 2 and lin == (vec([0, 1]),) and not pointed

    def test_segment(self):
        p = Polyhedron.from_vertices([[0, 0, 0], [1, 0, 0]])
        d, lin, pointed = p.dim, p.canonical_key[1], not p.canonical_key[1]
        assert d == 1 and lin == () and pointed

    def test_hidden_lineality_in_rays(self):
        p = cone([1, 0], [-1, 0], [0, 1])
        d, lin, pointed = p.dim, p.canonical_key[1], not p.canonical_key[1]
        assert d == 2 and lin == (vec([1, 0]),) and not pointed


class TestCodim1Faces:
    def test_quadrant(self):
        faces = codim1_faces(cone([1, 0], [0, 1]))
        keys = {f.canonical_key for f in faces}
        assert keys == {cone([1, 0]).canonical_key, cone([0, 1]).canonical_key}

    def test_cube_has_six_facets(self):
        cube = Polyhedron.from_vertices(
            [[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)])
        faces = codim1_faces(cube)
        assert len(faces) == 6
        assert all(f.dim == 2 for f in faces)

    def test_simplicial_drop_one_rule_matches_hrep_route(self):
        gens = [[1, 0, 0], [1, 2, 0], [1, 1, 3]]
        p = cone(*gens)
        by_rule = {cone(*(g for j, g in enumerate(gens) if j != i)).canonical_key
                   for i in range(3)}
        by_hrep = {f.canonical_key for f in codim1_faces(p)}
        assert by_rule == by_hrep

    def test_faces_are_faces_of_correct_dim(self):
        p = cone([2, 0, 1], [0, 1, 0], [1, 1, 1], [0, 0, 1])
        for f in codim1_faces(p):
            assert is_face_of(f, p)
            assert f.dim == p.dim - 1


    @pytest.mark.parametrize("kind,seed", [("cone", 811), ("polytope", 812),
                                           ("polyhedron", 813)])
    def test_one_face_per_facet_inequality(self, kind, seed):
        # an irredundant facet description cuts out distinct facets, each
        # tight on exactly the inequality that produced it
        rng = random.Random(seed)
        for _ in range(60):
            p = TestCanonicalFormAgainstLP._random_polyhedron(rng, kind)
            ineqs = hrep(p).inequalities
            faces = codim1_faces(p)
            assert len(faces) == len(ineqs)
            assert len({f.canonical_key for f in faces}) == len(faces)
            for i, f in enumerate(faces):
                assert [j for j, (a, b) in enumerate(ineqs)
                        if face_is_tight(f, a, b)] == [i]
                assert f.dim == p.dim - 1


@pytest.mark.parametrize("build, message", [
    (lambda: Polyhedron(2, [[0, 0, 0]]), "generator has wrong ambient dimension"),
    (lambda: Polyhedron.cone([]), "ambient_dim required for a trivial cone"),
    (lambda: Polyhedron.from_vertices([]), "ambient_dim required without vertices"),
    (lambda: cone([1, 0]).contains_point(vec([1])), "dimension mismatch"),
    (lambda: cone([1, 0]).contains_direction(vec([1, 0, 0])), "dimension mismatch"),
    (lambda: Complex.from_facets([]), "ambient_dim required without facets"),
    (lambda: Complex.from_facets([cone([1, 0]), cone([1, 0, 0])]),
     "facet ambient dimension mismatch"),
], ids=["generator", "trivial-cone", "no-vertices", "point", "direction", "no-facets",
        "facet-dimension"])
def test_input_checks(build, message):
    with pytest.raises(ValueError) as e:
        build()
    assert str(e.value) == message


class TestIsFaceOf:
    def test_ray_of_quadrant(self):
        assert is_face_of(cone([1, 0]), cone([1, 0], [0, 1]))

    def test_interior_ray_is_not_a_face(self):
        assert not is_face_of(cone([1, 1]), cone([1, 0], [0, 1]))

    def test_apex_is_a_face(self):
        assert is_face_of(cone([], n=2), cone([1, 0], [0, 1]))
        assert is_face_of(cone([], n=3), cone([1, 0, 0], [1, 2, 0], [1, 1, 3]))

    def test_whole_polyhedron_is_a_face(self):
        p = cone([1, 0], [0, 1])
        assert is_face_of(p, p)

    def test_vertex_of_segment(self):
        seg = Polyhedron.from_vertices([[0], [1]])
        assert is_face_of(Polyhedron.from_vertices([[1]]), seg)
        assert not is_face_of(Polyhedron.from_vertices([[F(1, 2)]]), seg)

    def test_ambient_dimensions_must_agree(self):
        with pytest.raises(ValueError, match="^ambient dimension mismatch$"):
            is_face_of(cone([1, 0]), cone([1, 0, 0], [0, 1, 0]))


class TestCanonicalForm:
    def test_redundant_generators_ignored(self):
        assert cone([1, 0], [0, 1], [1, 1]) == cone([0, 1], [1, 0])

    def test_opposite_rays_become_lineality(self):
        assert cone([1, 0], [-1, 0]) == cone([], lineality=[[1, 0]], n=2)

    def test_scaling_invariance(self):
        assert cone([2, 4]) == cone([1, 2])

    def test_distinct_cones_differ(self):
        assert cone([1, 0]) != cone([0, 1])

    def test_hashable_and_dedupable(self):
        assert len({cone([1, 0], [0, 1]), cone([0, 1], [1, 0])}) == 1


def _lp_extreme_generators(p):
    """Reduced generators of p that no linear system writes from the others,
    by the Fourier-Motzkin oracle: rays as nonnegative combinations of the
    other rays, points as convex combinations of the other points plus a
    nonnegative ray combination."""
    from tropicon.ratlin import primitive_vector, reduce_mod_subspace
    n, lin = p.ambient_dim, p.canonical_key[1]
    verts = sorted({reduce_mod_subspace(v, lin) for v in p.vertices})
    rays = sorted({primitive_vector(r) for r in
                   (reduce_mod_subspace(r, lin) for r in p.rays) if any(r)})

    def writable(target, points, directions):
        """Whether target is in conv(points) + cone(directions), or in
        cone(directions) when points is None."""
        cols = (points or []) + directions
        if not cols or points == []:
            return False
        cons = [(tuple(c[i] for c in cols), target[i], "=") for i in range(n)]
        if points:
            cons.append((tuple(F(int(j < len(points))) for j in range(len(cols))),
                         F(1), "="))
        cons += [(tuple(F(int(i == j)) for i in range(len(cols))), F(0), ">=")
                 for j in range(len(cols))]
        return fm_feasible(len(cols), cons)

    ext_rays = [r for r in rays if not writable(r, None, [o for o in rays if o != r])]
    ext_verts = [v for v in verts if not writable(v, [o for o in verts if o != v], rays)]
    if ext_verts == [vec([0] * n)]:
        ext_verts = []
    return tuple(ext_verts), tuple(ext_rays)


class TestCanonicalFormAgainstLP:
    """The rank test on facet tight sets keeps exactly the generators that
    the Fourier-Motzkin oracle finds extreme."""

    @staticmethod
    def _random_polyhedron(rng, kind):
        n = rng.randint(1, 4)

        def point():
            return [F(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(n)]

        def direction():
            while True:
                d = [rng.randint(-3, 3) for _ in range(n)]
                if any(d):
                    return d

        if kind == "polytope":
            rays, lin = [], []
        else:
            rays = [direction() for _ in range(rng.randint(1, n + 1))]
            lin = [direction() for _ in range(rng.randint(0, 1))]
        if kind == "cone":
            # redundant, rescaled and opposite rays (hidden lineality)
            rays += [[2 * x for x in rng.choice(rays)],
                     [a + b for a, b in zip(rng.choice(rays), rng.choice(rays))]]
            if rng.random() < 0.3:
                rays.append([-x for x in rng.choice(rays)])
            return Polyhedron.cone([r for r in rays if any(r)], lin, ambient_dim=n)
        pts = [point() for _ in range(rng.randint(1, n + 1))]
        # redundant points: a midpoint and a point pushed along a ray
        a, b = rng.choice(pts), rng.choice(pts)
        pts.append([(x + y) / 2 for x, y in zip(a, b)])
        if rays:
            pts.append([x + y for x, y in zip(rng.choice(pts), rng.choice(rays))])
        return Polyhedron.from_vertices(pts, rays, lin, ambient_dim=n)

    @pytest.mark.parametrize("kind,seed", [("cone", 601), ("polytope", 602),
                                           ("polyhedron", 603)])
    def test_extreme_generators_match_lp_oracle(self, kind, seed):
        rng = random.Random(seed)
        for _ in range(25):
            p = self._random_polyhedron(rng, kind)
            _, _, verts, rays = p.canonical_key
            assert (verts, rays) == _lp_extreme_generators(p)


class TestFacesAgainstFreshPolyhedra:
    """Faces read off their cell's canonical generators carry the canonical
    key and dimension that a fresh polyhedron on the same generators derives
    from its own facet description."""

    @pytest.mark.parametrize("kind,seed", [("cone", 601), ("polytope", 602),
                                           ("polyhedron", 603)])
    def test_faces_and_their_faces(self, kind, seed):
        rng = random.Random(seed)
        cells = [TestCanonicalFormAgainstLP._random_polyhedron(rng, kind)
                 for _ in range(25)]
        # the face through the origin vertex is a cone, whose key has no vertex
        cells.append(Polyhedron.from_vertices([[0, 0], [1, 0]], [[0, 1]]))
        for p in cells:
            faces = codim1_faces(p)
            faces += [g for f in faces for g in codim1_faces(f)]
            for f in faces:
                fresh = Polyhedron(f.ambient_dim, f.vertices, f.rays, f.lineality)
                assert f.canonical_key == fresh.canonical_key
                assert f.dim == fresh.dim


class TestIsFaceOfAgainstKeys:
    """is_face_of, which reads only the integer records, agrees with the
    face test by canonical keys on faces and on near misses of random
    polyhedra."""

    @staticmethod
    def _candidates(rng, p):
        n = p.ambient_dim
        faces = list(codim1_faces(p))
        faces += [g for f in faces for g in codim1_faces(f)]
        out = [p] + faces
        for _ in range(4):
            verts = [v for v in p.vertices if rng.random() < 0.5]
            rays = [r for r in p.rays if rng.random() < 0.5]
            out.append(Polyhedron(n, verts, rays, p.lineality))
        # halved copies: the same cone, a moved polytope or polyhedron
        out += [Polyhedron(n, [[x / 2 for x in v] for v in q.vertices],
                           q.rays, q.lineality) for q in [p] + faces]
        return out

    @pytest.mark.parametrize("kind,seed", [("cone", 701), ("polytope", 702),
                                           ("polyhedron", 703)])
    def test_agrees_with_canonical_keys(self, kind, seed):
        rng = random.Random(seed)
        for _ in range(20):
            p = TestCanonicalFormAgainstLP._random_polyhedron(rng, kind)
            for tau in self._candidates(rng, p):
                assert is_face_of(tau, p) == oracle_is_face_of(tau, p)

    def test_no_double_description_with_cached_facets(self, monkeypatch):
        sigma = Polyhedron.from_vertices([[0, 0, 0], [2, 0, 0], [0, 2, 0]],
                                         rays=[[0, 0, 1]])
        taus = codim1_faces(sigma) + [Polyhedron.from_vertices([[1, 1, 0]])]
        for p in [sigma] + taus:
            p._rec  # cache every facet record
        calls = []
        real = polyhedral.dd_cone
        monkeypatch.setattr(polyhedral, "dd_cone",
                            lambda *args: calls.append(args) or real(*args))
        assert [is_face_of(tau, sigma) for tau in taus] == [True] * 4 + [False]
        assert calls == []


class TestValidateComplex:
    def test_two_planes_is_valid(self):
        from tropicon.tropical import two_planes_fan
        report = validate_complex(two_planes_fan(), pairwise=True)
        assert report.valid
        assert report.dim == 2

    def test_overlapping_cones_flagged(self):
        c = Complex.from_facets(
            [cone([1, 0], [0, 1]), cone([1, 1], [1, -1])], ambient_dim=2)
        report = validate_complex(c, pairwise=True)
        assert not report.valid
        assert any("common face" in msg for msg in report.issues)

    def test_impure_complex_flagged(self):
        c = Complex.from_facets(
            [cone([1, 0, 0], [0, 1, 0]), cone([0, 0, 1])], ambient_dim=3)
        report = validate_complex(c)
        assert not report.valid
        assert any("dimension" in msg for msg in report.issues)

    def test_facet_missing_lineality_rejected(self):
        with pytest.raises(ValueError, match="lineality"):
            Complex.from_facets([cone([1, 0])], lineality=[[0, 1]], ambient_dim=2)

    def test_facet_with_lineality_as_opposite_rays_accepted(self):
        c = Complex.from_facets([cone([0, 1], [0, -1], [1, 0])],
                                lineality=[[0, 1]], ambient_dim=2)
        assert validate_complex(c).valid


class TestComplexWeights:
    def test_only_omitted_weights_are_unit_weights(self):
        cells = [cone([1, 0]), cone([0, 1])]
        assert Complex.from_facets(cells).weights == (1, 1)
        for weights in ([], (), [1]):
            with pytest.raises(ValueError, match="one weight per facet required"):
                Complex.from_facets(cells, weights=weights)

    @pytest.mark.parametrize("weight", [0.5, 2.0, True, F(1, 2), 0, -1],
                             ids=["float", "integral-float", "bool", "fraction", "zero",
                                  "negative"])
    def test_weights_are_positive_ints(self, weight):
        # a weight that a fan file cannot hold is refused when the complex is made
        with pytest.raises(ValueError, match="weights must be positive integers"):
            Complex.from_facets([cone([1, 0]), cone([0, 1])], weights=[1, weight])


def _from_rows(n, rows):
    """The polyhedron that rows in the (x0, x) frame generate."""
    verts = [[F(x, r[0]) for x in r[1:]] for r in rows if r[0]]
    return Polyhedron(n, verts, [r[1:] for r in rows if not r[0]])


class TestIntersect:
    def test_cones(self):
        a = cone([1, 0], [1, 2])
        b = cone([1, 2], [-1, 1])
        assert _from_rows(2, polyhedral._meet(a, b)) == cone([1, 2]) == intersect(a, b)

    def test_disjoint_polytopes(self):
        a = Polyhedron.from_vertices([[0], [1]])
        b = Polyhedron.from_vertices([[2], [3]])
        assert polyhedral._meet(a, b) == [] and intersect(a, b) is None


class TestAffineHyperplane:
    def test_normalizes_to_primitive(self):
        H = AffineHyperplane(vec([2, 4]), F(6))
        assert H.normal == vec([1, 2])
        assert H.offset == F(3)

    def test_zero_normal_rejected(self):
        with pytest.raises(ZeroVector):
            AffineHyperplane(vec([0, 0]), F(1))

    def test_equal_by_value(self):
        H = AffineHyperplane(vec([2, 4]), F(6))
        assert H == AffineHyperplane(vec([1, 2]), F(3))
        assert hash(H) == hash(AffineHyperplane(vec([1, 2]), F(3)))
        assert H != AffineHyperplane(vec([1, 2]), F(2))

    @pytest.mark.parametrize("normal, offset", [([1, 0], 1), ([0, -2, 3], 4)])
    def test_equal_as_sets(self, normal, offset):
        # (h, c) and (-h, -c) are one set; each keeps the pair it was given
        H = AffineHyperplane(vec(normal), F(offset))
        G = AffineHyperplane(vec([-x for x in normal]), F(-offset))
        assert H == G and hash(H) == hash(G)
        assert (G.normal, G.offset) == (tuple(-x for x in H.normal), -H.offset)
        assert H != AffineHyperplane(G.normal, H.offset)
        assert H != (H.normal, H.offset)


@pytest.mark.parametrize("value, field", [
    (cone([1, 0]), "rays"),
    (Complex.from_facets([cone([1, 0])]), "weights"),
    (AffineHyperplane(vec([1, 2]), F(3)), "offset"),
], ids=["polyhedron", "complex", "hyperplane"])
def test_fields_are_set_once(value, field):
    before = getattr(value, field)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(value, field, before)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(value, field)
    assert getattr(value, field) is before


def test_repr_names_the_class_and_every_field():
    assert repr(AffineHyperplane(vec([2, 0]), F(1))) == \
        "AffineHyperplane(normal=(Fraction(1, 1), Fraction(0, 1)), offset=Fraction(1, 2))"
    assert repr(Polyhedron.from_vertices([[F(1, 2), 0]], rays=[[0, 3]], lineality=[[2, 2]])) == (
        "Polyhedron(ambient_dim=2, vertices=((Fraction(1, 2), Fraction(0, 1)),), "
        "rays=((Fraction(0, 1), Fraction(1, 1)),), "
        "lineality=((Fraction(1, 1), Fraction(1, 1)),))")
