"""Rational polyhedra and pure polyhedral complexes.

A polyhedron is stored by generators (vertices, rays, lineality); cones leave
the vertex list empty and have an implicit apex at the origin.  The facet
description is computed lazily by an exact double description pass over
integer rows and cached; it is the only source of face structure: canonical
forms keep the generators whose tight facet sets have full rank, and a face
is the cell's canonical generators that lie on its tight inequalities, so its
canonical key needs no double description of its own.  Complexes store shared
generator pools plus per-facet index sets; one face walk, `lower_faces`, gives
the ridges (cached per complex) with the facet inequality of each cell that
cuts each ridge out, and the faces below are cut out of the same cells by
more of their inequalities.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence, Union

from .ratlin import (
    Mat, Vec, ZeroVector, _int_kernel, _primitive_ints, add, dot, frac,
    identity_mat, is_zero, matrix_rank, primitive_vector, reduce_mod_subspace,
    saturation_basis, scale, sub, neg, subspace_canonical_basis,
    subspace_contains, vec, zero_vec,
)


class EmptyPolyhedron(ValueError):
    """An inequality description turned out to be infeasible."""


class NotInComplex(ValueError):
    """The given face does not occur in the complex."""


# ---------------------------------------------------------------------------
# double description: V-representation of {x : a.x >= 0, e.x = 0}


def dd_cone(ineqs: Sequence[Vec], eqs: Sequence[Vec], n: int) -> tuple[Mat, Mat]:
    """Extreme rays and lineality basis of a homogeneous cone.

    Incremental double description with the combinatorial adjacency test;
    the ray list stays minimal throughout, so the output rays are exactly
    the extreme rays modulo the output lineality space.  It runs fraction
    free (Fukuda & Prodon 1996): each row is scaled once to its primitive
    integer row, a positive multiple that leaves the cone unchanged, and
    every combination of rays is made primitive again.  A primitive
    direction is unique, so the rays equal those of the same pass over
    fractions.
    """
    if eqs:
        _, lin = _int_kernel(eqs)
    else:
        lin = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays: list[tuple[int, ...]] = []
    zeros: list[int] = []  # per ray: bit mask of processed inequalities tight on it
    bit = 1

    for a in ineqs:
        if is_zero(a):
            continue
        a = _primitive_ints(a)
        lin_vals = [sum(map(mul, a, l)) for l in lin]
        pivot = next((i for i, v in enumerate(lin_vals) if v), None)
        if pivot is not None:
            l0, v0 = lin[pivot], lin_vals[pivot]
            if v0 < 0:
                l0, v0 = tuple(-x for x in l0), -v0
            lin = [_primitive_ints([v0 * x - v * y for x, y in zip(l, l0)]) if v else l
                   for i, (l, v) in enumerate(zip(lin, lin_vals)) if i != pivot]
            # push existing rays into the hyperplane of a; adopt l0 as a ray
            for i, r in enumerate(rays):
                rv = sum(map(mul, a, r))
                if rv:
                    rays[i] = _primitive_ints([v0 * x - rv * y for x, y in zip(r, l0)])
            zeros = [z | bit for z in zeros]
            rays.append(l0)
            zeros.append(bit - 1)
            bit <<= 1
            continue
        vals = [sum(map(mul, a, r)) for r in rays]
        if all(v >= 0 for v in vals):
            zeros = [z | bit if v == 0 else z for z, v in zip(zeros, vals)]
            bit <<= 1
            continue
        keep_rays, keep_zeros = [], []
        for r, z, v in zip(rays, zeros, vals):
            if v >= 0:
                keep_rays.append(r)
                keep_zeros.append(z | bit if v == 0 else z)
        for (i, j) in itertools.combinations(range(len(rays)), 2):
            vi, vj = vals[i], vals[j]
            if vi * vj >= 0:
                continue
            common = zeros[i] & zeros[j]
            if any(zeros[k] & common == common
                   for k in range(len(rays)) if k != i and k != j):
                continue  # not adjacent
            p, m = (i, j) if vi > 0 else (j, i)
            w = [vals[p] * x - vals[m] * y for x, y in zip(rays[m], rays[p])]
            keep_rays.append(_primitive_ints(w))
            keep_zeros.append(common | bit)
        rays, zeros = keep_rays, keep_zeros
        bit <<= 1

    out_rays = tuple(tuple(map(Fraction, r)) for r in sorted(set(rays)))
    return out_rays, subspace_canonical_basis(lin)


# ---------------------------------------------------------------------------
# polyhedron


@dataclass(frozen=True)
class HRep:
    """Facet description: inequalities a.x >= b and equations a.x = b."""
    ambient_dim: int
    inequalities: tuple[tuple[Vec, Fraction], ...]
    equations: tuple[tuple[Vec, Fraction], ...]


@dataclass(frozen=True)
class AffineHyperplane:
    """The set {x : normal . x = offset} with a primitive integral normal."""
    normal: Vec
    offset: Fraction

    def __post_init__(self):
        normal = vec(self.normal)
        if is_zero(normal):
            raise ZeroVector("hyperplane normal must be nonzero")
        prim = primitive_vector(normal)
        ratio = next(n / p for n, p in zip(normal, prim) if p != 0)
        object.__setattr__(self, "normal", prim)
        object.__setattr__(self, "offset", frac(self.offset) / ratio)

    def value(self, x: Vec) -> Fraction:
        return dot(self.normal, x) - self.offset


@dataclass(frozen=True, eq=False)
class Polyhedron:
    """Rational polyhedron conv(vertices) + cone(rays) + span(lineality).

    Cones carry no vertices; their apex is the implicit origin.  Rays and
    lineality generators are normalized to primitive integer vectors at
    construction; semantic equality and hashing go through canonical forms.
    """
    ambient_dim: int
    vertices: tuple[Vec, ...] = ()
    rays: tuple[Vec, ...] = ()
    lineality: tuple[Vec, ...] = ()

    def __post_init__(self):
        n = self.ambient_dim
        verts = tuple(vec(v) for v in self.vertices)
        lin = subspace_canonical_basis([vec(l) for l in self.lineality])
        rays = []
        for r in self.rays:
            r = vec(r)
            if is_zero(r) or subspace_contains(lin, r):
                continue
            r = primitive_vector(r)
            if r not in rays:
                rays.append(r)
        for g in itertools.chain(verts, rays, lin):
            if len(g) != n:
                raise ValueError("generator has wrong ambient dimension")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "rays", tuple(rays))
        object.__setattr__(self, "lineality", lin)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def cone(rays: Iterable, lineality: Iterable = (),
             ambient_dim: Optional[int] = None) -> "Polyhedron":
        rays = [vec(r) for r in rays]
        lineality = [vec(l) for l in lineality]
        if ambient_dim is None:
            gens = rays + lineality
            if not gens:
                raise ValueError("ambient_dim required for a trivial cone")
            ambient_dim = len(gens[0])
        return Polyhedron(ambient_dim, (), tuple(rays), tuple(lineality))

    @staticmethod
    def from_vertices(vertices: Iterable, rays: Iterable = (), lineality: Iterable = (),
                      ambient_dim: Optional[int] = None) -> "Polyhedron":
        vertices = [vec(v) for v in vertices]
        if ambient_dim is None:
            if not vertices:
                raise ValueError("ambient_dim required without vertices")
            ambient_dim = len(vertices[0])
        return Polyhedron(ambient_dim, tuple(vertices), tuple(vec(r) for r in rays),
                          tuple(vec(l) for l in lineality))

    @staticmethod
    def from_hrep(h: HRep) -> "Polyhedron":
        n = h.ambient_dim
        homogeneous = all(b == 0 for _, b in h.inequalities) and \
            all(b == 0 for _, b in h.equations)
        if homogeneous:
            rays, lin = dd_cone([a for a, _ in h.inequalities],
                                [a for a, _ in h.equations], n)
            return Polyhedron(n, (), rays, lin)
        ineqs = [(Fraction(1),) + zero_vec(n)]
        ineqs += [(-b,) + tuple(a) for a, b in h.inequalities]
        eqs = [(-b,) + tuple(a) for a, b in h.equations]
        rays, lin = dd_cone(ineqs, eqs, n + 1)
        verts, prays = [], []
        for r in rays:
            if r[0] > 0:
                verts.append(tuple(x / r[0] for x in r[1:]))
            else:
                prays.append(r[1:])
        plin = [l[1:] for l in lin]
        if not verts:
            raise EmptyPolyhedron("inequality system is infeasible")
        return Polyhedron(n, tuple(verts), tuple(prays), tuple(plin))

    # -- lazily computed structure -----------------------------------------

    @cached_property
    def hrep(self) -> HRep:
        """Irredundant facet inequalities plus minimal equations."""
        n = self.ambient_dim
        if not self.vertices:
            normals, eq_normals = dd_cone(list(self.rays),
                                          list(self.lineality), n)
            return HRep(n,
                        tuple((a, Fraction(0)) for a in normals),
                        tuple((e, Fraction(0)) for e in eq_normals))
        gens = [(Fraction(1),) + v for v in self.vertices]
        gens += [(Fraction(0),) + r for r in self.rays]
        eqs = [(Fraction(0),) + l for l in self.lineality]
        normals, eq_normals = dd_cone(gens, eqs, n + 1)
        ineqs, eqns = [], []
        for a in normals:
            if is_zero(a[1:]):
                continue  # the trivial x0 >= 0 facet of the homogenization
            ineqs.append((a[1:], -a[0]))
        for e in eq_normals:
            if is_zero(e[1:]):
                continue
            eqns.append((e[1:], -e[0]))
        return HRep(n, tuple(ineqs), tuple(eqns))

    @cached_property
    def direction_span(self) -> Mat:
        """Canonical basis of the linear space parallel to the affine hull."""
        gens: list[Vec] = list(self.rays) + list(self.lineality)
        if self.vertices:
            v0 = self.vertices[0]
            gens += [sub(v, v0) for v in self.vertices[1:]]
        return subspace_canonical_basis(gens)

    @cached_property
    def _lattice(self) -> Mat:
        """Basis of the saturated lattice of the direction span, which every
        lattice normal of this cell is combined from."""
        return saturation_basis(self.direction_span, self.ambient_dim)

    @cached_property
    def dim(self) -> int:
        return len(self.direction_span)

    @cached_property
    def true_lineality(self) -> Mat:
        """Maximal subspace V with P + V = P, from the facet normals."""
        normals = [a for a, _ in self.hrep.inequalities]
        normals += [a for a, _ in self.hrep.equations]
        if not normals:
            return subspace_canonical_basis(identity_mat(self.ambient_dim))
        return subspace_canonical_basis(_int_kernel(normals)[1])

    @cached_property
    def is_pointed(self) -> bool:
        return not self.true_lineality

    def recession(self) -> "Polyhedron":
        """Recession cone: rays plus lineality, apex at the origin."""
        return Polyhedron(self.ambient_dim, (), self.rays, self.lineality)

    # -- canonical form ----------------------------------------------------

    @cached_property
    def canonical_key(self) -> tuple:
        """Hashable form identifying the polyhedron as a point set.

        Vertices and rays are reduced modulo the true lineality space,
        filtered down to extreme generators and sorted, so any two generator
        presentations of the same set produce the same key.  Extremality is
        read off the facet description by the rank test of double
        description: with L the true lineality, a ray is extreme when the
        equation normals and the inequality normals vanishing on it have rank
        n - dim L - 1, and a vertex when those tight at it have rank n - dim L.
        """
        lin = self.true_lineality
        full = self.ambient_dim - len(lin)
        verts = {reduce_mod_subspace(v, lin) for v in self.vertices}
        rays = {primitive_vector(r2) for r in self.rays
                if not is_zero(r2 := reduce_mod_subspace(r, lin))}
        verts = sorted(v for v in verts if self._tight_rank(v, point=True) == full)
        rays = sorted(r for r in rays if self._tight_rank(r, point=False) == full - 1)
        if verts == [zero_vec(self.ambient_dim)]:
            verts = []
        return (self.ambient_dim, lin, tuple(verts), tuple(rays))

    def _tight_rank(self, x: Vec, point: bool) -> int:
        """Rank of the equation normals plus the inequality normals tight at
        the point x (a.x = b) or along the direction x (a.x = 0)."""
        h = self.hrep
        rows = [a for a, _ in h.equations]
        rows += [a for a, b in h.inequalities if dot(a, x) == (b if point else 0)]
        return matrix_rank(rows)

    def canonical(self) -> "Polyhedron":
        n, lin, verts, rays = self.canonical_key
        return Polyhedron(n, verts, rays, lin)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polyhedron) and self.canonical_key == other.canonical_key

    def __hash__(self) -> int:
        return hash(self.canonical_key)

    def label(self) -> str:
        """Canonical generators as text, e.g. ``v(0,1) r(1,0) l(1,1)``;
        ``origin`` for the zero cone."""
        _, lin, verts, rays = self.canonical_key
        parts = []
        for v in verts:
            parts.append("v(" + ",".join(str(x) for x in v) + ")")
        for r in rays:
            parts.append("r(" + ",".join(str(x) for x in r) + ")")
        for l in lin:
            parts.append("l(" + ",".join(str(x) for x in l) + ")")
        return " ".join(parts) if parts else "origin"

    # -- membership --------------------------------------------------------

    def contains_point(self, x: Vec) -> bool:
        h = self.hrep
        return all(dot(a, x) >= b for a, b in h.inequalities) and \
            all(dot(a, x) == b for a, b in h.equations)

    def contains_direction(self, d: Vec) -> bool:
        """Whether d is a recession direction of the polyhedron."""
        h = self.hrep
        return all(dot(a, d) >= 0 for a, _ in h.inequalities) and \
            all(dot(a, d) == 0 for a, _ in h.equations)

    def contains(self, other: "Polyhedron") -> bool:
        pts = other.vertices if other.vertices else (zero_vec(self.ambient_dim),)
        return all(self.contains_point(v) for v in pts) and \
            all(self.contains_direction(r) for r in other.rays) and \
            all(self.contains_direction(l) and self.contains_direction(neg(l))
                for l in other.lineality)


# ---------------------------------------------------------------------------
# free-standing operations on polyhedra


def dual_description(x: Union[Polyhedron, HRep]) -> Union[HRep, Polyhedron]:
    """Convert between generator and inequality descriptions."""
    if isinstance(x, Polyhedron):
        return x.hrep
    return Polyhedron.from_hrep(x)


def dim_lineality_pointed(p: Polyhedron) -> tuple[int, Mat, bool]:
    """Dimension, maximal lineality subspace, and pointedness of p."""
    lin = p.true_lineality
    return p.dim, lin, not lin


def relint_point(p: Polyhedron) -> Vec:
    """Deterministic relative interior point: vertex barycenter plus ray sum.

    The result is checked to satisfy every irredundant facet inequality
    strictly.
    """
    n = p.ambient_dim
    point = zero_vec(n)
    if p.vertices:
        k = Fraction(len(p.vertices))
        for v in p.vertices:
            point = add(point, scale(1 / k, v))
    for r in p.rays:
        point = add(point, r)
    for a, b in p.hrep.inequalities:
        if not dot(a, point) > b:
            raise AssertionError("relative interior point failed strictness")
    for a, b in p.hrep.equations:
        if dot(a, point) != b:
            raise AssertionError("relative interior point violates an equation")
    return point


def face_is_tight(face: Polyhedron, a: Vec, b: Fraction) -> bool:
    """Whether the valid inequality a.x >= b is an equality on all of face."""
    if face.vertices:
        if any(dot(a, v) != b for v in face.vertices):
            return False
    elif b != 0:
        return False
    return all(dot(a, r) == 0 for r in face.rays) and \
        all(dot(a, l) == 0 for l in face.lineality)


def _face(p: Polyhedron, tight: Sequence[tuple[Vec, Fraction]]
          ) -> Optional[Polyhedron]:
    """The face of p on which every valid inequality a.x >= b in tight is an
    equality, or None when that face is empty.  A nonempty face has the
    lineality of p, and its extreme generators are those of p that lie on
    it, so its canonical key is read off p's and no double description
    runs."""
    n, lin, all_verts, rays = p.canonical_key
    verts = tuple(v for v in all_verts if all(dot(a, v) == b for a, b in tight))
    if all_verts and not verts:
        return None
    rays = tuple(r for r in rays if all(dot(a, r) == 0 for a, _ in tight))
    if verts == (zero_vec(n),):
        verts = ()
    face = Polyhedron(n, verts, rays, lin)
    object.__setattr__(face, "canonical_key", (n, lin, verts, rays))
    return face


def codim1_faces(p: Polyhedron) -> list[Polyhedron]:
    """All faces of dimension dim(p) - 1, one per facet inequality of p in
    the order of `p.hrep.inequalities`: an irredundant facet description
    cuts out distinct, nonempty facets."""
    return [_face(p, [ineq]) for ineq in p.hrep.inequalities]


def lower_faces(cells: Sequence[Polyhedron]) -> tuple[
        tuple[Polyhedron, tuple[int, ...], tuple[tuple[Vec, Fraction], ...]], ...]:
    """Distinct codimension-one faces of the cells, sorted by canonical key.

    Each face comes with the indices of the cells it is a face of and, for
    each of those cells, the facet inequality (a, b) of the cell that cuts it
    out, so later steps need not prove the incidence again.
    """
    faces: dict[tuple, tuple[Polyhedron, list[int], list]] = {}
    for i, cell in enumerate(cells):
        for face, cut in zip(codim1_faces(cell), cell.hrep.inequalities):
            if face.dim != cell.dim - 1:
                raise AssertionError("codimension-one face has wrong dimension")
            _, fids, cuts = faces.setdefault(face.canonical_key, (face, [], []))
            fids.append(i)
            cuts.append(cut)
    return tuple((faces[key][0], tuple(faces[key][1]), tuple(faces[key][2]))
                 for key in sorted(faces))


def _faces_below(c: Complex) -> Iterator[list[Polyhedron]]:
    """The faces of the complex from the ridges down, one list per
    codimension, each in canonical-key order.

    Every face is kept with one cell it lies in and the cell's facet
    inequalities that cut it out.  A face of codimension two lies in exactly
    two facets of its cell, so the facets of a face are cut out by one more
    inequality of the same cell, and no face needs a double description of
    its own.
    """
    cells = c.facet_polyhedra
    level = {face.canonical_key: (face, cells[fids[0]], [cuts[0]])
             for face, fids, cuts in c.ridges}
    while level:
        keys = sorted(level)
        yield [level[key][0] for key in keys]
        below: dict[tuple, tuple[Polyhedron, Polyhedron, list]] = {}
        for key in keys:
            face, cell, tight = level[key]
            for ineq in cell.hrep.inequalities:
                if ineq in tight:
                    continue
                sub = _face(cell, tight + [ineq])
                if sub is not None and sub.canonical_key not in below and \
                        sub.dim == face.dim - 1:
                    below[sub.canonical_key] = (sub, cell, tight + [ineq])
        level = below


def is_face_of(tau: Polyhedron, sigma: Polyhedron) -> bool:
    """Whether tau is a face of sigma: tau lies in sigma and equals the face
    of sigma cut out by the facet inequalities tight on tau."""
    if tau.ambient_dim != sigma.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if not sigma.contains(tau):
        return False
    tight = [(a, b) for a, b in sigma.hrep.inequalities if face_is_tight(tau, a, b)]
    return tau.canonical_key == _face(sigma, tight).canonical_key


# ---------------------------------------------------------------------------
# complexes


@dataclass(frozen=True, eq=False)
class Complex:
    """Pure polyhedral complex given by maximal cells over shared pools.

    Each cell is a pair (vertex indices, ray indices); every cell implicitly
    contains the declared lineality space.  Lower-dimensional faces are
    derived on demand.  Weights are positive integers, one per facet.
    """
    ambient_dim: int
    vertex_pool: tuple[Vec, ...]
    ray_pool: tuple[Vec, ...]
    lineality: tuple[Vec, ...]
    cells: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    weights: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.weights:
            object.__setattr__(self, "weights", (1,) * len(self.cells))
        if len(self.weights) != len(self.cells):
            raise ValueError("one weight per facet required")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")

    @staticmethod
    def from_facets(facets: Sequence[Polyhedron], lineality: Iterable = (),
                    ambient_dim: Optional[int] = None,
                    weights: Optional[Sequence[int]] = None) -> "Complex":
        """Build pools from facet polyhedra.

        Lineality generators of a facet beyond the declared complex lineality
        are encoded as opposite ray pairs, which describe the same point set.
        """
        facets = list(facets)
        if ambient_dim is None:
            if not facets:
                raise ValueError("ambient_dim required without facets")
            ambient_dim = facets[0].ambient_dim
        lin = subspace_canonical_basis([vec(l) for l in lineality])
        vpool: list[Vec] = []
        rpool: list[Vec] = []
        cells = []
        for f in facets:
            if f.ambient_dim != ambient_dim:
                raise ValueError("facet ambient dimension mismatch")
            for l in lin:
                # pooling would silently fatten a cell missing the lineality
                if not subspace_contains(f.lineality, l) and not (
                        f.contains_direction(l) and f.contains_direction(neg(l))):
                    raise ValueError(
                        "facet does not contain the declared lineality space")
            vidx = sorted(_pool_index(vpool, vec(v)) for v in f.vertices)
            ridx = set()
            for r in f.rays:
                ridx.add(_pool_index(rpool, primitive_vector(r)))
            for l in f.lineality:
                if not subspace_contains(lin, l):
                    ridx.add(_pool_index(rpool, primitive_vector(l)))
                    ridx.add(_pool_index(rpool, primitive_vector(neg(l))))
            cells.append((tuple(vidx), tuple(sorted(ridx))))
        return Complex(ambient_dim, tuple(vpool), tuple(rpool), lin,
                       tuple(cells), tuple(weights) if weights else ())

    def facet(self, i: int) -> Polyhedron:
        vidx, ridx = self.cells[i]
        return Polyhedron(self.ambient_dim,
                          tuple(self.vertex_pool[j] for j in vidx),
                          tuple(self.ray_pool[j] for j in ridx),
                          self.lineality)

    @cached_property
    def facet_polyhedra(self) -> tuple[Polyhedron, ...]:
        return tuple(self.facet(i) for i in range(len(self.cells)))

    @cached_property
    def ridges(self) -> tuple[tuple[Polyhedron, tuple[int, ...],
                                    tuple[tuple[Vec, Fraction], ...]], ...]:
        """Distinct codimension-one faces of the facets, sorted by canonical
        key, each with the ids of the facets it is a face of and the facet
        inequality of each of those facets that cuts it out."""
        return lower_faces(self.facet_polyhedra)

    @cached_property
    def _validation(self) -> "ValidationReport":
        """Purity and lineality containment, checked once per complex."""
        return _validate(self)

    @cached_property
    def dim(self) -> int:
        if not self.cells:
            return len(self.lineality)
        return max(f.dim for f in self.facet_polyhedra)

    @property
    def lineality_dim(self) -> int:
        return len(self.lineality)

    def __len__(self) -> int:
        return len(self.cells)


def _pool_index(pool: list[Vec], v: Vec) -> int:
    try:
        return pool.index(v)
    except ValueError:
        pool.append(v)
        return len(pool) - 1


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    dim: int
    issues: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.valid


def _validate(c: Complex) -> ValidationReport:
    issues = []
    facets = c.facet_polyhedra
    if not facets:
        return ValidationReport(True, c.lineality_dim, ())
    d = c.dim
    for i, f in enumerate(facets):
        if f.dim != d:
            issues.append(f"facet {i} has dimension {f.dim}, expected {d}")
        for l in c.lineality:
            if not (f.contains_direction(l) and f.contains_direction(neg(l))):
                issues.append(f"facet {i} does not contain the declared lineality")
                break
    return ValidationReport(not issues, d, tuple(issues))


def validate_complex(c: Complex, pairwise: bool = False) -> ValidationReport:
    """Check purity and lineality containment; optionally pairwise face fit.

    Returns a structured report and never raises.  The report without the
    pairwise check is computed once per complex and then reused.
    """
    report = c._validation
    if not pairwise:
        return report
    issues = list(report.issues)
    facets = c.facet_polyhedra
    keys = [f.canonical_key for f in facets]
    for i, j in itertools.combinations(range(len(facets)), 2):
        if keys[i] == keys[j]:
            issues.append(f"facets {i} and {j} coincide")
            continue
        inter = intersect(facets[i], facets[j])
        if inter is None:
            continue
        if not is_face_of(inter, facets[i]) or not is_face_of(inter, facets[j]):
            issues.append(f"facets {i} and {j} do not meet in a common face")
    return ValidationReport(not issues, report.dim, tuple(issues))


def intersect(p: Polyhedron, q: Polyhedron) -> Optional[Polyhedron]:
    """Intersection of two polyhedra, or None if empty."""
    h1, h2 = p.hrep, q.hrep
    merged = HRep(p.ambient_dim, h1.inequalities + h2.inequalities,
                  h1.equations + h2.equations)
    try:
        return Polyhedron.from_hrep(merged)
    except EmptyPolyhedron:
        return None
