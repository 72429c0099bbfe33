"""Rational polyhedra and pure polyhedral complexes.

A polyhedron is stored by generators (vertices, rays, lineality); cones leave
the vertex list empty and have an implicit apex at the origin.  The facet
description is computed lazily by an exact double description pass and cached;
it is the only source of face structure: canonical forms keep the generators
whose tight facet sets have full rank, and a face is the cell's canonical
generators that lie on its tight inequalities, so its canonical key needs no
double description of its own.  Complexes store shared generator pools plus
per-facet index sets; one face walk, `lower_faces`, gives the ridges (cached
per complex) and, repeated, every lower face.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

from .ratlin import (
    Mat, Vec, ZeroVector, add, dot, frac, identity_mat, is_zero, mat, matrix_rank,
    primitive_vector, rank_and_kernel, reduce_mod_subspace, scale, sub, neg,
    subspace_canonical_basis, subspace_contains, vec, zero_vec,
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
    the extreme rays modulo the output lineality space.
    """
    if eqs:
        _, kernel = rank_and_kernel(mat(eqs))
        lin = [primitive_vector(k) for k in kernel]
    else:
        lin = list(identity_mat(n))
    rays: list[Vec] = []
    zeros: list[set[int]] = []  # per ray: processed inequalities tight on it
    step = 0

    for a in ineqs:
        if is_zero(a):
            continue
        lin_vals = [dot(a, l) for l in lin]
        pivot = next((i for i, v in enumerate(lin_vals) if v != 0), None)
        if pivot is not None:
            l0 = lin[pivot]
            v0 = lin_vals[pivot]
            if v0 < 0:
                l0, v0 = neg(l0), -v0
            new_lin = []
            for i, l in enumerate(lin):
                if i == pivot:
                    continue
                if lin_vals[i] != 0:
                    l = sub(l, scale(lin_vals[i] / v0, l0))
                new_lin.append(primitive_vector(l))
            lin = new_lin
            # push existing rays into the hyperplane of a; adopt l0 as a ray
            new_rays, new_zeros = [], []
            for r, z in zip(rays, zeros):
                rv = dot(a, r)
                if rv != 0:
                    r = primitive_vector(sub(r, scale(rv / v0, l0)))
                new_rays.append(r)
                new_zeros.append(z | {step})
            new_rays.append(l0)
            new_zeros.append(set(range(step)))
            rays, zeros = new_rays, new_zeros
            step += 1
            continue
        vals = [dot(a, r) for r in rays]
        if all(v >= 0 for v in vals):
            zeros = [z | {step} if v == 0 else z for z, v in zip(zeros, vals)]
            step += 1
            continue
        keep_rays, keep_zeros = [], []
        for r, z, v in zip(rays, zeros, vals):
            if v > 0:
                keep_rays.append(r)
                keep_zeros.append(z)
            elif v == 0:
                keep_rays.append(r)
                keep_zeros.append(z | {step})
        for (i, j) in itertools.combinations(range(len(rays)), 2):
            vi, vj = vals[i], vals[j]
            if vi * vj >= 0:
                continue
            common = zeros[i] & zeros[j]
            adjacent = all(not common <= zeros[k]
                           for k in range(len(rays)) if k not in (i, j))
            if not adjacent:
                continue
            p, m = (i, j) if vi > 0 else (j, i)
            w = sub(scale(vals[p], rays[m]), scale(vals[m], rays[p]))
            keep_rays.append(primitive_vector(w))
            keep_zeros.append(common | {step})
        rays, zeros = keep_rays, keep_zeros
        step += 1

    seen: dict[Vec, set[int]] = {}
    for r, z in zip(rays, zeros):
        if r in seen:
            seen[r] |= z
        else:
            seen[r] = set(z)
    out_rays = tuple(sorted(seen.keys()))
    out_lin = subspace_canonical_basis(lin)
    return out_rays, out_lin


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
    def dim(self) -> int:
        return len(self.direction_span)

    @cached_property
    def true_lineality(self) -> Mat:
        """Maximal subspace V with P + V = P, from the facet normals."""
        normals = [a for a, _ in self.hrep.inequalities]
        normals += [a for a, _ in self.hrep.equations]
        if not normals:
            return subspace_canonical_basis(identity_mat(self.ambient_dim))
        _, kernel = rank_and_kernel(mat(normals))
        return subspace_canonical_basis(kernel)

    @cached_property
    def is_pointed(self) -> bool:
        return not self.true_lineality

    def base_point(self) -> Vec:
        return self.vertices[0] if self.vertices else zero_vec(self.ambient_dim)

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


def _face(p: Polyhedron, tight: Sequence[tuple[Vec, Fraction]]) -> Polyhedron:
    """The face of p on which every valid inequality a.x >= b in tight is an
    equality.  A nonempty face has the lineality of p, and its extreme
    generators are those of p that lie on it, so its canonical key is read
    off p's and no double description runs."""
    n, lin, verts, rays = p.canonical_key
    verts = tuple(v for v in verts if all(dot(a, v) == b for a, b in tight))
    rays = tuple(r for r in rays if all(dot(a, r) == 0 for a, _ in tight))
    if verts == (zero_vec(n),):
        verts = ()
    face = Polyhedron(n, verts, rays, lin)
    object.__setattr__(face, "canonical_key", (n, lin, verts, rays))
    return face


def codim1_faces(p: Polyhedron) -> list[Polyhedron]:
    """All faces of dimension dim(p) - 1, canonicalized and sorted."""
    seen = {}
    for a, b in p.hrep.inequalities:
        face = _face(p, [(a, b)])
        seen.setdefault(face.canonical_key, face)
    return [seen[k] for k in sorted(seen)]


def lower_faces(cells: Sequence[Polyhedron]
                ) -> tuple[tuple[Polyhedron, tuple[int, ...]], ...]:
    """Distinct codimension-one faces of the cells, sorted by canonical key,
    each paired with the indices of the cells it is a face of."""
    faces: dict[tuple, tuple[Polyhedron, list[int]]] = {}
    for i, cell in enumerate(cells):
        for face in codim1_faces(cell):
            if face.dim != cell.dim - 1:
                raise AssertionError("codimension-one face has wrong dimension")
            faces.setdefault(face.canonical_key, (face, []))[1].append(i)
    return tuple((faces[key][0], tuple(faces[key][1])) for key in sorted(faces))


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
    def ridges(self) -> tuple[tuple[Polyhedron, tuple[int, ...]], ...]:
        """Distinct codimension-one faces of the facets, sorted by canonical
        key, each paired with the ids of the facets it is a face of."""
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
