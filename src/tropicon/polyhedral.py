"""Rational polyhedra and pure polyhedral complexes.

A polyhedron is stored by generators (vertices, rays, lineality); cones leave
the vertex list empty and have an implicit apex at the origin.  Its face
structure comes from one private integer record, `Polyhedron._rec` (class
`_Record`), built from its one exact double description: the primitive
integer facet and equation normals of the cone its generators span
(homogenized when it has vertices), as `dd_cone` returns them, per generator
the bit mask of the facets tight on it (Fukuda & Prodon 1996), and the
parts of its canonical key.  Everything else is read off that record,
with no elimination over fractions:

- the dimension is n minus the number of equations, and the true lineality
  is the declared one plus the rays tight on every facet;
- a generator is extreme when no other canonical generator's tight set
  contains its own: the least face containing it is cut out by its tight
  facets, holds exactly the generators whose tight sets contain its own,
  and is a ray exactly when it holds no other (proof at
  `Polyhedron.canonical_key`);
- a face is the cell's canonical generators whose tight sets contain the
  face's facets, so no face needs a double description of its own, and a
  facet of a face, a maximal proper face, has its dimension minus one;
- membership and face incidence read one mask, `_Record.mask`: the facets
  tight on a row of the (x0, x) frame, or None outside the cell; the
  record's own generator masks come from the same loop.  tau is a
  face of sigma when the AND of sigma's masks over tau's generator rows cuts
  out a face with tau's integer key, and two cells fit when the least faces
  of both containing their intersection (one `dd_cone`, `_meet`) are equal;
- the lattice of a cell, its direction span meet Z^n (`Polyhedron._lattice`),
  is the integer kernel of its equations, by unimodular column reduction
  (`ratlin._lattice_kernel`).

The lattice normal of a cell at a ridge (`_lattice_normal`, on ints) is a
ray of the cell on which the primitive cutting facet inequality takes the
value 1; only when no ray does, or when the cell is full-dimensional and its
lattice basis the unit vectors, is it combined from that lattice basis by an
extended gcd (`_bezout`) of the inequality's values on it.  On the Bergman
fans of the tests every cell takes the ray.  Balancing then needs no
fractions either: the span of a ridge is the part of one incident cell's
span on which the cutting inequality vanishes, so the weighted sum of the
integer normals lies in it iff its dot products with that cell's equations
and that inequality are all zero (see `tropical.balancing_check`).

Complexes store shared generator pools plus per-facet index sets under one
invariant, which the constructor checks as it decides the pool facts in one
integer pass (`Complex._pool`): the lineality rows and each pool ray's
primitive and canonical rows.  It keeps only the forms it checks: the rays'
primitive rows and the vertices as fractions, and the lineality as its
canonical basis.  `Complex.facet_polyhedra` builds each cell over those
pools, and its record from its rays' primitive rows and the pool facts.
The face walk gives the faces level by level from the cells down, one
step (`_level_below`) per level that cuts each face into its facets
(`_facet_cuts`), keying each (cell, mask of facet inequalities) incidence
on its face's canonical key without n (`_face_key`: lineality and rays as
ints, vertices as the record's fractions), the one key of cells and faces,
and making one face per key from the key alone (`_face`); its first step,
the ridges, is cached as `Complex.ridges`.  Meets, slices and the witness
check read a record's rows lifted to the (x0, x) frame (`_lifted`), and
every H-description becomes generators through one conversion
(`_from_rows`).  Fractions are made only where a public value needs them:
`_from_rows` converts `dd_cone`'s rays and `_face` a face's (`_fraction_row`
shares the rows that cells repeat), and the constructor each pool entry once.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Iterable, NamedTuple, Optional, Sequence

from .ratlin import (
    Mat, Vec, ZeroVector, _egcd, _int_kernel, _int_reduce, _int_row, _lattice_kernel,
    _primitive, _primitive_ints, dot, frac, is_zero, matrix_rank, neg, primitive_vector,
    subspace_canonical_basis, vec,
)

# Fractions are immutable: the few distinct entries of integer rows share them
_fraction = functools.lru_cache(maxsize=1024)(Fraction)
# so do the rows: the cells of a complex repeat most normals, equations and rays
_fraction_row = functools.lru_cache(maxsize=1024)(lambda row: tuple(map(_fraction, row)))


class EmptyPolyhedron(ValueError):
    """An inequality description turned out to be infeasible."""


class NotInComplex(ValueError):
    """The given face does not occur in the complex."""


def _numerators(v: Vec) -> tuple[int, ...]:
    """The integer vector equal to the integral rational vector v."""
    return tuple(x.numerator for x in v)


def _outside(row: Sequence[int], lin_rows: Sequence[Sequence[int]]) -> bool:
    """Whether the integer row is nonzero modulo the span of the canonical
    basis rows lin_rows."""
    return any(row) and (not lin_rows or any(_int_reduce(row, lin_rows)))


def _ray_rows(r: Vec, lin_rows: Sequence[Sequence[int]]) -> Optional[tuple]:
    """The primitive row of the ray r and its canonical row, the primitive
    form of its normal form modulo the span of the canonical basis rows
    lin_rows; None when r lies in that span."""
    row = _int_row(r)
    reduced = _int_reduce(row, lin_rows) if lin_rows and any(row) else row
    return (_primitive(row), _primitive(reduced)) if any(reduced) else None


def _generators(n: int, vertices: Iterable, rays: Iterable, lin: Mat
                ) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """The vertices as fractions and the distinct primitive rays outside the
    span of the canonical basis lin, all checked to lie in R^n."""
    verts = tuple(vec(v) for v in vertices)
    lin_rows = [_numerators(l) for l in lin]
    keys = dict.fromkeys(k and k[0] for k in (_ray_rows(vec(r), lin_rows) for r in rays))
    out = tuple(tuple(map(_fraction, k)) for k in keys if k is not None)
    if any(len(g) != n for g in itertools.chain(verts, out, lin)):
        raise ValueError("generator has wrong ambient dimension")
    return verts, out


# ---------------------------------------------------------------------------
# double description: V-representation of {x : a.x >= 0, e.x = 0}


@functools.lru_cache(maxsize=256)
def _eq_kernel(eqs: tuple, n: int) -> tuple[tuple[int, ...], ...]:
    """A basis of primitive integer rows of {x in R^n : e.x = 0 for e in
    eqs}; cached, since the cells of a complex share their equations."""
    if eqs:
        return tuple(_int_kernel(eqs)[1])
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def dd_cone(ineqs: Sequence[Vec], eqs: Sequence[Vec], n: int) -> tuple[list, list]:
    """Extreme rays and a lineality basis of a homogeneous cone, as sorted
    primitive integer rays and primitive integer rows (not canonical).

    Incremental double description with the combinatorial adjacency test;
    the ray list stays minimal throughout, so the output rays are exactly
    the extreme rays modulo the output lineality space.  It runs fraction
    free (Fukuda & Prodon 1996): each row is scaled once to its primitive
    integer row, a positive multiple that leaves the cone unchanged, and
    every combination of rays is made primitive again by one gcd.  A
    primitive direction is unique, so the rays equal those of the same pass
    over fractions.  Rows may be given as integers or fractions.

    Two rays are adjacent when they span a 2-face modulo the current
    lineality.  Within the space of dimension w cut out by the equations, a
    2-face of a cone with lineality of dimension l has dimension l + 2, so
    the processed inequalities tight on it have rank, and thus number, at
    least w - l - 2; a pair with fewer common tight inequalities is rejected
    before the combinatorial test.
    """
    lin = list(_eq_kernel(tuple(map(tuple, eqs)), n))
    width = len(lin)
    rays: list[tuple[int, ...]] = []
    zeros: list[int] = []  # per ray: bit mask of processed inequalities tight on it
    bit = 1

    for a in ineqs:
        a = _int_row(a)
        if not any(a):
            continue
        a = _primitive(a)
        lin_vals = [sum(map(mul, a, l)) for l in lin]
        pivot = next((i for i, v in enumerate(lin_vals) if v), None)
        if pivot is not None:
            l0, v0 = lin[pivot], lin_vals[pivot]
            if v0 < 0:
                l0, v0 = tuple(-x for x in l0), -v0
            lin = [_primitive([v0 * x - v * y for x, y in zip(l, l0)]) if v else l
                   for i, (l, v) in enumerate(zip(lin, lin_vals)) if i != pivot]
            # push existing rays into the hyperplane of a; adopt l0 as a ray
            for i, r in enumerate(rays):
                rv = sum(map(mul, a, r))
                if rv:
                    rays[i] = _primitive([v0 * x - rv * y for x, y in zip(r, l0)])
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
        need = width - len(lin) - 2
        for (i, j) in itertools.combinations(range(len(rays)), 2):
            vi, vj = vals[i], vals[j]
            if vi * vj >= 0:
                continue
            common = zeros[i] & zeros[j]
            if common.bit_count() < need:
                continue  # too few common tight inequalities for a 2-face
            if any(zeros[k] & common == common
                   for k in range(len(rays)) if k != i and k != j):
                continue  # not adjacent
            p, m = (i, j) if vi > 0 else (j, i)
            w = [vals[p] * x - vals[m] * y for x, y in zip(rays[m], rays[p])]
            keep_rays.append(_primitive(w))
            keep_zeros.append(common | bit)
        rays, zeros = keep_rays, keep_zeros
        bit <<= 1

    return sorted(set(rays)), lin


def _feasible_point(n: int, constraints: Sequence[tuple]) -> Optional[Vec]:
    """A point x of R^n with a.x = b, a.x >= b or a.x > b for every
    (a, b, relation) in constraints, relation "=", ">=" or ">", or None
    when the system has no solution; decided by one `dd_cone`.

    Homogenize x to (x, t) and give every strict row one shared slack s:
    the cone C in R^(n+2) is cut out by a.x - b t = 0, a.x - b t >= 0 and
    a.x - b t - s >= 0 for the three relations, plus t - s >= 0 and s >= 0.
    C has a point with s > 0 exactly when the system is feasible: such a
    point has t >= s > 0, and x/t satisfies every row, the strict ones by
    s/t > 0; conversely a solution x gives (x, 1, s) in C with s the least
    of 1 and the strict rows' values minus b.  The lineality of C has
    s = t = 0, since s >= 0 and t >= s hold on it in both directions, so
    C is the lineality plus the cone of `dd_cone`'s rays, and C has a
    point with s > 0 exactly when a ray does.  Every ray lies in C, so x/t
    from the least ray with s > 0 in `dd_cone`'s sorted order is a
    solution, the same one on every run.
    """
    ineqs = [(0,) * n + (1, -1), (0,) * n + (0, 1)]
    eqs = []
    for a, b, rel in constraints:
        if len(a) != n:
            raise ValueError("constraint length mismatch")
        if rel not in ("=", ">=", ">"):
            raise ValueError(f"bad relation {rel!r}")
        row = tuple(a) + (-b, -1 if rel == ">" else 0)
        (eqs if rel == "=" else ineqs).append(row)
    rays, _ = dd_cone(ineqs, eqs, n + 2)
    r = next((r for r in rays if r[-1] > 0), None)
    return None if r is None else tuple(Fraction(x, r[n]) for x in r[:n])


# ---------------------------------------------------------------------------
# polyhedron


class _Frozen:
    """A value whose fields, the names its class annotates, the constructor
    sets once in the instance dict: assigning or deleting an attribute
    raises AttributeError.  Cached properties also write to that dict."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in type(self).__annotations__)
        return f"{type(self).__name__}({fields})"


class HRep(NamedTuple):
    """Facet description: inequalities a.x >= b and equations a.x = b."""
    ambient_dim: int
    inequalities: tuple[tuple[Vec, Fraction], ...]
    equations: tuple[tuple[Vec, Fraction], ...]


class AffineHyperplane(_Frozen):
    """The set {x : normal . x = offset} with a primitive integral normal."""
    normal: Vec
    offset: Fraction

    def __init__(self, normal: Vec, offset: Fraction):
        normal = vec(normal)
        if is_zero(normal):
            raise ZeroVector("hyperplane normal must be nonzero")
        prim = primitive_vector(normal)
        ratio = next(n / p for n, p in zip(normal, prim) if p != 0)
        self.__dict__.update(normal=prim, offset=frac(offset) / ratio)

    def _set_key(self) -> tuple[Vec, Fraction]:
        """The set's one (normal, offset) pair of (h, c) and (-h, -c): the
        normal's first nonzero entry positive."""
        return (self.normal, self.offset) if next(x for x in self.normal if x) > 0 \
            else (neg(self.normal), -self.offset)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._set_key() == other._set_key()

    def __hash__(self) -> int:
        return hash(self._set_key())

    def value(self, x: Vec) -> Fraction:
        return dot(self.normal, x) - self.offset


class _Record:
    """Integer facet description and canonical form of a polyhedron P in
    R^n, from one `dd_cone`.

    Rows live in R^n for a cone.  When P has vertices they live in R^(n+1):
    a point x is the row (1, x) and a direction d the row (0, d), up to
    positive multiples, and P is the slice x0 = 1 of the cone C that the
    rows of its generators span; for a cone, C = P.  It is built from P's
    vertices and lineality, its rays as primitive integer rows and, for a
    cell of a complex, the complex's `Complex._pool`.

    - `facets`: the primitive facet normals of C (the rays `dd_cone` finds
      for the polar cone): the `cuts` facet inequalities of P first, then
      the trivial facet x0 >= 0 when it is one of C;
    - `cuts`: the number of facet inequalities of P, every facet of C but
      the trivial one; a cut's index is its facet's;
    - `eqs`: the equation normals of C, the lineality basis `dd_cone` finds;
    - `verts`, `rays`: per vertex and per ray of P, its row and the bit mask
      of the facets tight on it (`_tight`);
    - `key_verts`: per vertex of the canonical key, in its order, the
      vertex as the fraction row the key holds and its tight mask;
    - `key_rays`: per ray of the key, in its order, its primitive integer
      row of R^n and its tight mask;
    - `lin_ints`: the rows of the key's lineality basis, as integers.

    The key's generators are P's generators reduced modulo the true
    lineality L (the declared one plus the rays tight on every facet),
    nonzero, made primitive and kept when extreme.  A cone of a complex
    with no extra lineality reads its rays' reduced rows from the pool;
    every other polyhedron reduces its own.
    """
    __slots__ = ("affine", "facets", "cuts", "eqs", "verts", "rays", "key_verts", "key_rays",
                 "lin_ints")

    def __init__(self, p: "Polyhedron", rays: list[tuple[int, ...]],
                 pool: Optional[tuple] = None):
        self.affine = affine = bool(p.vertices)
        lin = pool[0] if pool else [_numerators(l) for l in p.lineality]
        verts: list[tuple[int, ...]] = []
        if affine:
            verts = [tuple(_int_row((1,) + v)) for v in p.vertices]
            rays = [(0,) + r for r in rays]
            lin = [(0,) + l for l in lin]
        facets, self.eqs = dd_cone(verts + rays, lin, p.ambient_dim + affine)
        if affine:  # a stable sort puts the trivial facet x0 >= 0, if C has it, last
            facets.sort(key=lambda a: not any(a[1:]))
        self.facets = facets
        self.cuts = sum(1 for a in facets if any(a[affine:]))
        self.verts = [(g, self._tight(g)) for g in verts]
        self.rays = [(g, self._tight(g)) for g in rays]
        # the lineality of C is its least face: the rays tight on every
        # facet lie in it, and with the declared lineality they span it
        full = (1 << len(facets)) - 1
        extra = [g[affine:] for g, mask in self.rays if mask == full]
        if extra:
            lin = [(0,) * affine + _numerators(l)
                   for l in subspace_canonical_basis(list(p.lineality) + extra)]
        reps: dict[tuple[int, ...], int] = {}
        if pool and not affine and not extra:
            for g, mask in self.rays:
                reps.setdefault(pool[1][g], mask)
        else:
            for g, mask in self.verts + self.rays:
                if lin:
                    g = _int_reduce(g, lin)
                if any(g):  # a ray in the lineality is no generator of the key
                    reps.setdefault(_primitive(g), mask)
        # extreme: no other generator's tight set contains this one's
        extreme = [(g, mask) for g, mask in reps.items()
                   if sum(other & mask == mask for other in reps.values()) == 1]
        kverts = [(g, mask) for g, mask in extreme if g[0]] if affine else []
        if len(kverts) == 1 and not any(kverts[0][0][1:]):
            kverts = []  # a lone vertex at the origin is the apex of a cone
        self.key_verts = sorted((tuple(Fraction(x, g[0]) for x in g[1:]), mask)
                                for g, mask in kverts)
        self.key_rays = sorted((g[affine:], mask) for g, mask in extreme if not affine or not g[0])
        self.lin_ints = tuple(l[affine:] for l in lin)

    def mask(self, row: Sequence[int]) -> Optional[int]:
        """The bit mask of the facets of C tight on the row, or None when it
        lies outside C.  The row is a positive multiple of (1, x) for a point
        x and (0, d) for a direction d, with or without vertices."""
        if not self.affine:
            row = row[1:]
        if any(sum(map(mul, e, row)) for e in self.eqs):
            return None
        return self._tight(row)

    def _tight(self, row: Sequence[int]) -> Optional[int]:
        """The bit mask of the facets of C tight on a row of C's own frame,
        or None when a facet is negative on it: the one loop every tight
        mask comes from."""
        mask = 0
        for i, f in enumerate(self.facets):
            v = sum(map(mul, f, row))
            if v < 0:
                return None
            if not v:
                mask |= 1 << i
        return mask

    def cut(self, i: int) -> tuple[int, ...]:
        """The linear part of facet normal i, as integers."""
        return self.facets[i][1:] if self.affine else self.facets[i]

    @property
    def span_eqs(self) -> list[tuple[int, ...]]:
        """The linear parts of the equations: normals of the direction span
        of P."""
        return [e[1:] for e in self.eqs] if self.affine else self.eqs


class Polyhedron(_Frozen):
    """Rational polyhedron conv(vertices) + cone(rays) + span(lineality).

    Cones carry no vertices; their apex is the implicit origin.  Rays and
    lineality generators are normalized to primitive integer vectors at
    construction; semantic equality and hashing go through canonical forms.
    """
    ambient_dim: int
    vertices: tuple[Vec, ...]
    rays: tuple[Vec, ...]
    lineality: tuple[Vec, ...]

    def __init__(self, ambient_dim: int, vertices: tuple[Vec, ...] = (),
                 rays: tuple[Vec, ...] = (), lineality: tuple[Vec, ...] = ()):
        lin = subspace_canonical_basis([vec(l) for l in lineality])
        verts, rays = _generators(ambient_dim, vertices, rays, lin)
        self.__dict__.update(ambient_dim=ambient_dim, vertices=verts, rays=rays, lineality=lin)

    @classmethod
    def _raw(cls, n: int, vertices: tuple[Vec, ...], rays: tuple[Vec, ...],
             lineality: Mat) -> "Polyhedron":
        """A polyhedron from generators already in the form `__init__`
        gives them: fraction vertices, distinct primitive rays outside the
        lineality, and a canonical lineality basis."""
        p = object.__new__(cls)
        p.__dict__.update(ambient_dim=n, vertices=vertices, rays=rays,
                          lineality=lineality)
        return p

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
        """The polyhedron of a facet description: `_from_rows` of its rows (-b, a)."""
        return _from_rows(h.ambient_dim, [(-b, *a) for a, b in h.inequalities],
                          [(-b, *a) for a, b in h.equations])

    # -- lazily computed structure -----------------------------------------

    @cached_property
    def _rec(self) -> _Record:
        """The integer facet record, from this polyhedron's one double
        description."""
        return _Record(self, [_numerators(r) for r in self.rays])

    @cached_property
    def direction_span(self) -> Mat:
        """Canonical basis of the linear space parallel to the affine hull:
        that of `_lattice`, which spans it."""
        return subspace_canonical_basis(self._lattice)

    @cached_property
    def _lattice(self) -> list[tuple[int, ...]]:
        """Integer basis of the direction span meet Z^n, which every
        lattice normal of this cell is combined from: the integer kernel of
        the linear parts of the equations, the unit basis when there are
        none."""
        return _lattice_kernel(self._rec.span_eqs, self.ambient_dim)

    @cached_property
    def dim(self) -> int:
        """n minus the number of equations of the record; the face walk
        (`_level_below`) sets its faces' dimensions without one."""
        return self.ambient_dim - len(self._rec.eqs)

    # -- canonical form ----------------------------------------------------

    @cached_property
    def canonical_key(self) -> tuple:
        """Hashable form identifying the polyhedron as a point set: n, then its
        integer face key `_face_key(self, 0)` (lineality, vertices, rays).  The
        key is an identity: its lineality and ray rows are ints, its vertices
        Fraction rows, and an int equals and hashes as its Fraction, so
        `__eq__`, `__hash__`, `label()` and the ridge order are those of an
        all-Fraction key.

        Vertices and rays are reduced modulo the true lineality space L,
        filtered down to extreme generators and sorted, so any two generator
        presentations of the same set produce the same key.

        Extremality is read off the record's tight sets.  Let C be the cone
        of the record, G the distinct canonical generators (reduced modulo
        L, nonzero, rays made primitive), and T(g) the set of facets of C
        tight on g.  Claim: g is extreme iff no other h in G has T(h)
        containing T(g).  The least face of C containing g is
        F_g = {x in C : f(x) = 0 for f in T(g)}, and a face of C is
        generated by L and the generators in it: if x = sum c_i g_i + l lies
        in the face with c_i > 0, every g_i is tight on the face's facets.
        The generators in F_g are exactly those h with T(h) containing T(g).
        If g is extreme, F_g = cone(g) + L, so each such h is a positive
        multiple of g modulo L, that is h = g in G.  If g is not extreme,
        F_g has dimension at least dim L + 2, so it has an extreme ray, which
        is an extreme ray of C; its generator h is in F_g and differs from
        g.  This replaces the rank test of double description.  (Distinct
        faces have distinct tight sets, so T(h) then strictly contains T(g):
        equal tight sets never decide the test.)
        """
        return (self.ambient_dim, *_face_key(self, 0))

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
        if len(x) != self.ambient_dim:
            raise ValueError("dimension mismatch")
        return self._rec.mask(_int_row((1, *x))) is not None

    def contains_direction(self, d: Vec) -> bool:
        """Whether d is a recession direction of the polyhedron."""
        if len(d) != self.ambient_dim:
            raise ValueError("dimension mismatch")
        return self._rec.mask(_int_row((0, *d))) is not None


# ---------------------------------------------------------------------------
# facet rows in the (x0, x) frame


def _lifted(rec: _Record) -> tuple[list, list]:
    """The record's facet inequalities, without the trivial x0 >= 0, and its
    equations, as rows of the (x0, x) frame (a row a reads a.(1, x) >= 0 or
    = 0); a cone's rows get x0 coefficient 0."""
    lift = (0,) * (not rec.affine)
    return [lift + a for a in rec.facets[:rec.cuts]], [lift + e for e in rec.eqs]


def _from_rows(n: int, ineqs: Sequence[Sequence], eqs: Sequence[Sequence]) -> Polyhedron:
    """The polyhedron {x in R^n : a.(1, x) >= 0 for a in ineqs, e.(1, x) = 0
    for e in eqs}, rows of ints or fractions, from one `dd_cone`: a cone when
    every row has x0 coefficient 0, else the slice x0 = 1 of the cone that
    the rows and x0 >= 0 cut out, or `EmptyPolyhedron` when it is empty."""
    if not any(r[0] for r in itertools.chain(ineqs, eqs)):
        rays, lin = dd_cone([a[1:] for a in ineqs], [e[1:] for e in eqs], n)
        return Polyhedron(n, (), tuple(rays), tuple(lin))
    rays, lin = dd_cone([(1,) + (0,) * n, *ineqs], eqs, n + 1)
    verts, prays = [], []
    for r in rays:
        if r[0] > 0:
            verts.append(tuple(Fraction(x, r[0]) for x in r[1:]))
        else:
            prays.append(r[1:])
    if not verts:
        raise EmptyPolyhedron("inequality system is infeasible")
    return Polyhedron(n, tuple(verts), tuple(prays), tuple(l[1:] for l in lin))


# ---------------------------------------------------------------------------
# lattice normals, from a unit ray or the cell's lattice `Polyhedron._lattice`


def _bezout(values: Sequence[int]) -> list[int]:
    """Integers x with sum(x_i * values_i) = gcd(values) >= 0, by folding
    the extended gcd over the values."""
    g, xs = 0, []
    for v in values:
        g, s, t = _egcd(g, v)
        xs = [s * x for x in xs] + [t]
    return xs


def _lattice_normal(sigma: Polyhedron, a: Sequence) -> tuple[int, ...]:
    """The lattice normal of sigma, as integers, at the facet cut out by its
    facet inequality with normal a (integers or fractions): an integral
    vector in the direction span of sigma pointing from the facet into
    sigma, generating the rank-one quotient of the two saturated lattices.

    The facet's lattice is the kernel of a on the lattice L of sigma, so u
    is any vector of L on which a takes its least positive value.  a is
    primitive integral, so a.x is an integer for every integral x, and a
    ray r of sigma (its direction, for a cell with vertices) with a.r = 1
    is such a u.  Without one, or when sigma is full-dimensional and L is
    Z^n with the unit basis, u is combined from a basis of L by an extended
    gcd.  u is well defined up to the facet's lattice, which lies in the
    facet's span and so affects neither balancing verdicts nor residuals.
    """
    a = _primitive_ints(a)
    rec = sigma._rec
    k = int(rec.affine)
    for r, _ in rec.rays if rec.eqs else ():
        if sum(map(mul, a, r[k:])) == 1:
            return r[k:]
    basis = sigma._lattice
    u = [0] * sigma.ambient_dim
    for x, w in zip(_bezout([sum(map(mul, a, w)) for w in basis]), basis):
        if x:
            u = [ui + x * wi for ui, wi in zip(u, w)]
    return tuple(u)


# ---------------------------------------------------------------------------
# faces


def _face(p: Polyhedron, key: tuple) -> Polyhedron:
    """The nonempty face of p whose `_face_key(p, tight)` is key, made from
    the key alone: p's lineality and the extreme generators of p whose tight
    sets contain `tight`, with canonical key (n, *key)."""
    face = Polyhedron._raw(p.ambient_dim, key[1], tuple(map(_fraction_row, key[2])),
                           tuple(map(_fraction_row, key[0])))
    face.__dict__["canonical_key"] = (p.ambient_dim, *key)
    return face


def _face_key(p: Polyhedron, tight: int) -> Optional[tuple]:
    """The canonical key without n of the face of p on which the facet
    inequalities with bit set in the mask `tight` are equalities, or None
    when that face is empty: p's lineality rows and the face's rays as ints,
    its vertices as the record's fraction rows, all read off p's canonical
    rows.  Equal keys are equal point sets; tight 0 gives p's own key."""
    rec = p._rec  # a cone's key has no vertices to scan
    vs = tuple([v for v, m in rec.key_verts if m & tight == tight] if rec.key_verts else ())
    if rec.key_verts and not vs:
        return None
    if len(vs) == 1 and not any(vs[0]):
        vs = ()  # the apex of a cone
    return rec.lin_ints, vs, tuple([r for r, m in rec.key_rays if m & tight == tight])


def _facet_cuts(rec: _Record, tight: int) -> list[int]:
    """One mask tight | 1 << k per facet of the face F that `tight` cuts
    out of the record's cell.  The facets of F are its maximal proper faces
    (Ziegler 1995, 2.1), among F cut by one more facet inequality; a face is
    the key generators on it, each known by its tight mask (distinct for
    distinct ones), and a cut is kept when it holds a vertex (a cone's apex
    lies on every face) but not all of F and no other cut holds more.  Every
    cut of a cell (tight 0) is a facet, its description being irredundant."""
    if not tight:
        return [1 << k for k in range(rec.cuts)]
    points = {mask for _, mask in rec.key_verts} or {-1}
    on = [g for g in itertools.chain(points, (m for _, m in rec.key_rays)) if g & tight == tight]
    cuts: dict[frozenset, int] = {}
    for k in range(rec.cuts):
        s = frozenset(g for g in on if g >> k & 1)
        if len(s) < len(on) and not points.isdisjoint(s):
            cuts.setdefault(s, tight | 1 << k)
    return [sub for s, sub in cuts.items() if not any(s < t for t in cuts)]


def _level_below(cells: Sequence[Polyhedron], level: Optional[list] = None
                 ) -> list[tuple[Polyhedron, tuple[int, ...], tuple[int, ...]]]:
    """The distinct faces one dimension below those of `level` (by default
    the cells), sorted by canonical key, each with the ids of cells it is a
    face of and, per cell, the mask of the cell's facet inequalities (bits
    over its record's first `_Record.cuts` facets) that cuts it out.  Each
    face of `level` is cut, through its first incidence, into its facets
    (`_facet_cuts`); incidences are grouped on `_face_key`, and one face is
    made per key, with the dimension of the face it was cut from minus one.
    Ridges list every incidence; a lower level lists those that reached a
    face, which may name several cells, or one incidence twice."""
    if level is None:
        level = [(cell, (i,), (0,)) for i, cell in enumerate(cells)]
    below: dict[tuple, tuple[Polyhedron, list[int], list[int]]] = {}
    for face, fids, masks in level:
        i, cell, d = fids[0], cells[fids[0]], face.dim - 1
        for sub in _facet_cuts(cell._rec, masks[0]):
            key = _face_key(cell, sub)
            entry = below.get(key)
            if entry is None:
                entry = below[key] = (_face(cell, key), [], [])
                entry[0].__dict__["dim"] = d
            entry[1].append(i)
            entry[2].append(sub)
    return [(f, tuple(ids), tuple(ms)) for f, ids, ms in map(below.get, sorted(below))]


def _generator_rows(p: Polyhedron) -> list[tuple[int, ...]]:
    """Rows in the (x0, x) frame that generate p: its canonical vertices as
    integer multiples of (1, v) (the origin when the key has none), its
    canonical rays, and its lineality rows in both directions."""
    rec = p._rec
    dirs = [r for r, _ in rec.key_rays] + list(rec.lin_ints)
    dirs += [tuple(-x for x in l) for l in rec.lin_ints]
    verts = [_int_row((1, *v)) for v, _ in rec.key_verts] or [(1,) + (0,) * p.ambient_dim]
    return verts + [(0,) + d for d in dirs]


def _least_face_key(p: Polyhedron, rows: Iterable[Sequence[int]]) -> Optional[tuple]:
    """The `_face_key` of the least face of p containing every row, the face
    cut out by the facets tight on all of them, or None when a row lies
    outside p."""
    rec, tight = p._rec, -1
    for row in rows:
        mask = rec.mask(row)
        if mask is None:
            return None
        tight &= mask
    return _face_key(p, tight)


def is_face_of(tau: Polyhedron, sigma: Polyhedron) -> bool:
    """Whether tau is a face of sigma: tau lies in sigma and equals the
    least face of sigma containing it, the one cut out by the facets of
    sigma tight on all of tau's generators."""
    if tau.ambient_dim != sigma.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return _least_face_key(sigma, _generator_rows(tau)) == tau.canonical_key[1:]


def _meet(p: Polyhedron, q: Polyhedron) -> list[tuple[int, ...]]:
    """Rows in the (x0, x) frame that generate the intersection of p and q,
    or [] when it is empty, from one `dd_cone`: the lifted rows of both
    records (`_lifted`) and x0 >= 0 cut out the cone over the intersection,
    whose lineality has x0 = 0 and comes in both directions."""
    (p_ineqs, p_eqs), (q_ineqs, q_eqs) = _lifted(p._rec), _lifted(q._rec)
    rays, lin = dd_cone([(1,) + (0,) * p.ambient_dim] + p_ineqs + q_ineqs, p_eqs + q_eqs,
                        p.ambient_dim + 1)
    if not any(r[0] > 0 for r in rays):
        return []
    return rays + lin + [tuple(-x for x in l) for l in lin]


# ---------------------------------------------------------------------------
# complexes


def _written(v: Vec) -> str:
    """The vector as messages show it, its entries as written: [1/2, 0]."""
    return "[" + ", ".join(map(str, v)) + "]"


class Complex(_Frozen):
    """Pure polyhedral complex given by maximal cells over shared pools.

    Each cell is a pair (vertex indices, ray indices); every cell implicitly
    contains the declared lineality space.  Lower-dimensional faces are
    derived on demand.  Weights are positive ints (bools are not), one per
    facet (None: all 1).

    Every complex, loaded or built, holds the fan file's pool invariant,
    and the constructor raises the loader's ValueError on one that does not:
    primitive integer rays, none in the lineality and no two equal modulo
    it; independent integer lineality rows; distinct vertices; and distinct
    cells without repeated indices into the pools.  Pools and lineality may
    be given as ints or fractions; the complex keeps the forms it checks:
    rays and vertices as fraction rows, and the lineality as its canonical
    basis, the one every cell receives.  `pooled` merges pools into it.
    """
    ambient_dim: int
    vertex_pool: tuple[Vec, ...]
    ray_pool: tuple[Vec, ...]
    lineality: tuple[Vec, ...]
    cells: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    weights: tuple[int, ...]

    def __init__(self, ambient_dim: int, vertex_pool: tuple[Vec, ...], ray_pool: tuple[Vec, ...],
                 lineality: tuple[Vec, ...],
                 cells: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...],
                 weights: Optional[tuple[int, ...]] = None):
        if weights is None:
            weights = (1,) * len(cells)
        if len(weights) != len(cells):
            raise ValueError("one weight per facet required")
        if any(type(w) is not int or w <= 0 for w in weights):
            raise ValueError("weights must be positive integers")
        if any(len(g) != ambient_dim for g in itertools.chain(vertex_pool, ray_pool, lineality)):
            raise ValueError("generator has wrong ambient dimension")
        for l in lineality:
            if any(x.denominator != 1 for x in l):
                raise ValueError(f"lineality row {_written(l)} is not an integer vector")
        lin = subspace_canonical_basis([vec(l) for l in lineality])
        if len(lin) < len(lineality):
            raise ValueError("lineality rows are zero or linearly dependent")
        lin_rows, keys, canon, first, seen = [_numerators(l) for l in lin], [], {}, {}, {}
        for i, r in enumerate(ray_pool):
            # None: zero or in the lineality; a primitive integer ray equals its row
            if (rows := _ray_rows(r, lin_rows)) is None or rows[0] != r:
                raise ValueError(f"ray {_written(r)} " + (
                    "lies in the lineality" if rows is None and any(r) else
                    "is not a primitive nonzero vector" if all(x.denominator == 1 for x in r)
                    else "is not an integer vector"))
            keys.append(rows[0])
            if (j := first.setdefault(canon.setdefault(*rows), i)) != i:
                raise ValueError(f"rays {_written(ray_pool[j])} and {_written(r)} are equal "
                                 "modulo the lineality")
        vertex_pool = tuple(map(vec, vertex_pool))
        if len(set(vertex_pool)) < len(vertex_pool):
            v = next(v for i, v in enumerate(vertex_pool) if v in vertex_pool[:i])
            raise ValueError(f"vertex {_written(v)} is repeated in the pool")
        for i, (v, r) in enumerate(cells):
            if v and (min(v) < 0 or max(v) >= len(vertex_pool)) or \
                    r and (min(r) < 0 or max(r) >= len(ray_pool)):
                raise ValueError("cell references an index outside the pools")
            key = tuple(sorted(v)), tuple(sorted(r))
            if len(set(v)) < len(v) or len(set(r)) < len(r):
                raise ValueError(f"cell {i} repeats an index")
            if (j := seen.setdefault(key, i)) != i:
                raise ValueError(f"cells {j} and {i} are identical")
        # _pool: the lineality rows, each ray's canonical row, the ray rows
        self.__dict__.update(ambient_dim=ambient_dim, vertex_pool=vertex_pool,
                             ray_pool=tuple(map(_fraction_row, keys)), lineality=lin,
                             cells=cells, weights=weights, _pool=(lin_rows, canon, keys))

    @staticmethod
    def pooled(n: int, vertices: Sequence[Vec], rays: Sequence[Vec], lineality: Iterable,
               cells: Iterable, weights: Optional[Iterable[int]] = None) -> "Complex":
        """Candidate pools and index cells merged into `Complex`'s invariant.
        A vertex v is keyed on the least integer multiple of (1, v), a ray on
        its canonical row (`_ray_rows`): rays equal modulo the lineality keep
        the first one given, as its primitive row, and rays inside it drop
        out.  A cell is the set of its entries: repeated indices collapse,
        unused entries go; identical cells raise ValueError."""
        lin = subspace_canonical_basis([vec(l) for l in lineality])
        lin_rows = [_numerators(l) for l in lin]
        vkeys = [tuple(_int_row((1, *v))) for v in vertices]
        rkeys = [_ray_rows(r, lin_rows) for r in rays]
        vindex, rindex = {}, {}
        cells = tuple((tuple(sorted({vindex.setdefault(vkeys[j], len(vindex)) for j in vidx})),
                       tuple(sorted({rindex.setdefault(k[1], (len(rindex), k[0]))[0]
                                     for j in ridx if (k := rkeys[j])})))
                      for vidx, ridx in cells)
        return Complex(n, tuple(tuple(Fraction(x, v[0]) for x in v[1:]) for v in vindex),
                       tuple(r for _, r in rindex.values()), lin_rows, cells,
                       None if weights is None else tuple(weights))

    @staticmethod
    def from_facets(facets: Sequence[Polyhedron], lineality: Iterable = (),
                    ambient_dim: Optional[int] = None,
                    weights: Optional[Sequence[int]] = None) -> "Complex":
        """Pool facet polyhedra through `pooled`: each facet lists its
        vertices, its rays and its lineality as opposite ray pairs (the same
        point set), which drop out inside the declared lineality."""
        facets = list(facets)
        if ambient_dim is None:
            if not facets:
                raise ValueError("ambient_dim required without facets")
            ambient_dim = facets[0].ambient_dim
        lin = subspace_canonical_basis([vec(l) for l in lineality])
        verts, rays, cells = [], [], []
        for f in facets:
            if f.ambient_dim != ambient_dim:
                raise ValueError("facet ambient dimension mismatch")
            f_lin = [_numerators(l) for l in f.lineality]
            for l in map(_numerators, lin):
                # pooling would silently fatten a cell missing the lineality
                if _outside(l, f_lin) and not (
                        f.contains_direction(l) and f.contains_direction(neg(l))):
                    raise ValueError(
                        "facet does not contain the declared lineality space")
            v0, r0 = len(verts), len(rays)
            verts += f.vertices
            rays += f.rays + tuple(g for l in f.lineality for g in (l, neg(l)))
            cells.append((range(v0, len(verts)), range(r0, len(rays))))
        return Complex.pooled(ambient_dim, verts, rays, lin, cells, weights)

    @cached_property
    def facet_polyhedra(self) -> tuple[Polyhedron, ...]:
        """The polyhedron of every cell, over the pools and lineality as
        stored; every cell gets its record here, from its rays' primitive
        rows and the complex's `_pool`, in place of the fractions."""
        n, pool, verts, rays = self.ambient_dim, self._pool, self.vertex_pool, self.ray_pool
        keys = pool[2]
        cells = []
        for vidx, ridx in self.cells:
            cell = Polyhedron._raw(n, tuple(verts[j] for j in vidx),
                                   tuple(rays[j] for j in ridx), self.lineality)
            cell.__dict__["_rec"] = _Record(cell, [keys[j] for j in ridx], pool)
            cells.append(cell)
        return tuple(cells)

    @cached_property
    def ridges(self) -> tuple[tuple[Polyhedron, tuple[int, ...], tuple[int, ...]], ...]:
        """Distinct codimension-one faces of the facets, sorted by canonical
        key, each with the ids of the facets it is a face of and, per facet,
        the index of the inequality that cuts it out among the facets of its
        record (`_Record.cut`): the face walk's first step, `_level_below`."""
        return tuple((face, fids, tuple(m.bit_length() - 1 for m in masks))
                     for face, fids, masks in _level_below(self.facet_polyhedra))

    @cached_property
    def _validation(self) -> "ValidationReport":
        """Purity, checked once per complex."""
        return _validate(self)

    @cached_property
    def dim(self) -> int:
        if not self.cells:
            return len(self.lineality)
        return max(f.dim for f in self.facet_polyhedra)

    @cached_property
    def lineality_dim(self) -> int:
        """Dimension of the lineality every cell contains, the kernel of the
        linear parts of all the cells' lifted rows (`_lifted`); a file may
        declare less.  It is the declared count when some cell has no
        lineality beyond it."""
        cells, declared = self.facet_polyhedra, len(self.lineality)
        if not cells or any(len(f._rec.lin_ints) == declared for f in cells):
            return declared
        return self.ambient_dim - matrix_rank(
            {a[1:] for f in cells for rows in _lifted(f._rec) for a in rows})

    def __len__(self) -> int:
        return len(self.cells)


class ValidationReport(NamedTuple):
    valid: bool
    dim: int
    issues: tuple[str, ...]


def _validate(c: Complex) -> ValidationReport:
    """Purity, and no two cells one point set.  Every cell contains the
    declared lineality, since `facet_polyhedra` gives each cell exactly that
    lineality.  Two cells coincide exactly when their canonical keys are
    equal; one message per such pair."""
    facets = c.facet_polyhedra
    d = c.dim
    issues = [f"facet {i} has dimension {f.dim}, expected {d}"
              for i, f in enumerate(facets) if f.dim != d]
    same: dict[tuple, list[int]] = {}
    for i, f in enumerate(facets):
        same.setdefault(f.canonical_key, []).append(i)
    pairs = sorted(pair for ids in same.values() for pair in itertools.combinations(ids, 2))
    issues += [f"facets {i} and {j} coincide" for i, j in pairs]
    return ValidationReport(not issues, d, tuple(issues))


def validate_complex(c: Complex, pairwise: bool = False) -> ValidationReport:
    """Check purity and that no two cells coincide; optionally the
    pairwise face fit.

    Returns a structured report and never raises.  The report without the
    pairwise check is computed once per complex and then reused.

    The fit takes one `dd_cone` per pair of cells p, q that do not
    coincide (`_meet`); the report already names those that do.  Their
    intersection M, when nonempty, is a common face exactly when the least
    face F_p of p containing M and the least face F_q of q containing M
    have equal keys (`_face_key`): both contain M, and when equal the
    face lies in p and in q, so in M, and equals it; conversely a common
    face M is its own least face in both cells.
    """
    report = c._validation
    if not pairwise:
        return report
    issues = list(report.issues)
    facets = c.facet_polyhedra
    for i, j in itertools.combinations(range(len(facets)), 2):
        p, q = facets[i], facets[j]
        if p.canonical_key == q.canonical_key:
            continue
        rows = _meet(p, q)
        if rows and _least_face_key(p, rows) != _least_face_key(q, rows):
            issues.append(f"facets {i} and {j} do not meet in a common face")
    return ValidationReport(not issues, report.dim, tuple(issues))
