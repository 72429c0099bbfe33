"""Operations on rational fans and complexes used in tropical geometry.

Covers lineality quotients along lattice-compatible projections, stars at
faces of fans, outer normal fans and their skeleta, the balancing condition
at ridges, transverse affine hyperplane sections, and a
separating-hyperplane predicate for triples of cells.  Sections decide
transversality by dot products on the cells' generators and slice a cell's
lifted record rows (`polyhedral._lifted`) by one double description
(`polyhedral._from_rows`); the separating-hyperplane search and its check,
on the same lifted rows, decide strict feasibility by one double
description each (`polyhedral._feasible_point`).  The search works from one
side of the cell it must miss, since (h, c) and (-h, -c) are one
hyperplane.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul
from typing import Iterable, NamedTuple, Optional, Sequence

from .polyhedral import (
    AffineHyperplane, Complex, NotInComplex, Polyhedron, _feasible_point,
    _from_rows, _lattice_normal, _level_below, _lifted, _numerators, _outside, is_face_of,
)
from .ratlin import (
    Mat, Vec, _int_kernel, _primitive_ints, dot, identity_mat,
    lattice_complement_projection, mat, mat_vec, reduce_mod_subspace,
    subspace_canonical_basis, transpose, unit_vec, vec, zero_vec,
)


# `gen normal-fan-cube 12` writes the 4,096 orthants of [-1, 1]^12 in 2.4 s on
# a 2-CPU host (CPython 3.11), and each further dimension doubles the orthants
CUBE_DIM_LIMIT = 12


class LinealityObstruction(ValueError):
    """Requested skeleton dimension lies below the lineality dimension."""


class NotTransverse(ValueError):
    """The hyperplane violates a transversality condition; carries details."""


class DegenerateInput(ValueError):
    """The separating-hyperplane predicate needs three distinct cells."""


class NotAFan(ValueError):
    """The operation is only defined for fans (complexes of cones)."""


# ---------------------------------------------------------------------------
# lineality spaces and quotients


def _project_cells(c: Complex, ids: Sequence[int], proj: Mat) -> Complex:
    """The cells of c with the given ids, projected by the integer matrix
    proj into R^(rows of proj), each keeping its weight.  Each pool entry is
    mapped once and the index cells are pooled again (`Complex.pooled`), so
    images that are zero or equal merge.  Both callers project along a span
    that holds the declared lineality, so its image is zero."""
    return Complex.pooled(len(proj), [mat_vec(proj, v) for v in c.vertex_pool],
                          [mat_vec(proj, r) for r in c.ray_pool], (),
                          [c.cells[i] for i in ids], [c.weights[i] for i in ids])


def quotient_by_lineality(c: Complex) -> tuple[Complex, Mat]:
    """Project the complex along its declared lineality space.

    The projection matrix is integral and lattice-compatible, so rational
    data stays rational.  Facet order and weights are preserved, and the
    facet-ridge hypergraph is carried over unchanged (this is checked by the
    test suite, not here).
    """
    n = c.ambient_dim
    if not c.lineality:
        return c, identity_mat(n)
    proj = lattice_complement_projection(c.lineality, n)
    return _project_cells(c, range(len(c)), proj), proj


def star(c: Complex, face: Polyhedron) -> Complex:
    """Cells of a fan containing the face, modulo the face's linear span.

    Defined for fans; the result lives in the lattice quotient along the
    span of the face and is pure of dimension dim(c) - dim(face).
    """
    if any(f.vertices for f in c.facet_polyhedra) or face.vertices:
        raise NotAFan("star is implemented for fans of cones")
    incident = [i for i, f in enumerate(c.facet_polyhedra) if is_face_of(face, f)]
    if not incident:
        raise NotInComplex("the given face is not a face of any cell")
    proj = lattice_complement_projection(face.direction_span, c.ambient_dim)
    return _project_cells(c, incident, proj)


# ---------------------------------------------------------------------------
# normal fans and skeleta


def normal_fan(vertices: Sequence[Iterable]) -> Complex:
    """Outer normal fan of the convex hull P of the given rational points.

    The maximal cone attached to an extreme point v is
    N_v = {h : h.v >= h.w for all w}, one per distinct extreme point in
    input order; the fan is complete, and its lineality is the orthogonal
    complement of the direction span of P.  All is read off the integer
    record of P (one double description): by polarity (Ziegler 1995, 7.1)
    N_v is spanned by the outer normals of the facets of P through v plus
    that complement, so a facet row a0 + a.x >= 0 gives the primitive -a,
    and rows with a in the complement (x0 >= 0 among them) give none.  A
    point lies on exactly the facets its tight mask names, and distinct
    faces have distinct masks, so a point is an extreme vertex of P iff its
    mask is one of the record's `key_verts` masks.  The key drops a lone
    vertex at the origin, so one point (fan R^n) is set apart.
    As `bergman_fine` does from flats, the pool is the distinct outer normals
    and a cell the sorted pool ids of the facets through its vertex.
    """
    pts = mat(vertices)
    if not pts:
        raise ValueError("at least one point required")
    n = len(pts[0])
    hull = Polyhedron(n, pts)
    rec = hull._rec
    lineality = subspace_canonical_basis(rec.span_eqs)
    lin_rows = [_numerators(l) for l in lineality]
    outer = {i: _primitive_ints([-x for x in a]) for i in range(len(rec.facets))
             if _outside(a := rec.cut(i), lin_rows)}
    extreme = {mask for _, mask in rec.key_verts} if hull.dim else {rec.verts[0][1]}
    pool: dict[tuple[int, ...], int] = {}
    cells = []
    for _, mask in rec.verts:
        if mask in extreme:
            extreme.remove(mask)
            rays = sorted(r for i, r in outer.items() if mask >> i & 1)
            cells.append(((), tuple(sorted(pool.setdefault(r, len(pool)) for r in rays))))
    return Complex(n, (), tuple(pool), lineality, tuple(cells))


def skeleton(c: Complex, k: int) -> Complex:
    """Subcomplex of all cells of dimension at most k, pure of dimension k."""
    d = c.dim
    ell = c.lineality_dim
    if k < ell:
        raise LinealityObstruction(
            f"skeleton dimension {k} is below the lineality dimension {ell}")
    if not ell <= k <= d:
        raise ValueError(f"need lineality dim <= k <= {d}")
    if k == d:
        return c
    level = [(face, fids, tuple(1 << j for j in cuts)) for face, fids, cuts in c.ridges]
    for _ in range(d - 1 - k):
        level = _level_below(c.facet_polyhedra, level)
    return Complex.from_facets([face for face, _, _ in level], lineality=c.lineality,
                               ambient_dim=c.ambient_dim)


# ---------------------------------------------------------------------------
# balancing


class RidgeBalance(NamedTuple):
    ridge: Polyhedron
    balanced: bool
    residual: Vec

    @property
    def ridge_label(self) -> str:
        return self.ridge.label()


class BalancingReport(NamedTuple):
    balanced: bool
    entries: tuple[RidgeBalance, ...]

    def failing(self) -> list[RidgeBalance]:
        return [e for e in self.entries if not e.balanced]


def balancing_check(c: Complex) -> BalancingReport:
    """Verify the balancing condition at every ridge, with the complex's
    facet weights.

    At a ridge tau, the weighted sum of lattice normal generators of the
    incident facets must lie in the linear span of tau.  The verdict does
    not depend on the choice of generator representatives, which are only
    defined modulo that span.  With sigma one facet at tau, that span is
    the part of sigma's span on which the facet inequality of sigma cutting
    out tau vanishes, so membership is a test of integer dot products with
    sigma's equations and that inequality; the residual modulo the span is
    computed only at an unbalanced ridge.
    """
    facets = c.facet_polyhedra
    zero = zero_vec(c.ambient_dim)
    entries = []
    ok = True
    for tau, fids, cuts in c.ridges:
        total = [0] * c.ambient_dim
        for fid, cut in zip(fids, cuts):
            sigma = facets[fid]
            u = _lattice_normal(sigma, sigma._rec.cut(cut))
            weight = c.weights[fid]
            total = [t + weight * x for t, x in zip(total, u)]
        rec = facets[fids[0]]._rec
        balanced = not any(sum(map(mul, a, total))
                           for a in rec.span_eqs + [rec.cut(cuts[0])])
        residual = zero if balanced else \
            reduce_mod_subspace(tuple(map(Fraction, total)), tau.direction_span)
        ok = ok and balanced
        entries.append(RidgeBalance(tau, balanced, residual))
    return BalancingReport(ok, tuple(entries))


# ---------------------------------------------------------------------------
# transverse hyperplane sections


class SectionResult(NamedTuple):
    """Slice of a complex by a transverse affine hyperplane.

    facet_provenance[i] is the source facet sliced into section facet i;
    pure records whether every slice has dimension d-1: whether its cell has d.
    """
    section: Complex
    facet_provenance: tuple[int, ...]
    pure: bool


def hyperplane_section(c: Complex, H: AffineHyperplane) -> SectionResult:
    """Intersect a pure complex with a transverse affine hyperplane.

    One pass over each cell's canonical generators decides transversality
    and slicing.  Every face contains a minimal face, a canonical vertex
    (the origin for a cone) plus the true lineality (Schrijver 1986, 8.5),
    so H contains a face iff it contains such a vertex and is parallel to
    that lineality.  H meets a relative interior iff it takes both signs on
    a generating set (Rockafellar 1970, Thm 6.6); such a cell, which H does
    not contain, is sliced one dimension down.  The slice of cell σ has weight
    w_σ · gcd(h·u for u in `σ._lattice`), h the primitive normal: the
    multiplicity [Z^n : L_σ + (h^⊥ ∩ Z^n)] of a transverse intersection
    (Maclagan & Sturmfels 2015, §3.6), as x ↦ h·x maps Z^n onto Z with
    kernel h^⊥ ∩ Z^n, so the index is that of h·L_σ in Z.
    """
    n = c.ambient_dim
    d = c.dim
    slices: list[Polyhedron] = []
    provenance: list[int] = []
    weights: list[int] = []
    for i, f in enumerate(c.facet_polyhedra):
        _, lin, verts, rays = f.canonical_key
        pts = verts or (zero_vec(n),)
        vals = [H.value(v) for v in pts]
        if not any(dot(H.normal, l) for l in lin):
            if 0 in vals:
                face = Polyhedron(n, (pts[vals.index(0)],), (), lin)
                raise NotTransverse(f"hyperplane contains {face.label()}, a face of a cell")
            vals += [dot(H.normal, r) for r in rays]
            if not min(vals) < 0 < max(vals):
                continue
        ineqs, eqs = _lifted(f._rec)
        slices.append(_from_rows(n, ineqs, eqs + [(-H.offset, *H.normal)]))
        provenance.append(i)
        weights.append(c.weights[i] * math.gcd(
            *(dot(H.normal, u).numerator for u in f._lattice)))
    # the combinations of the source lineality that stay parallel to H
    _, coeffs = _int_kernel([[dot(H.normal, l) for l in c.lineality]])
    new_lin = [mat_vec(transpose(c.lineality), vec(ks)) for ks in coeffs]
    section = Complex.from_facets(slices, lineality=new_lin, ambient_dim=n,
                                  weights=weights)
    pure = all(c.facet_polyhedra[i].dim == d for i in provenance)
    return SectionResult(section, tuple(provenance), pure)


# ---------------------------------------------------------------------------
# separating hyperplanes between cells


def _side_constraints(F: Polyhedron) -> list:
    """Linear conditions on (h, c) putting F strictly above H."""
    n = F.ambient_dim
    cons = [(tuple(v) + (Fraction(-1),), Fraction(0), ">") for v in F.vertices or (zero_vec(n),)]
    cons += [(tuple(r) + (Fraction(0),), Fraction(0), ">=") for r in F.rays]
    cons += [(tuple(l) + (Fraction(0),), Fraction(0), "=") for l in F.lineality]
    return cons


def _meet_relint_modes(P: Polyhedron) -> list[list]:
    """Constraint families, one per mode, whose disjunction says that the
    hyperplane {h.x = c} meets the relative interior of P: P lies inside H,
    or two distinct generators of P witness points strictly on both sides
    (one cannot be on both), or a lineality direction not parallel to H
    witnesses both sides at once.  `witness_hyperplane` needs them with F
    above H only."""
    n = P.ambient_dim
    gens = [tuple(v) + (Fraction(-1),) for v in P.vertices or (zero_vec(n),)]
    gens += [tuple(r) + (Fraction(0),) for r in P.rays]
    lin = [tuple(l) + (Fraction(0),) for l in P.lineality]
    modes = [[(g, Fraction(0), "=") for g in gens + lin]]
    # below g (h.g < c) and above g' (h.g' > c), in product order, g != g'
    modes += [[(tuple(-x for x in b), Fraction(0), ">"), (a, Fraction(0), ">")]
              for b, a in itertools.permutations(gens, 2)]
    modes += [[(s, Fraction(0), ">")] for l in lin for s in (l, tuple(-x for x in l))]
    return modes


def witness_hyperplane(P: Polyhedron, Q: Polyhedron,
                       F: Polyhedron) -> Optional[AffineHyperplane]:
    """Hyperplane meeting the relative interiors of P and Q but missing F.

    Meeting a relative interior is a finite disjunction of linear conditions
    on (normal, offset) (`_meet_relint_modes`), so the search is a family of
    exact strict-feasibility systems, each decided by one double
    description, all with F strictly above H.  F below is no other case:
    negating (h, c), the same hyperplane, maps F's below-side conditions
    onto its above-side ones, each cell's contained mode to itself, its two
    lineality modes onto each other and (below g, above g') to (below g',
    above g).  Witnesses are re-verified against the facet descriptions of
    all three cells; None means every system was infeasible.
    """
    if P.canonical_key == Q.canonical_key or \
            F.canonical_key in (P.canonical_key, Q.canonical_key):
        raise DegenerateInput("cells must be pairwise distinct")
    n = P.ambient_dim
    side = _side_constraints(F)
    # a pair can be feasible only if each of its modes is on its own
    live_p = [mp for mp in _meet_relint_modes(P) if _feasible_point(n + 1, side + mp) is not None]
    live_q = [mq for mq in _meet_relint_modes(Q) if _feasible_point(n + 1, side + mq) is not None]
    for mp, mq in itertools.product(live_p, live_q):
        witness = _feasible_point(n + 1, side + mp + mq)
        if witness is None:
            continue
        H = AffineHyperplane(witness[:n], witness[n])
        if check_witness_hyperplane(P, Q, F, H):
            return H
        raise AssertionError("witness hyperplane failed the independent check")
    return None


def check_witness_hyperplane(P: Polyhedron, Q: Polyhedron, F: Polyhedron,
                             H: AffineHyperplane) -> bool:
    """Independent verification through the facet descriptions.

    H must be solvable inside the relative interiors of P and Q (strict
    facet inequalities) and infeasible on all of F.
    """
    def meets(cell: Polyhedron, rel: str) -> bool:
        """Whether H meets the cell, with its facet inequalities under rel."""
        ineqs, eqs = _lifted(cell._rec)
        cons = [(a[1:], -a[0], rel) for a in ineqs] + [(e[1:], -e[0], "=") for e in eqs]
        cons.append((H.normal, H.offset, "="))
        return _feasible_point(P.ambient_dim, cons) is not None

    return meets(P, ">") and meets(Q, ">") and not meets(F, ">=")


# ---------------------------------------------------------------------------
# canonical generated fans


def standard_tropical_plane() -> Complex:
    """Two-dimensional fan in R^3 with rays e1, e2, e3, -(1,1,1) and all six
    two-dimensional cones spanned by pairs of rays."""
    rays = (*(unit_vec(i, 3) for i in range(3)), vec([-1, -1, -1]))
    return Complex(3, (), rays, (), tuple(((), ab) for ab in itertools.combinations(range(4), 2)))


def two_planes_fan() -> Complex:
    """Union of two standard tropical planes in R^5 glued along the e1 ray.

    One plane spans coordinates {1,2,3}, the other {1,4,5}; the ray through
    e1 is their intersection.  The fan is pure and two-dimensional with
    twelve facets, but removing any closed facet containing e1 disconnects
    its facet-ridge hypergraph.
    """
    e = [unit_vec(i, 5) for i in range(5)]
    rays = (e[0], e[1], e[2], vec([-1, -1, -1, 0, 0]), e[3], e[4], vec([-1, 0, 0, -1, -1]))
    cells = tuple(((), ab) for plane in ((0, 1, 2, 3), (0, 4, 5, 6))
                  for ab in itertools.combinations(plane, 2))
    return Complex(5, (), rays, (), cells)


def cube_normal_fan(d: int) -> Complex:
    """Normal fan of the cube [-1, 1]^d: the 2^d closed orthants."""
    if d < 1:
        raise ValueError("dimension must be positive")
    if d > CUBE_DIM_LIMIT:
        raise ValueError(f"cube dimension {d} exceeds the limit {CUBE_DIM_LIMIT}")
    corners = [tuple(Fraction(s) for s in signs)
               for signs in itertools.product((-1, 1), repeat=d)]
    return normal_fan(corners)

