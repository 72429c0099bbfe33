"""Operations on rational fans and complexes used in tropical geometry.

Covers lineality quotients along lattice-compatible projections, stars at
faces of fans, outer normal fans and their skeleta, recession fans, the
balancing condition at ridges, transverse affine hyperplane sections, and a
separating-hyperplane predicate for triples of cells.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .polyhedral import (
    AffineHyperplane, Complex, HRep, NotInComplex, Polyhedron, codim1_faces,
    is_face_of,
)
from .ratlin import (
    LinearProgram, Mat, Vec, add, dot, is_zero, lattice_complement_projection,
    lattice_normal_generator, lp_feasible, mat, mat_vec, neg, primitive_vector,
    rank_and_kernel, reduce_mod_subspace, scale, sub, subspace_canonical_basis,
    subspace_contains, vec, zero_vec,
)


class DeclarationMismatch(ValueError):
    """Declared lineality is not contained in the computed lineality space."""


class LinealityObstruction(ValueError):
    """Requested skeleton dimension lies below the lineality dimension."""


class NotTransverse(ValueError):
    """The hyperplane violates a transversality condition; carries details."""


class DegenerateInput(ValueError):
    """The separating-hyperplane predicate needs three distinct cells."""


class NotAFan(ValueError):
    """The operation is only defined for fans (complexes of cones)."""


@dataclass(frozen=True)
class WeightedComplex:
    """A complex together with one positive integer weight per facet."""
    complex: Complex
    weights: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.weights:
            object.__setattr__(self, "weights", self.complex.weights)
        if len(self.weights) != len(self.complex):
            raise ValueError("one weight per facet required")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")


# ---------------------------------------------------------------------------
# lineality spaces and quotients


def _subspace_intersection(bases: Sequence[Mat], n: int) -> Mat:
    equations: list[Vec] = []
    for basis in bases:
        if not basis:
            return ()
        _, complement = rank_and_kernel(mat(basis))
        equations.extend(primitive_vector(k) for k in complement)
    if not equations:
        return subspace_canonical_basis(
            [tuple(Fraction(1 if j == i else 0) for j in range(n)) for i in range(n)])
    _, meet = rank_and_kernel(mat(equations))
    return subspace_canonical_basis(meet)


def complex_lineality_space(c: Complex) -> Mat:
    """Largest subspace V with sigma + V = sigma for every cell.

    Computed as the intersection of the facets' lineality spaces; raises
    DeclarationMismatch when the declared lineality is not inside it.
    """
    facets = c.facet_polyhedra
    if not facets:
        return c.lineality
    computed = _subspace_intersection([f.true_lineality for f in facets],
                                      c.ambient_dim)
    for f in facets:
        for v in computed:
            if not (f.contains_direction(v) and f.contains_direction(neg(v))):
                raise AssertionError("computed lineality fails containment")
    for l in c.lineality:
        if not subspace_contains(computed, l):
            raise DeclarationMismatch(
                "declared lineality is not contained in the computed lineality space")
    return computed


def projection_along(subspace_gens: Sequence[Vec], ambient_dim: int) -> Mat:
    """Deterministic integer projection with the given subspace as kernel."""
    return lattice_complement_projection(subspace_gens, ambient_dim)


def _project_polyhedron(p: Polyhedron, proj: Mat, target_dim: int) -> Polyhedron:
    verts = tuple(mat_vec(proj, v) for v in p.vertices)
    rays = tuple(r2 for r in p.rays if not is_zero(r2 := mat_vec(proj, r)))
    lin = tuple(l2 for l in p.lineality if not is_zero(l2 := mat_vec(proj, l)))
    return Polyhedron(target_dim, verts, rays, lin)


def quotient_by_lineality(c: Complex) -> tuple[Complex, Mat]:
    """Project the complex along its declared lineality space.

    The projection matrix is integral and lattice-compatible, so rational
    data stays rational.  Facet order and weights are preserved, and the
    facet-ridge hypergraph is carried over unchanged (this is checked by the
    test suite, not here).
    """
    n = c.ambient_dim
    if not c.lineality:
        return c, tuple(tuple(Fraction(1 if j == i else 0) for j in range(n))
                        for i in range(n))
    proj = lattice_complement_projection(c.lineality, n)
    target = n - len(c.lineality)
    facets = [_project_polyhedron(f, proj, target) for f in c.facet_polyhedra]
    out = Complex.from_facets(facets, lineality=(), ambient_dim=target,
                              weights=c.weights)
    return out, proj


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
    target = c.ambient_dim - face.dim
    facets = [_project_polyhedron(c.facet_polyhedra[i], proj, target)
              for i in incident]
    weights = tuple(c.weights[i] for i in incident)
    return Complex.from_facets(facets, lineality=(), ambient_dim=target,
                               weights=weights)


# ---------------------------------------------------------------------------
# normal fans, skeleta, recession fans


def normal_fan(vertices: Sequence[Iterable]) -> WeightedComplex:
    """Outer normal fan of the convex hull of the given rational points.

    The maximal cone attached to an extreme point v is
    {h : h.v >= h.w for all w}; non-extreme input points contribute
    lower-dimensional cones and are skipped.  The fan is complete; its
    lineality is the orthogonal complement of the hull's direction span.
    """
    pts = [vec(v) for v in vertices]
    if not pts:
        raise ValueError("at least one point required")
    n = len(pts[0])
    from .polyhedral import dd_cone
    cones: list[Polyhedron] = []
    seen = set()
    for i, v in enumerate(pts):
        normals = [sub(v, w) for j, w in enumerate(pts)
                   if j != i and not is_zero(sub(v, w))]
        rays, lin = dd_cone(normals, [], n)
        cone = Polyhedron(n, (), rays, lin)
        if cone.dim != n:
            continue  # v is not an extreme point of the hull
        key = cone.canonical_key
        if key not in seen:
            seen.add(key)
            cones.append(cone)
    directions = [sub(w, pts[0]) for w in pts[1:]]
    if directions and any(not is_zero(d) for d in directions):
        _, complement = rank_and_kernel(mat([d for d in directions if not is_zero(d)]))
        lineality = subspace_canonical_basis(complement)
    else:
        lineality = subspace_canonical_basis(
            [tuple(Fraction(1 if j == i else 0) for j in range(n)) for i in range(n)])
    fan = Complex.from_facets(cones, lineality=lineality, ambient_dim=n)
    return WeightedComplex(fan)


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
    faces = {f.canonical_key: f for f in c.facet_polyhedra}
    level = d
    while level > k:
        nxt: dict[tuple, Polyhedron] = {}
        for f in faces.values():
            for g in codim1_faces(f):
                nxt.setdefault(g.canonical_key, g)
        faces = nxt
        level -= 1
    ordered = [faces[key] for key in sorted(faces)]
    return Complex.from_facets(ordered, lineality=c.lineality,
                               ambient_dim=c.ambient_dim)


def recession_fan(c: Complex) -> Complex:
    """Fan of recession cones of the cells, deduplicated and maximal.

    Recession cones of a general complex may fail to form a valid fan;
    validate_complex reports on the output but nothing is enforced here.
    """
    recs: dict[tuple, Polyhedron] = {}
    for f in c.facet_polyhedra:
        r = f.recession().canonical()
        recs.setdefault(r.canonical_key, r)
    cones = [recs[k] for k in sorted(recs)]
    maximal = [p for p in cones
               if not any(q is not p and q.contains(p) for q in cones)]
    return Complex.from_facets(maximal, lineality=c.lineality,
                               ambient_dim=c.ambient_dim)


# ---------------------------------------------------------------------------
# balancing


@dataclass(frozen=True)
class RidgeBalance:
    ridge_label: str
    balanced: bool
    residual: Vec


@dataclass(frozen=True)
class BalancingReport:
    balanced: bool
    entries: tuple[RidgeBalance, ...]

    def failing(self) -> list[RidgeBalance]:
        return [e for e in self.entries if not e.balanced]


def balancing_check(w: WeightedComplex) -> BalancingReport:
    """Verify the balancing condition at every ridge.

    At a ridge tau, the weighted sum of lattice normal generators of the
    incident facets must lie in the linear span of tau.  The verdict does
    not depend on the choice of generator representatives, which are only
    defined modulo that span.
    """
    c = w.complex
    facets = c.facet_polyhedra
    entries = []
    ok = True
    for tau, fids in c.ridges:
        total = zero_vec(c.ambient_dim)
        for fid in fids:
            u = lattice_normal_generator(facets[fid], tau)
            total = add(total, scale(w.weights[fid], u))
        residual = reduce_mod_subspace(total, tau.direction_span)
        balanced = is_zero(residual)
        ok = ok and balanced
        entries.append(RidgeBalance(tau.label(), balanced, residual))
    return BalancingReport(ok, tuple(entries))


# ---------------------------------------------------------------------------
# transverse hyperplane sections


@dataclass(frozen=True)
class SectionResult:
    """Slice of a complex by a transverse affine hyperplane.

    facet_provenance[i] is the index of the source facet whose slice is
    section facet i.  pure records whether every slice has dimension d-1.
    """
    section: Complex
    facet_provenance: tuple[int, ...]
    pure: bool


def _all_faces(c: Complex) -> list[Polyhedron]:
    faces: dict[tuple, Polyhedron] = {}
    frontier = list(c.facet_polyhedra)
    while frontier:
        nxt = []
        for f in frontier:
            if f.canonical_key in faces:
                continue
            faces[f.canonical_key] = f
            nxt.extend(codim1_faces(f))
        frontier = nxt
    return list(faces.values())


def check_transversality(c: Complex, H: AffineHyperplane) -> None:
    """Raise NotTransverse if H hits a vertex or contains a cell's span."""
    for face in _all_faces(c):
        base = face.base_point()
        on_base = H.value(base) == 0
        if face.dim == 0 and on_base:
            raise NotTransverse(f"hyperplane contains the vertex {base}")
        if on_base and all(dot(H.normal, d) == 0 for d in face.direction_span):
            raise NotTransverse(
                "hyperplane contains the affine span of a cell")


def hyperplane_section(c: Complex, H: AffineHyperplane) -> SectionResult:
    """Intersect a pure complex with a transverse affine hyperplane.

    The section's facets are the slices of the facets whose relative
    interior meets H; lower faces are derived.  Slice weights are inherited
    from the source facets.
    """
    check_transversality(c, H)
    n = c.ambient_dim
    d = c.dim
    slices: list[Polyhedron] = []
    provenance: list[int] = []
    weights: list[int] = []
    for i, f in enumerate(c.facet_polyhedra):
        h = f.hrep
        cons = [(a, b, ">") for a, b in h.inequalities]
        cons += [(a, b, "=") for a, b in h.equations]
        cons.append((H.normal, H.offset, "="))
        if lp_feasible(LinearProgram(n, tuple(cons))) is None:
            continue
        merged = HRep(n, h.inequalities,
                      h.equations + ((H.normal, H.offset),))
        piece = Polyhedron.from_hrep(merged)
        slices.append(piece)
        provenance.append(i)
        weights.append(c.weights[i])
    # lineality directions of the source that remain parallel to H
    lin_vals = [dot(H.normal, l) for l in c.lineality]
    pivot = next((i for i, v in enumerate(lin_vals) if v != 0), None)
    if pivot is None:
        new_lin = c.lineality
    else:
        new_lin = []
        for i, l in enumerate(c.lineality):
            if i == pivot:
                continue
            if lin_vals[i] != 0:
                l = sub(l, scale(lin_vals[i] / lin_vals[pivot], c.lineality[pivot]))
            new_lin.append(primitive_vector(l))
    section = Complex.from_facets(slices, lineality=new_lin, ambient_dim=n,
                                  weights=weights)
    pure = all(p.dim == d - 1 for p in slices)
    return SectionResult(section, tuple(provenance), pure)


# ---------------------------------------------------------------------------
# separating hyperplanes between cells


def _side_constraints(F: Polyhedron, above: bool) -> list:
    """Linear conditions on (h, c) putting F strictly above (or below) H."""
    n = F.ambient_dim
    cons = []
    base_pts = F.vertices if F.vertices else (zero_vec(n),)
    sign = 1 if above else -1
    for v in base_pts:
        coeffs = tuple(sign * x for x in v) + (Fraction(-sign),)
        cons.append((coeffs, Fraction(0), ">"))
    for r in F.rays:
        coeffs = tuple(sign * x for x in r) + (Fraction(0),)
        cons.append((coeffs, Fraction(0), ">="))
    for l in F.lineality:
        cons.append((tuple(l) + (Fraction(0),), Fraction(0), "="))
    return cons


def _meet_relint_modes(P: Polyhedron) -> list[list]:
    """Constraint families, one per mode, whose disjunction says that the
    hyperplane {h.x = c} meets the relative interior of P.

    Either P lies inside H, or P has generators witnessing points strictly
    on both sides; a lineality direction not parallel to H witnesses both
    sides at once.
    """
    n = P.ambient_dim
    base_pts = P.vertices if P.vertices else (zero_vec(n),)
    contained = [(tuple(v) + (Fraction(-1),), Fraction(0), "=") for v in base_pts]
    contained += [(tuple(r) + (Fraction(0),), Fraction(0), "=") for r in P.rays]
    contained += [(tuple(l) + (Fraction(0),), Fraction(0), "=") for l in P.lineality]
    below = [(tuple(-x for x in v) + (Fraction(1),), Fraction(0), ">")
             for v in base_pts]
    below += [(tuple(-x for x in r) + (Fraction(0),), Fraction(0), ">")
              for r in P.rays]
    above = [(tuple(v) + (Fraction(-1),), Fraction(0), ">") for v in base_pts]
    above += [(tuple(r) + (Fraction(0),), Fraction(0), ">") for r in P.rays]
    modes = [contained]
    for b, a in itertools.product(below, above):
        modes.append([b, a])
    for l in P.lineality:
        modes.append([(tuple(l) + (Fraction(0),), Fraction(0), ">")])
        modes.append([(tuple(-x for x in l) + (Fraction(0),), Fraction(0), ">")])
    return modes


def witness_hyperplane(P: Polyhedron, Q: Polyhedron,
                       F: Polyhedron) -> Optional[AffineHyperplane]:
    """Hyperplane meeting the relative interiors of P and Q but missing F.

    Tries F strictly above, then strictly below; within each side the
    requirement that a hyperplane meets a relative interior is a finite
    disjunction of linear conditions on (normal, offset), so the search is a
    family of exact strict-feasibility programs.  Witnesses are re-verified
    against the facet descriptions of all three cells before being returned;
    None means every program was infeasible.
    """
    if P.canonical_key == Q.canonical_key or \
            F.canonical_key in (P.canonical_key, Q.canonical_key):
        raise DegenerateInput("cells must be pairwise distinct")
    n = P.ambient_dim
    modes_p = _meet_relint_modes(P)
    modes_q = _meet_relint_modes(Q)
    for above in (True, False):
        side = _side_constraints(F, above)
        # a pair can be feasible only if each of its modes is on its own
        live_p = [mp for mp in modes_p if lp_feasible(
            LinearProgram(n + 1, tuple(side + mp))) is not None]
        live_q = [mq for mq in modes_q if lp_feasible(
            LinearProgram(n + 1, tuple(side + mq))) is not None]
        for mp, mq in itertools.product(live_p, live_q):
            lp = LinearProgram(n + 1, tuple(side + mp + mq))
            witness = lp_feasible(lp)
            if witness is None:
                continue
            H = AffineHyperplane(witness[:n], witness[n])
            if check_witness_hyperplane(P, Q, F, H):
                return H
            raise AssertionError("LP witness failed the independent check")
    return None


def check_witness_hyperplane(P: Polyhedron, Q: Polyhedron, F: Polyhedron,
                             H: AffineHyperplane) -> bool:
    """Independent verification through the facet descriptions.

    H must be solvable inside the relative interiors of P and Q (strict
    facet inequalities) and infeasible on all of F.
    """
    n = P.ambient_dim

    def meets_relint(cell: Polyhedron) -> bool:
        h = cell.hrep
        cons = [(a, b, ">") for a, b in h.inequalities]
        cons += [(a, b, "=") for a, b in h.equations]
        cons.append((H.normal, H.offset, "="))
        return lp_feasible(LinearProgram(n, tuple(cons))) is not None

    def misses(cell: Polyhedron) -> bool:
        h = cell.hrep
        cons = [(a, b, ">=") for a, b in h.inequalities]
        cons += [(a, b, "=") for a, b in h.equations]
        cons.append((H.normal, H.offset, "="))
        return lp_feasible(LinearProgram(n, tuple(cons))) is None

    return meets_relint(P) and meets_relint(Q) and misses(F)


# ---------------------------------------------------------------------------
# canonical generated fans


def _unit(i: int, n: int) -> Vec:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def standard_tropical_plane() -> Complex:
    """Two-dimensional fan in R^3 with rays e1, e2, e3, -(1,1,1) and all six
    two-dimensional cones spanned by pairs of rays."""
    rays = [_unit(i, 3) for i in range(3)]
    rays.append((Fraction(-1), Fraction(-1), Fraction(-1)))
    facets = [Polyhedron.cone([a, b], ambient_dim=3)
              for a, b in itertools.combinations(rays, 2)]
    return Complex.from_facets(facets, lineality=(), ambient_dim=3)


def two_planes_fan() -> Complex:
    """Union of two standard tropical planes in R^5 glued along the e1 ray.

    One plane spans coordinates {1,2,3}, the other {1,4,5}; the ray through
    e1 is their intersection.  The fan is pure and two-dimensional with
    twelve facets, but removing any closed facet containing e1 disconnects
    its facet-ridge hypergraph.
    """
    e = [_unit(i, 5) for i in range(5)]
    m123 = vec([-1, -1, -1, 0, 0])
    m145 = vec([-1, 0, 0, -1, -1])
    plane_a = [e[0], e[1], e[2], m123]
    plane_b = [e[0], e[3], e[4], m145]
    facets = [Polyhedron.cone([a, b], ambient_dim=5)
              for a, b in itertools.combinations(plane_a, 2)]
    facets += [Polyhedron.cone([a, b], ambient_dim=5)
               for a, b in itertools.combinations(plane_b, 2)]
    return Complex.from_facets(facets, lineality=(), ambient_dim=5)


def cube_normal_fan(d: int) -> Complex:
    """Normal fan of the cube [-1, 1]^d: the 2^d closed orthants."""
    if d < 1:
        raise ValueError("dimension must be positive")
    corners = [tuple(Fraction(s) for s in signs)
               for signs in itertools.product((-1, 1), repeat=d)]
    return normal_fan(corners).complex


def same_fan(c1: Complex, c2: Complex) -> bool:
    """Equality of complexes as sets of maximal cells (canonical forms)."""
    keys1 = sorted(f.canonical_key for f in c1.facet_polyhedra)
    keys2 = sorted(f.canonical_key for f in c2.facet_polyhedra)
    return c1.ambient_dim == c2.ambient_dim and keys1 == keys2
