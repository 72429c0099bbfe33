"""Independent answers for every output the benchmark checks.

Nothing here imports tropicon.  Ranks, flats, circuits, facet-ridge
hypergraphs and polytope face counts are recomputed from first principles,
so a wrong answer from the program cannot agree with itself.  All
arithmetic is on Python integers or Fractions.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations


class Mismatch(Exception):
    """A program output disagrees with the oracle."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise Mismatch(msg)


# ---------------------------------------------------------------------------
# matroids, given as ("uniform", r, n) or ("graphic", ((u, v), ...))


def rank_table(spec) -> list[int]:
    """Rank of every subset of the ground set, indexed by bitmask."""
    if spec[0] == "uniform":
        _, r, n = spec
        return [min(bin(m).count("1"), r) for m in range(1 << n)]
    edges = spec[1]
    table = []
    for mask in range(1 << len(edges)):
        parent: dict[int, int] = {}

        def find(x):
            while parent.setdefault(x, x) != x:
                x = parent[x]
            return x

        rank = 0
        for i, (u, v) in enumerate(edges):
            if mask >> i & 1:
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
                    rank += 1
        table.append(rank)
    return table


def ground_size(spec) -> int:
    return spec[2] if spec[0] == "uniform" else len(spec[1])


def circuit_signature(spec) -> tuple:
    """The ground size and the set of circuits: equal iff the matroids are
    equal on labelled elements, hence iff their Bergman fans are equal."""
    n = ground_size(spec)
    ranks = rank_table(spec)
    circuits = []
    for mask in range(1, 1 << n):
        size = bin(mask).count("1")
        if ranks[mask] == size - 1 and all(
                ranks[mask ^ (1 << e)] == size - 1 for e in range(n) if mask >> e & 1):
            circuits.append(mask)
    return n, frozenset(circuits)


def flats_and_chains(spec) -> tuple[int, list[int], set[frozenset[int]]]:
    """Rank, proper nonempty flats, and maximal chains of such flats."""
    n = ground_size(spec)
    ranks = rank_table(spec)
    full = (1 << n) - 1
    r = ranks[full]
    flats = [m for m in range(1, full)
             if all(ranks[m | (1 << e)] > ranks[m] for e in range(n) if not m >> e & 1)]
    by_rank: dict[int, list[int]] = {}
    for f in flats:
        by_rank.setdefault(ranks[f], []).append(f)
    chains: set[frozenset[int]] = set()

    def extend(chain):
        top = chain[-1]
        if ranks[top] == r - 1:
            chains.add(frozenset(chain))
            return
        for f in by_rank.get(ranks[top] + 1, ()):
            if f & top == top:
                extend(chain + [f])

    for f in by_rank.get(1, ()):
        extend([f])
    return r, flats, chains


def singleton_flats(spec) -> list[int]:
    """Elements e, other than the last, whose singleton {e} is a flat."""
    n = ground_size(spec)
    ranks = rank_table(spec)
    return [e for e in range(n - 1)
            if all(ranks[(1 << e) | (1 << f)] == 2 for f in range(n) if f != e)]


# ---------------------------------------------------------------------------
# fan files and hypergraphs of simplicial fans


def read_fan(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def cell_rays(fan: dict) -> list[tuple[int, ...]]:
    return [tuple(cell["r"]) for cell in fan["cells"]]


def simplicial_hyperedges(cells: list[tuple[int, ...]]) -> list[frozenset[int]]:
    """Facet-ridge hyperedges of a fan whose cells are simplicial modulo the
    lineality: each ridge drops exactly one ray of a facet."""
    members: dict[tuple[int, ...], set[int]] = {}
    for fid, rays in enumerate(cells):
        for ridge in combinations(sorted(rays), len(rays) - 1):
            members.setdefault(ridge, set()).add(fid)
    return [frozenset(m) for m in members.values()]


def connected_after_removal(num_facets: int, hyperedges, removed) -> bool:
    """Closed-facet removal: a hyperedge meeting the removed set disappears."""
    removed = set(removed)
    remaining = [f for f in range(num_facets) if f not in removed]
    if len(remaining) <= 1:
        return True
    parent = {f: f for f in remaining}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for edge in hyperedges:
        if edge & removed:
            continue
        first, *rest = edge
        for other in rest:
            a, b = find(first), find(other)
            if a != b:
                parent[a] = b
    return len({find(f) for f in remaining}) == 1


def check_bergman_fan(fan: dict, spec) -> None:
    """The fan file is the fine Bergman fan: rays are the indicator vectors
    of the proper nonempty flats and cells are the maximal chains."""
    n = ground_size(spec)
    _, flats, chains = flats_and_chains(spec)
    expect(fan["ambient_dim"] == n, f"ambient_dim {fan['ambient_dim']} != {n}")
    expect(fan["lineality"] == [[1] * n], "lineality is not the all-ones line")
    expect(fan["vertices"] == [], "a fan has no vertices")
    masks = []
    for ray in fan["rays"]:
        expect(set(ray) <= {0, 1}, f"ray {ray} is not an indicator vector")
        masks.append(sum(1 << i for i, x in enumerate(ray) if x))
    expect(sorted(masks) == sorted(flats), "rays are not the proper flats")
    cells = {frozenset(masks[i] for i in rays) for rays in cell_rays(fan)}
    expect(len(fan["cells"]) == len(chains) and cells == chains,
           f"{len(fan['cells'])} cells, expected {len(chains)} maximal chains")
    expect(fan["weights"] == [1] * len(chains), "weights are not all one")


def glue(fan_a: dict, fan_b: dict, i: int, j: int) -> dict:
    """Two Bergman fans, each taken modulo its all-ones lineality, glued
    along the coordinate ray of element i of the first and j of the second.

    Modulo the lineality, x maps to (x_0 - x_last, ..., x_{n-2} - x_last), so
    element e < last keeps its ray e_e.  The spans of the two quotients meet
    in the glued coordinate only, and neither fan contains the opposite ray
    (a connected matroid has no coloop), so the union is a fan in which the
    two pieces share exactly that ray.  The result is in canonical order.
    """
    a_dim = fan_a["ambient_dim"] - 1
    b_dim = fan_b["ambient_dim"] - 1
    dim = a_dim + b_dim - 1
    rays_a = [_project(ray, i, 1, dim) for ray in fan_a["rays"]]
    rays_b = [_project(ray, j, a_dim, dim) for ray in fan_b["rays"]]
    pool = sorted(set(rays_a) | set(rays_b))
    index = {r: t for t, r in enumerate(pool)}
    cells = sorted(
        tuple(sorted(index[rays[t]] for t in cell))
        for rays, fan in ((rays_a, fan_a), (rays_b, fan_b)) for cell in cell_rays(fan))
    return {"ambient_dim": dim,
            "rays": [list(r) for r in pool],
            "vertices": [],
            "lineality": [],
            "cells": [{"v": [], "r": list(c)} for c in cells],
            "weights": [1] * len(cells)}


def _project(ray: list[int], glued: int, offset: int, dim: int) -> tuple[int, ...]:
    """Quotient by the all-ones line, then place coordinate `glued` at 0 and
    the other coordinates in order from `offset`."""
    last = len(ray) - 1
    out = [0] * dim
    out[0] = ray[glued] - ray[last]
    slot = offset
    for k in range(last):
        if k != glued:
            out[slot] = ray[k] - ray[last]
            slot += 1
    return tuple(out)


def fan_text(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"


# ---------------------------------------------------------------------------
# lattice polytopes whose vertices are known by construction


def sphere_points(dim: int, r2: int) -> list[tuple[int, ...]]:
    """Lattice points on the sphere of squared radius r2, all in convex
    position, so every subset is the vertex set of its hull."""
    bound = int(r2 ** 0.5) + 1
    pts = [()]
    for _ in range(dim):
        pts = [p + (x,) for p in pts for x in range(-bound, bound + 1)
               if sum(c * c for c in p) + x * x <= r2]
    return sorted(p for p in pts if sum(c * c for c in p) == r2)


def affine_rank(points) -> int:
    base = points[0]
    rows = [[Fraction(a - b) for a, b in zip(p, base)] for p in points[1:]]
    rank = 0
    ncols = len(base)
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                q = rows[r][col] / rows[rank][col]
                rows[r] = [x - q * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _primitive(n):
    g = math.gcd(*n)
    return tuple(x // g for x in n)


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def hull3_planes(verts) -> list[tuple[tuple[int, int, int], int]]:
    """Facet planes n.x <= b of the hull of full-dimensional points in R^3,
    by testing the plane through every triple."""
    planes = set()
    for a, b, c in combinations(verts, 3):
        n = _cross(tuple(y - x for x, y in zip(a, b)), tuple(y - x for x, y in zip(a, c)))
        if n == (0, 0, 0):
            continue
        side = [_dot(n, v) - _dot(n, a) for v in verts]
        if all(s >= 0 for s in side):
            n = tuple(-x for x in n)
        elif not all(s <= 0 for s in side):
            continue
        n = _primitive(n)
        planes.add((n, _dot(n, a)))
    return sorted(planes)


def strictly_inside(p, planes) -> bool:
    return all(_dot(n, p) < b for n, b in planes)


def polygon_signature(verts) -> tuple:
    """Primitive outer edge normals of a polygon in convex position: two
    polygons with equal signatures have the same normal fan."""
    cx = sum(v[0] for v in verts) / len(verts)
    cy = sum(v[1] for v in verts) / len(verts)
    ring = sorted(verts, key=lambda v: math.atan2(v[1] - cy, v[0] - cx))
    normals = []
    for p, q in zip(ring, ring[1:] + ring[:1]):
        normals.append(_primitive((q[1] - p[1], p[0] - q[0])))
    return tuple(sorted(normals))
