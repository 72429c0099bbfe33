"""Metamorphic check: what tropicon decides about a complex does not depend
on its integer coordinates or on the order of its pools and cells.

A unimodular map U (an integer matrix of determinant +-1) maps Z^n onto
itself, so it carries faces to faces, lattice normals to lattice normals and
balanced ridges to balanced ridges; a translation moves the vertices of a
complex and none of its directions.  Each trial maps a complex by a product
of elementary integer row operations and a sign flip, translates it by a
rational vector when it has vertices, and every other trial also shuffles
its vertex pool, its ray pool and its cells (with their weights).  Validity,
dimensions, the facet-ridge counts and hyperedge sizes, the verdict at
k = d - l, the min-cut size and the balance verdict must all be unchanged.

The lineality is a subspace, not the rows that span it: a fan whose
lineality rows are rewritten (reordered, one row plus or minus another) has
the same quotient, byte for byte.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from test_golden import HEXAGON, RATIONAL_COMPLEX
from tropicon.connectivity import build_hypergraph, is_k_connected, min_facet_cut
from tropicon.fanjson import fan_from_obj, fan_to_text
from tropicon.matroid import Matroid, bergman_fine
from tropicon.polyhedral import Complex, validate_complex
from tropicon.tropical import (
    balancing_check, normal_fan, quotient_by_lineality, standard_tropical_plane,
)

_K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
_COMPLEXES = {
    "U(3,5)": lambda: bergman_fine(Matroid.uniform(3, 5)),
    "M(K4)": lambda: bergman_fine(Matroid.graphic(_K4)),
    "tropical-plane": standard_tropical_plane,
    "hexagon": lambda: normal_fan(HEXAGON),
    "rational": lambda: fan_from_obj(RATIONAL_COMPLEX),
}
_TRIALS = 6


def _unimodular(rng, n, steps=8):
    """A product of elementary integer row operations, then one row negated
    at random: an integer n x n matrix of determinant +-1."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    if n > 1:
        for _ in range(steps):
            i, j = rng.sample(range(n), 2)
            c = rng.choice([-2, -1, 1, 2])
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    if rng.random() < 0.5:
        i = rng.randrange(n)
        u[i] = [-a for a in u[i]]
    return u


def _mapped(c, rng, shuffle):
    """c under a seeded unimodular map, translated by a rational vector when
    it has vertices, its pools and cells shuffled when `shuffle` is set."""
    n = c.ambient_dim
    u = _unimodular(rng, n)
    shift = [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]

    def apply(x, t=(0,) * n):
        return tuple(sum((a * y for a, y in zip(row, x)), F(0)) + s for row, s in zip(u, t))

    vertices = [apply(v, shift) for v in c.vertex_pool]
    rays = [apply(r) for r in c.ray_pool]
    vperm, rperm, cperm = (list(range(m)) for m in (len(vertices), len(rays), len(c.cells)))
    if shuffle:
        for perm in (vperm, rperm, cperm):
            rng.shuffle(perm)
    vpool, rpool = [None] * len(vertices), [None] * len(rays)
    for i, v in enumerate(vertices):
        vpool[vperm[i]] = v
    for i, r in enumerate(rays):
        rpool[rperm[i]] = r
    cells = [(tuple(sorted(vperm[j] for j in vidx)), tuple(sorted(rperm[j] for j in ridx)))
             for vidx, ridx in c.cells]
    return Complex(n, tuple(vpool), tuple(rpool), tuple(apply(l) for l in c.lineality),
                   tuple(cells[i] for i in cperm), tuple(c.weights[i] for i in cperm))


def _invariants(c):
    report = validate_complex(c)
    h = build_hypergraph(c)
    cut = min_facet_cut(h)
    return {
        "valid": report.valid,
        "dim": c.dim,
        "lineality_dim": c.lineality_dim,
        "facets": h.num_facets,
        "ridges": h.num_ridges,
        "hyperedge_sizes": sorted(map(len, h.hyperedges)),
        "verdict": is_k_connected(h, c.dim - c.lineality_dim).verdict,
        "mincut_size": None if cut is None else cut[0],
        "balanced": balancing_check(c).balanced,
    }


@pytest.mark.parametrize("trial", range(_TRIALS))
@pytest.mark.parametrize("name", list(_COMPLEXES))
def test_unimodular_maps_and_shuffles_change_nothing(name, trial):
    c = _COMPLEXES[name]()
    rng = random.Random(f"{name}/{trial}")
    assert _invariants(_mapped(c, rng, shuffle=trial % 2 == 1)) == _invariants(c)


# two opposite rays modulo a rank-3 lineality with mixed entries in R^7
_MIXED_LINEALITY = {
    "ambient_dim": 7, "vertices": [],
    "rays": [[1, 0, 0, 0, 0, 0, 0], [-1, 0, 0, 0, 0, 0, 0]],
    "lineality": [[14, -6, 24, 42, 0, -12, -3], [49, 14, 6, 4, -49, -1, 21],
                  [392, -126, 132, 366, 588, -72, -21]],
    "cells": [{"r": [0]}, {"r": [1]}], "weights": [1, 1],
}


def test_rewritten_lineality_rows_give_one_quotient():
    # every row order, with one row plus or minus another: 72 rewritings
    texts = set()
    for rows in itertools.permutations(_MIXED_LINEALITY["lineality"]):
        for (i, j), s in itertools.product(itertools.permutations(range(3), 2), (1, -1)):
            lin = list(rows)
            lin[i] = [a + s * b for a, b in zip(lin[i], lin[j])]
            c = fan_from_obj({**_MIXED_LINEALITY, "lineality": lin})
            texts.add(fan_to_text(quotient_by_lineality(c)[0]))
    assert len(texts) == 1
