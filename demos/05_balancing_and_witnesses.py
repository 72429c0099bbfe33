#!/usr/bin/env python3
"""Balancing of weighted fans and separating-hyperplane witnesses.

At every ridge of a balanced weighted complex, the weighted sum of lattice
normal generators of the incident facets lies in the ridge's span.  The
separating-hyperplane predicate asks for an affine hyperplane meeting the
relative interiors of two cells while missing a third entirely; a family
of exact strict-feasibility systems, each decided by one double
description, settles it, and every witness is re-verified independently.
"""

from tropicon import (
    Complex, Polyhedron, balancing_check, check_witness_hyperplane,
    quotient_by_lineality, two_planes_fan, witness_hyperplane,
)


def tropical_line(weights=None):
    cones = [Polyhedron.cone([r], ambient_dim=2)
             for r in ([1, 0], [0, 1], [-1, -1])]
    return Complex.from_facets(cones, weights=weights)


print("tropical line, weights (1,1,1):",
      "balanced" if balancing_check(tropical_line()).balanced else "unbalanced")

bad = balancing_check(tropical_line((1, 1, 2)))
entry = bad.failing()[0]
print("tropical line, weights (1,1,2): unbalanced at ridge", entry.ridge_label,
      "with residual", tuple(int(x) for x in entry.residual))

tp = two_planes_fan()
rep = balancing_check(tp)
print("two-planes fan: balanced at all", len(rep.entries), "ridges ->",
      rep.balanced)

# the separating-hyperplane relation behind the connectivity argument
P = Polyhedron.cone([[0, 1, 0, 0, 0], [0, 0, 1, 0, 0]])   # cone(e2, e3)
Q = Polyhedron.cone([[0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])   # cone(e4, e5)
F_ = Polyhedron.cone([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]])  # cone(e1, e2)
H = witness_hyperplane(P, Q, F_)
print("\nwitness hyperplane through relint(P) and relint(Q) missing F:")
print("  normal:", tuple(int(x) for x in H.normal), "offset:", H.offset)
print("  independently verified:", check_witness_hyperplane(P, Q, F_, H))

P1 = Polyhedron.from_vertices([[0], [1]])
F1 = Polyhedron.from_vertices([[1], [2]])
Q1 = Polyhedron.from_vertices([[2], [3]])
print("interval triple in R^1 has no witness:",
      witness_hyperplane(P1, Q1, F1) is None)
