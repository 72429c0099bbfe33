#!/usr/bin/env python3
"""Two tropical planes glued along a ray: a connectivity obstruction.

A pure d-dimensional complex that is the tropicalization of an irreducible
variety must stay connected through codimension one after removing any
d - l - 1 closed facets (l = lineality dimension).  The union of two
standard tropical planes in R^5 meeting along the e1 ray is pure and
2-dimensional with trivial lineality, yet removing one closed facet through
e1 disconnects it, so it cannot be such a tropicalization.
"""

from tropicon import (
    FacetRidgeHypergraph, build_hypergraph, connected_after_removal,
    hypergraph_dot, is_k_connected, min_facet_cut, two_planes_fan,
    validate_complex, vec,
)

fan = two_planes_fan()
print("fan in R^5:", len(fan), "facets, dim", fan.dim,
      "| valid:", validate_complex(fan, pairwise=True).valid)

h = build_hypergraph(fan)
print("facet-ridge hypergraph:", h.num_facets, "facets,", h.num_ridges,
      "ridges, hyperedge sizes", sorted(len(e) for e in h.hyperedges))

e1 = vec([1, 0, 0, 0, 0])
bridge = [i for i, f in enumerate(fan.facet_polyhedra) if f.contains_point(e1)]
print("facets containing the e1 ray:", bridge)
print("removing one of them disconnects the fan:",
      [not connected_after_removal(h, {i}) for i in bridge])

cert = is_k_connected(h, 2)
print("2-connected through codimension one?", cert.verdict,
      "| disconnecting witness:", cert.witness)
print("1-connected?", is_k_connected(h, 1).verdict)
print("minimum facet cut:", min_facet_cut(h))

# the clique-expansion graph hides the obstruction: hyperedges survive as
# cliques among their remaining members, so one removal never disconnects it.
# With the facet taken out of every hyperedge, its closed removal drops no
# hyperedge, which is the clique expansion's removal
clique = FacetRidgeHypergraph(h.num_facets, tuple(e - {bridge[0]} for e in h.hyperedges))
print("clique-expansion graph survives the same removal:",
      connected_after_removal(clique, {bridge[0]}))

print("\nbipartite incidence graph (DOT), first lines:")
print("\n".join(hypergraph_dot(fan).splitlines()[:6]))
