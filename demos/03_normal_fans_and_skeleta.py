#!/usr/bin/env python3
"""Normal fans of rational polytopes, their skeleta, and Balinski's theorem.

The outer normal fan of a full-dimensional polytope in R^d is complete, so
its facet-ridge hypergraph (the polytope's vertex-edge graph) is
d-connected; that is Balinski's theorem.  The k-skeleton of such a normal
fan is k-connected through codimension one, and both bounds are sharp:
isolating a simplicial facet costs exactly d - l removals.
"""

import random
from fractions import Fraction as F

from tropicon import (
    build_hypergraph, cube_normal_fan, is_k_connected, min_facet_cut,
    normal_fan, skeleton,
)

cube = cube_normal_fan(3)
h = build_hypergraph(cube)
print("cube [-1,1]^3 normal fan:", len(cube), "orthant cones;",
      "hypergraph = cube graph with", h.num_ridges, "edges")
print("3-connected:", is_k_connected(h, 3).verdict,
      "| 4-connected:", is_k_connected(h, 4).verdict,
      "| min cut:", min_facet_cut(h))

for k in (2, 1):
    sk = skeleton(cube, k)
    hk = build_hypergraph(sk)
    print(f"{k}-skeleton: {len(sk)} facets, {hk.num_ridges} ridges,",
          f"{k}-connected: {is_k_connected(hk, k).verdict},",
          "min cut:", min_facet_cut(hk))

print("\nrandom rational 3-polytopes (seeded):")
rng = random.Random(7)
for trial in range(3):
    pts = [[F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3)]
           for _ in range(8)]
    fan = normal_fan(pts)
    if fan.dim < 3:
        continue
    hf = build_hypergraph(fan)
    print(f"  polytope #{trial + 1}: {len(fan)} vertices ->",
          f"3-connected: {is_k_connected(hf, 3).verdict},",
          "min cut:", min_facet_cut(hf)[0])

seg = normal_fan([[0, 0], [1, 0]])
print("\nnormal fan of a segment in R^2:", len(seg),
      "halfplanes with lineality dim", seg.lineality_dim)
