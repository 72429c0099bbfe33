"""Facet-ridge hypergraphs and connectivity certification.

The hypergraph of a pure complex has one vertex per facet and one hyperedge
per ridge, the hyperedge listing every facet the ridge bounds.  Removing a
facet removes all hyperedges through it (closed-facet semantics).  The
certification routines are exhaustive subset searches in colex order with a
configurable budget; verdicts carry re-checkable witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from .polyhedral import Complex, validate_complex

DEFAULT_BUDGET = 10 ** 7


class BudgetExceeded(RuntimeError):
    """The exhaustive search would exceed the configured subset budget."""


class TooFewFacets(ValueError):
    """A cut search needs at least two facets."""


class ImpureComplex(ValueError):
    """The complex is not pure, so its facet-ridge hypergraph is undefined."""


@dataclass(frozen=True)
class FacetRidgeHypergraph:
    """Vertices are facet ids 0..F-1; hyperedge i joins the facets of ridge i.

    Ridges are identified by the canonical form of the cell, so two distinct
    ridges bounding the same facet set stay distinct hyperedges.
    """
    facet_labels: tuple[str, ...]
    hyperedges: tuple[frozenset[int], ...]
    ridge_labels: tuple[str, ...]

    @property
    def num_facets(self) -> int:
        return len(self.facet_labels)

    @property
    def num_ridges(self) -> int:
        return len(self.hyperedges)


@dataclass(frozen=True)
class ConnectivityCertificate:
    k: int
    verdict: bool
    witness: Optional[tuple[int, ...]]
    subsets_examined: int


def build_hypergraph(c: Complex) -> FacetRidgeHypergraph:
    """Extract the facet-ridge hypergraph of a pure complex.

    Ridges are the deduplicated codimension-one faces of the facets; the
    hyperedge of a ridge collects every facet it is a face of.
    """
    report = validate_complex(c)
    if not report.valid:
        raise ImpureComplex("; ".join(report.issues))
    return FacetRidgeHypergraph(
        tuple(f.label() for f in c.facet_polyhedra),
        tuple(frozenset(fids) for _, fids in c.ridges),
        tuple(ridge.label() for ridge, _ in c.ridges),
    )


def _union_find(nodes: Iterable[int],
                edges: Iterable[Iterable[int]]) -> Callable[[int], int]:
    """Merge the members of every edge; return the root finder."""
    parent = {f: f for f in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for edge in edges:
        it = iter(edge)
        first = next(it, None)
        if first is None:
            continue
        r0 = find(first)
        for other in it:
            r1 = find(other)
            if r1 != r0:
                parent[r1] = r0
    return find


def connected_after_removal(h: FacetRidgeHypergraph, removed: Iterable[int]) -> bool:
    """Connectivity of the hypergraph after deleting the given closed facets.

    Every hyperedge meeting the removed set disappears entirely.  With at
    most one facet left the result is vacuously true.
    """
    removed = set(removed)
    remaining = [f for f in range(h.num_facets) if f not in removed]
    if len(remaining) <= 1:
        return True
    find = _union_find(remaining, [e for e in h.hyperedges if not e & removed])
    return len({find(f) for f in remaining}) == 1


def connected_components(h: FacetRidgeHypergraph) -> list[set[int]]:
    """Connected components of the facet set."""
    find = _union_find(range(h.num_facets), h.hyperedges)
    comps: dict[int, set[int]] = {}
    for f in range(h.num_facets):
        comps.setdefault(find(f), set()).add(f)
    return sorted(comps.values(), key=lambda s: min(s))


def colex_combinations(n: int, t: int) -> Iterator[tuple[int, ...]]:
    """All t-subsets of range(n) in colexicographic order."""
    if t == 0:
        yield ()
        return
    for top in range(t - 1, n):
        for rest in colex_combinations(top, t - 1):
            yield rest + (top,)


def _first_cut(h: FacetRidgeHypergraph, t: int,
               budget: int) -> tuple[Optional[tuple[int, ...]], int]:
    """Scan the t-subsets of facets in colex order.

    Returns the first subset whose removal disconnects the hypergraph (None
    if there is none) and the number of subsets examined.  Raises
    BudgetExceeded before scanning when C(#facets, t) exceeds the budget.
    """
    count = math.comb(h.num_facets, t)
    if count > budget:
        raise BudgetExceeded(f"{count} subsets exceed budget {budget}")
    examined = 0
    for S in colex_combinations(h.num_facets, t):
        examined += 1
        if not connected_after_removal(h, S):
            return S, examined
    return None, examined


def is_k_connected(h: FacetRidgeHypergraph, k: int,
                   budget: int = DEFAULT_BUDGET) -> ConnectivityCertificate:
    """Exhaustively certify k-connectivity through codimension one.

    Tests every facet subset of size k-1 in colex order.  A false verdict
    carries the first disconnecting subset found.  k = 0 holds vacuously, as
    do subsets of size at least the facet count (nothing remains).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    t = k - 1
    if t < 0 or t > h.num_facets:
        return ConnectivityCertificate(k, True, None, 0)
    witness, examined = _first_cut(h, t, budget)
    return ConnectivityCertificate(k, witness is None, witness, examined)


def min_facet_cut(h: FacetRidgeHypergraph,
                  budget: int = DEFAULT_BUDGET) -> Optional[tuple[int, tuple[int, ...]]]:
    """Smallest facet set whose removal disconnects at least two facets.

    Searches by increasing cardinality, capped by the cheapest facet
    isolation (removing all neighbors of one facet), and returns the
    colex-least witness of minimum size.  None means no cut of size below
    #facets - 1 exists.  The budget bounds the subsets of all sizes searched
    together.
    """
    n = h.num_facets
    if n < 2:
        raise TooFewFacets("need at least two facets")
    neighbors = [set() for _ in range(n)]
    for edge in h.hyperedges:
        for f in edge:
            neighbors[f] |= edge - {f}
    isolation_cap = min((len(nb) for f, nb in enumerate(neighbors)
                         if n - len(nb) >= 2), default=n - 1)
    cap = min(isolation_cap, n - 2)
    examined = 0
    for s in range(1, cap + 1):
        try:
            witness, done = _first_cut(h, s, budget - examined)
        except BudgetExceeded:
            raise BudgetExceeded(f"{examined + math.comb(n, s)} subsets through "
                                 f"size {s} exceed budget {budget}") from None
        if witness is not None:
            return s, witness
        examined += done
    return None


# ---------------------------------------------------------------------------
# clique-expansion comparison and exports


def clique_connected_after_removal(h: FacetRidgeHypergraph,
                                   removed: Iterable[int]) -> bool:
    """Weaker removal semantics: hyperedges become cliques, only the removed
    vertices disappear, and surviving members of a touched hyperedge stay
    connected to each other."""
    removed = set(removed)
    remaining = [f for f in range(h.num_facets) if f not in removed]
    if len(remaining) <= 1:
        return True
    find = _union_find(remaining, ([f for f in e if f not in removed]
                                   for e in h.hyperedges))
    return len({find(f) for f in remaining}) == 1


def hypergraph_dot(h: FacetRidgeHypergraph) -> str:
    """Bipartite DOT rendering: facets as boxes, ridges as circles."""
    lines = ["graph facet_ridge {"]
    for i, label in enumerate(h.facet_labels):
        lines.append(f'  f{i} [shape=box, label="F{i}: {label}"];')
    for j, label in enumerate(h.ridge_labels):
        lines.append(f'  r{j} [shape=circle, label="R{j}: {label}"];')
    for j, edge in enumerate(h.hyperedges):
        for i in sorted(edge):
            lines.append(f"  f{i} -- r{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
