"""Facet-ridge hypergraphs and connectivity certification.

The hypergraph of a pure complex has one vertex per facet and one hyperedge
per ridge, the hyperedge listing every facet the ridge bounds.  Removing a
facet removes all hyperedges through it (closed-facet semantics).  A
*separator* is a facet set S whose removal leaves at least two facets in at
least two components; the hypergraph is k-connected when no separator has
at most k-1 facets.  Verdicts carry re-checkable witnesses.

Certification decides whether a separator of at most t facets exists with a
pair engine.  `is_k_connected` and `min_facet_cut` pull their colex-least
witnesses out of the same engine with one search, and neither scans subsets.

**Cut extension.**  If S separates and |S| + 1 <= #facets - 2, some S + {f}
separates: at least three facets remain in at least two components; remove
one from a component with two or more facets, or any one if all components
are single facets, and two components survive.  So for t <= #facets - 2,
"some t-subset disconnects" is the same as "some separator has at most t
facets", and the least cut size is the least t for which the answer is yes.

**Pairs.**  Facets a and b are separated by S (a, b not in S) when no
hyperpath joins them after removing S.  A hyperpath is a chain of ridges
from a to b; its interior is the set of members of its ridges other than a
and b, and it survives S exactly when its interior misses S.  If t+1 paths
have pairwise disjoint interiors, no t facets separate a from b; a ridge
whose only members are a and b can never be killed.  Pairs that a greedy
packing of BFS-shortest paths cannot prove go to an exact bounded search
(Marx 2006, "Parameterized graph separation problems"): every separator
extending the removed set R must meet the interior of a shortest path that
survives R, so branching on that interior to depth t finds a separator if
there is one.  The same search finds separators inside a given set A of
removable facets: only the part of an interior in A must be disjoint, and
a path whose interior misses A cannot be killed.

**Even's reduction** (Even 1975, "An algorithm for determining whether the
connectivity of a graph is at least k"), with t+1 = k and the facets in
their order v_0, v_1, ...: no separator has at most t facets iff

1. no pair v_i, v_j with i < j <= t is separated by at most t facets, and
2. for each j > t, no t facets separate v_j from a virtual facet x_j joined
   by 2-member ridges to v_0 .. v_{j-1}.

It holds under closed semantics.  If a test fails with S, then S separates
the hypergraph: in case 2 some v_i with i < j is outside S (|S| < j), sits
with x_j, and a path from v_i to v_j avoiding S would join x_j to v_j.
Conversely let S, |S| <= t, separate.  Among v_0 .. v_t some facet survives.
If the survivors among them lie in two components, test 1 fails.  Otherwise
they lie in one component C; take the least j with v_j outside C and S
(j > t, as another component exists).  Every neighbour v_0 .. v_{j-1} of x_j
lies in C or S, so removing S leaves x_j joined only to C, and test 2 fails
at j.  Nothing here needs S to range over all facets, so the reduction also
decides whether a separator of at most t facets lies inside A.

**Colex-least witness.**  Let "A holds a witness" grow with the facet set A
and hold for all facets, witnesses being disconnecting sets of one size t.
Colex order compares largest elements first, so the largest element of the
colex-least witness is the least m for which facets 0..m hold one; given
its largest elements m_1 > .. > m_i, the cut C, the next is the least m for
which 0..m with C hold one (one there avoiding some m_l would be colex-less).
Each is found by descent from a top for which 0..top with C holds one: probe
0..top-1 with C.  A success returns a part S of the probe every superset of
which holds one, and top falls to max(S - C); a failure fixes the element
at top, as does a top below which only the elements still to come fit.  So
an element costs one failing probe, where a binary search fails about
log2 #facets times; the witness is unique, so it is the same.

Both searches read one test, whether A holds a disconnecting t-subset.  If
|A| <= t+1, its at most t+1 t-subsets are tested directly, and S is the
first that disconnects.  Otherwise A holds one exactly when the engine
finds a separator S0 of at most t facets inside A: keep one facet in each
of two components that survive S0 and remove other facets of A up to t;
removing facets never merges components, and at most two kept facets lie
in A.  So S is S0 when it has t facets, and otherwise S0 with the t+2
least facets of A.  For `min_facet_cut`, t is the least cut size, so every
separator has exactly t facets and the engine's is S.  The engine decides
each size with every facet removable once per hypergraph, and the search
starts from the separator that answer gave.  The t-subsets before a
witness w_0 < .. < w_{t-1} agree with it above some position i and have
i+1 elements below w_i, so its colex rank, reported as `subsets_examined`,
is 1 + sum C(w_i, i+1).

Work (pair tests, search nodes, path searches and direct subset tests, one
unit each) counts against a budget.  Units bound work, not time: a path
search stops at its target, while a direct subset test walks every facet
left.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, NamedTuple, Optional

from .polyhedral import Complex, _Frozen, validate_complex

DEFAULT_BUDGET = 10 ** 7


class BudgetExceeded(RuntimeError):
    """Certification would exceed the configured work budget."""


class TooFewFacets(ValueError):
    """A cut search needs at least two facets."""


class ImpureComplex(ValueError):
    """The complex is not pure, or two of its cells are one point set, so its
    facet-ridge hypergraph is undefined."""


class FacetRidgeHypergraph(_Frozen):
    """Vertices are facet ids 0..F-1; hyperedge i joins the facets of ridge i.

    Ridges are identified by the canonical form of the cell, so two distinct
    ridges bounding the same facet set stay distinct hyperedges.  The
    adjacency every search walks is built with the hypergraph: per facet u,
    the hyperedges through it that reach another facet, smallest first (a
    search meets a 2-member ridge before others), each as the tuple of its
    members other than u, in the hyperedge's order.
    """
    num_facets: int
    hyperedges: tuple[frozenset[int], ...]

    def __init__(self, num_facets: int, hyperedges: tuple[frozenset[int], ...]):
        adjacent: list[list] = [[] for _ in range(num_facets)]
        for e in sorted(range(len(hyperedges)), key=lambda e: len(hyperedges[e])):
            if len(hyperedges[e]) > 1:
                for u in hyperedges[e]:
                    adjacent[u].append(tuple(w for w in hyperedges[e] if w != u))
        self.__dict__.update(num_facets=num_facets, hyperedges=hyperedges,
                             _adjacency=tuple(map(tuple, adjacent)))
        # per size t, `_Separators.find(t)` with every facet removable
        self.__dict__["_decided"] = {}

    @property
    def num_ridges(self) -> int:
        return len(self.hyperedges)


class ConnectivityCertificate(NamedTuple):
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
    return FacetRidgeHypergraph(len(c), tuple(frozenset(fids) for _, fids, _ in c.ridges))


def _components(h: FacetRidgeHypergraph, removed: Iterable[int] = ()
                ) -> Iterator[set[int]]:
    """Components of the facets left after deleting the closed facets
    `removed`, by least facet: every hyperedge through one of them drops."""
    seen = set(range(h.num_facets)).intersection(removed)
    blocked = frozenset(seen)
    for start in range(h.num_facets):
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        for u in comp:
            for others in h._adjacency[u]:
                if blocked.isdisjoint(others):
                    for w in others:
                        if w not in seen:
                            seen.add(w)
                            comp.append(w)
        yield set(comp)


def connected_after_removal(h: FacetRidgeHypergraph, removed: Iterable[int]) -> bool:
    """Connectivity of the hypergraph after deleting the given closed facets.

    Every hyperedge meeting the removed set disappears entirely.  With at
    most one facet left the result is vacuously true.
    """
    comps = _components(h, removed)
    next(comps, None)
    return next(comps, None) is None


def connected_components(h: FacetRidgeHypergraph) -> list[set[int]]:
    """Connected components of the facet set, by least facet."""
    return list(_components(h))


class _Separators:
    """The pair engine (Even's reduction over packing-or-search pair tests)
    and the colex witness search over it, spending units of work against a
    budget as it goes."""

    def __init__(self, h: FacetRidgeHypergraph, budget: int):
        self.h = h
        self.n = h.num_facets
        self.budget = budget
        self.done = 0
        self.facets = self.allowed = frozenset(range(self.n))

    def spend(self) -> None:
        self.done += 1
        if self.done > self.budget:
            raise BudgetExceeded(f"{self.done} units of work exceed budget {self.budget}")

    def disconnects(self, S: Iterable[int]) -> bool:
        """Whether removing S leaves two facets in two components; one unit."""
        self.spend()
        return not connected_after_removal(self.h, S)

    def witness(self, t: int, known: Iterable[int]) -> tuple[int, ...]:
        """The colex-least disconnecting t-subset, by the descent of the
        module docstring; every superset of `known` holds one."""
        cut: list[int] = []
        top = max(known)
        for level in range(t, 0, -1):
            while top >= level:
                found = self._holds(t, frozenset(range(top)).union(cut))
                if found is None:
                    break
                top = max(found.difference(cut))
            cut.append(top)
            top -= 1
        return tuple(reversed(cut))

    def _holds(self, t: int, A: frozenset[int]) -> Optional[frozenset[int]]:
        """None when no t-subset of A disconnects, and otherwise a part of A
        every superset of which holds one."""
        if len(A) <= t + 1:
            return next((frozenset(S) for S in itertools.combinations(sorted(A), t)
                         if self.disconnects(S)), None)
        found = self.find(t, A)
        if found is None or len(found) == t:
            return found
        return found.union(sorted(A)[:t + 2])

    def find(self, t: int, allowed: Optional[frozenset[int]] = None
             ) -> Optional[frozenset[int]]:
        """A separator of at most t facets, all in `allowed` (default: any,
        decided once per hypergraph), or None; needs 1 <= t <= #facets - 2."""
        if allowed is None:
            decided = self.h._decided
            if t not in decided:
                decided[t] = self.find(t, self.facets)
            return decided[t]
        self.allowed = allowed
        pairs = itertools.chain(itertools.combinations(range(t + 1), 2),
                                ((None, j) for j in range(t + 1, self.n)))
        for a, b in pairs:
            found = self._search(a, b, frozenset(), t, set())
            if found is not None:
                return found
        return None

    def _search(self, a: Optional[int], b: int, removed: frozenset[int], r: int,
                seen: set) -> Optional[frozenset[int]]:
        """Extend `removed` by at most r facets to separate a from b, or None.

        a None is the virtual facet joined to every facet below b.  Tries to
        pack r+1 paths whose interiors are disjoint where they can be
        removed (in `allowed`), then branches on that part of the interior
        of the shortest surviving path.
        """
        self.spend()
        blocked = set(removed)
        shortest = None
        for _ in range(r + 1):
            interior = self._path(a, b, blocked)
            if interior is None:
                break
            interior &= self.allowed
            if not interior:
                return None
            shortest = shortest or interior
            blocked |= interior
        else:
            return None
        if shortest is None:
            return removed
        for c in sorted(shortest):
            grown = removed | {c}
            if grown not in seen:
                seen.add(grown)
                found = self._search(a, b, grown, r - 1, seen)
                if found is not None:
                    return found
        return None

    def _path(self, a: Optional[int], b: int, blocked: set[int]) -> Optional[set[int]]:
        """The interior of a BFS-shortest hyperpath from b to a avoiding the
        facets in `blocked`, or None; with a None it ends at any facet below
        b.  A hyperedge through u is dead exactly when its other members meet
        `blocked`: b is not in it, and each queued u came by a live hyperedge.
        The parents, (u, others) per facet, give the path's interior."""
        self.spend()
        adjacent, live = self.h._adjacency, blocked.isdisjoint
        parent = {b: None}
        queue = [b]
        for u in queue:
            for others in adjacent[u]:
                if not live(others):
                    continue
                for w in others:
                    if w in parent:
                        continue
                    parent[w] = (u, others)
                    if w == a or (a is None and w < b):
                        interior = set()
                        while w != b:
                            w, others = parent[w]
                            interior |= {w, *others}
                        return interior - {a, b}
                    queue.append(w)
        return None


def is_k_connected(h: FacetRidgeHypergraph, k: int,
                   budget: int = DEFAULT_BUDGET) -> ConnectivityCertificate:
    """Certify k-connectivity through codimension one.

    A separator has at most #facets - 2 facets, so the search runs at size
    t = min(k-1, #facets-2).  The pair engine decides whether some set of
    at most t facets disconnects; by cut extension that is whether some
    t-subset does.  A true verdict counts all C(#facets, t) subsets as
    examined, since the proof decides every one of them.  A false verdict
    carries the colex-least disconnecting t-subset and its colex rank; for
    t = 0 that is the empty set of a disconnected hypergraph.  k = 0 and
    hypergraphs with at most one facet hold vacuously.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    n = h.num_facets
    t = min(k - 1, n - 2)
    if t < 0:
        return ConnectivityCertificate(k, True, None, 0)
    separators = _Separators(h, budget)
    found = (frozenset() if separators.disconnects(()) else None) if t == 0 else separators.find(t)
    if found is None:
        return ConnectivityCertificate(k, True, None, math.comb(n, t))
    witness = separators.witness(t, found.union(range(t + 2)))
    rank = 1 + sum(math.comb(w, i + 1) for i, w in enumerate(witness))
    return ConnectivityCertificate(k, False, witness, rank)


def min_facet_cut(h: FacetRidgeHypergraph,
                  budget: int = DEFAULT_BUDGET) -> Optional[tuple[int, tuple[int, ...]]]:
    """Smallest facet set whose removal disconnects at least two facets.

    A hypergraph that is already disconnected has the empty cut, (0, ()).
    Otherwise sizes are capped by the cheapest facet isolation (removing all
    neighbors of one facet), which is tried first.  The pair engine lowers
    the size while it finds smaller separators.  It then fixes the
    colex-least cut of that size by the colex search that `is_k_connected`
    shares, starting from the last separator found.  None means no cut of
    size below #facets - 1 exists.  The budget bounds all of this work
    together; a size already decided on this hypergraph with every facet
    removable costs none.
    """
    n = h.num_facets
    if n < 2:
        raise TooFewFacets("need at least two facets")
    if not connected_after_removal(h, ()):
        return 0, ()
    degrees = [len(set().union(*adjacent)) for adjacent in h._adjacency]
    isolation_cap = min((d for d in degrees if n - d >= 2), default=n - 1)
    cap = min(isolation_cap, n - 2)
    if cap < 1:
        return None
    # removing the neighbors of one facet is a cut when it leaves two facets
    size = cap if isolation_cap <= n - 2 else cap + 1
    separators = _Separators(h, budget)
    known: Iterable[int] = range(n)
    while size > 1:
        found = separators.find(size - 1)
        if found is None:
            break
        size, known = len(found), found
    if size > cap:
        return None
    return size, separators.witness(size, known)


# ---------------------------------------------------------------------------
# DOT export


def hypergraph_dot(c: Complex) -> str:
    """Bipartite DOT rendering of a pure complex's facet-ridge hypergraph:
    facets as boxes, ridges as circles, each labelled by its cell."""
    h = build_hypergraph(c)
    lines = ["graph facet_ridge {"]
    for i, facet in enumerate(c.facet_polyhedra):
        lines.append(f'  f{i} [shape=box, label="F{i}: {facet.label()}"];')
    for j, (ridge, _, _) in enumerate(c.ridges):
        lines.append(f'  r{j} [shape=circle, label="R{j}: {ridge.label()}"];')
    for j, edge in enumerate(h.hyperedges):
        for i in sorted(edge):
            lines.append(f"  f{i} -- r{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
