"""Matroids via rank oracles: flats, chains of flats, and Bergman fans.

A matroid is a memoized rank function on subsets of a labeled ground set.
Constructors cover uniform matroids, graphic matroids (spanning-forest rank),
linear matroids over the rationals, and explicit basis lists.  The Bergman
fan uses the fine fan structure: one ray per proper nonempty flat (its 0/1
indicator vector) and one maximal cone per maximal chain of flats, with the
all-ones vector as lineality.
"""

from __future__ import annotations

import itertools
from typing import Callable, FrozenSet, Iterable, NamedTuple, Sequence

from .fanjson import _integer, _list, parse_rational
from .polyhedral import Complex
from .ratlin import mat, matrix_rank, vec

GROUND_LIMIT = 12
# U(r, n) has n!/(n - r + 1)! maximal chains, one cone each: `gen
# bergman-uniform 7 9` writes 60,480 in 1.3 s and 118 MB on a 2-CPU host
# (CPython 3.11), and U(8, 10) has ten times as many
CHAIN_LIMIT = 100_000


class HasLoops(ValueError):
    """The operation requires a loop-free matroid."""


class LoopContraction(ValueError):
    """Contraction by a loop is undefined here."""


class Flat(NamedTuple):
    elements: FrozenSet[int]
    rank: int


class Matroid:
    """Ground set plus rank oracle, with the ranks memoized in a plain dict."""

    def __init__(self, elements: Sequence[int], rank_fn: Callable[[FrozenSet[int]], int]):
        elements = tuple(sorted(elements))
        if len(elements) > GROUND_LIMIT:
            raise ValueError(
                f"ground set of size {len(elements)} exceeds the limit {GROUND_LIMIT}")
        if len(set(elements)) != len(elements):
            raise ValueError("repeated ground set labels")
        self.elements = elements
        self._ground = frozenset(elements)
        self._rank_fn = rank_fn
        self._memo: dict[FrozenSet[int], int] = {}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def uniform(r: int, n: int) -> "Matroid":
        """Uniform matroid of rank r on elements 0..n-1."""
        if not 0 <= r <= n:
            raise ValueError("need 0 <= r <= n")
        return Matroid(range(n), lambda S: min(len(S), r))

    @staticmethod
    def graphic(edges: Sequence[tuple[int, int]]) -> "Matroid":
        """Graphic matroid: elements are edge indices, rank is forest size."""
        edges = [tuple(e) for e in edges]

        def rank(S: FrozenSet[int]) -> int:
            parent: dict[int, int] = {}

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            count = 0
            for i in sorted(S):
                u, w = edges[i]
                parent.setdefault(u, u)
                parent.setdefault(w, w)
                ru, rw = find(u), find(w)
                if ru != rw:
                    parent[ru] = rw
                    count += 1
            return count

        return Matroid(range(len(edges)), rank)

    @staticmethod
    def linear(columns: Sequence[Sequence]) -> "Matroid":
        """Vector matroid of rational column vectors."""
        cols = [vec(c) for c in columns]

        def rank(S: FrozenSet[int]) -> int:
            if not S:
                return 0
            return matrix_rank(mat([cols[i] for i in sorted(S)]))

        return Matroid(range(len(cols)), rank)

    @staticmethod
    def from_bases(n: int, bases: Sequence[Iterable[int]]) -> "Matroid":
        """Matroid on 0..n-1 with the given list of bases.

        The basis exchange axiom is checked on input.
        """
        base_sets = [frozenset(b) for b in bases]
        if not base_sets:
            raise ValueError("at least one basis required")
        size = len(base_sets[0])
        if any(len(b) != size for b in base_sets):
            raise ValueError("bases must have equal size")
        for a, b in itertools.permutations(base_sets, 2):
            for x in a - b:
                if not any((a - {x}) | {y} in base_sets for y in b - a):
                    raise ValueError("basis exchange axiom fails")
        return Matroid(range(n), lambda S: max(len(S & b) for b in base_sets))

    # -- rank and closure ----------------------------------------------------

    def rank(self, S: Iterable[int]) -> int:
        key = frozenset(S)
        if not key <= self._ground:
            raise ValueError("subset leaves the ground set")
        if key not in self._memo:
            self._memo[key] = self._rank_fn(key)
        return self._memo[key]

    @property
    def full_rank(self) -> int:
        return self.rank(self.elements)

    def closure(self, S: Iterable[int]) -> FrozenSet[int]:
        S = frozenset(S)
        r = self.rank(S)
        return frozenset(e for e in self.elements if self.rank(S | {e}) == r)

    def loops(self) -> FrozenSet[int]:
        return frozenset(e for e in self.elements if self.rank({e}) == 0)

    def is_loop_free(self) -> bool:
        return not self.loops()


def proper_flats(m: Matroid) -> dict[int, list[Flat]]:
    """All flats strictly between the empty set and the ground set, by rank.

    Enumerated by closing covers upward from the bottom flat, so only the
    actual lattice of flats is visited.  The covers of a flat f partition
    the elements outside f, so each cover is closed once.
    """
    ground = frozenset(m.elements)
    bottom = m.closure(())
    result: dict[int, list[Flat]] = {}
    level = {bottom}
    r = m.rank(bottom)
    while level:
        keep = [f for f in level if f and f != ground]
        if keep:
            result[r] = sorted((Flat(f, r) for f in keep),
                               key=lambda fl: sorted(fl.elements))
        nxt: set[FrozenSet[int]] = set()
        for f in level:
            covered = set(f)
            for e in m.elements:
                if e not in covered:
                    g = m.closure(f | {e})
                    covered |= g
                    if g != ground:
                        nxt.add(g)
        level = nxt
        r += 1
    return result


def maximal_chains(m: Matroid) -> list[tuple[Flat, ...]]:
    """All chains of proper nonempty flats with ranks 1, 2, ..., rank - 1,
    as tuples built strictly increasing; `HasLoops` when m has loops, and
    ValueError once there are more than `CHAIN_LIMIT`."""
    if not m.is_loop_free():
        raise HasLoops("matroid has loops")
    d = m.full_rank - 1
    flats = proper_flats(m)
    chains: list[tuple[Flat, ...]] = []

    def extend(chain: list[Flat]):
        r = len(chain)
        if r == d:
            chains.append(tuple(chain))
            if len(chains) > CHAIN_LIMIT:
                raise ValueError(f"maximal chains of flats exceed the limit {CHAIN_LIMIT}")
            return
        for f in flats.get(r + 1, ()):
            if chain[-1].elements < f.elements:
                extend(chain + [f])

    for f in flats.get(1, ()):
        extend([f])
    return chains


def bergman_fine(m: Matroid) -> Complex:
    """Bergman fan of the matroid in its fine fan structure.

    One ray per proper nonempty flat (the 0/1 indicator over the ground set),
    one maximal cone per maximal chain of flats, and the all-ones line as
    lineality.  The fan lives in R^(ground size) and is pure of dimension
    rank(m), each facet being simplicial modulo the lineality line.  Flats
    are numbered as the chains first meet them, and a cell is the sorted
    numbers of its chain's flats; a rank-one matroid has one cell, no rays.
    """
    ground = m.elements
    n = len(ground)
    ids: dict[FrozenSet[int], int] = {}
    cells = tuple(((), tuple(sorted(ids.setdefault(f.elements, len(ids)) for f in chain)))
                  for chain in maximal_chains(m))
    return Complex(n, (), tuple(tuple(int(e in f) for e in ground) for f in ids),
                   ((1,) * n,) if n else (), cells or (((), ()),))


def contraction(m: Matroid, e: int) -> Matroid:
    """Contract the element e: rank drops by one relative to sets through e."""
    if e not in m.elements:
        raise ValueError(f"element {e} not in the ground set")
    if m.rank({e}) == 0:
        raise LoopContraction(f"element {e} is a loop")
    rest = tuple(x for x in m.elements if x != e)
    return Matroid(rest, lambda S: m.rank(S | {e}) - 1)


def matroid_from_json(obj: dict) -> Matroid:
    """Build a matroid from its JSON description.

    Accepted forms:
      {"type": "uniform", "r": 3, "n": 4}
      {"type": "graphic", "edges": [[0, 1], ...]}
      {"type": "linear", "columns": [[...], ...]}   (rationals as "p/q" or int)
      {"type": "bases", "n": 3, "bases": [[0], [1]]}
    Floats and booleans raise ValueError, as in fan files, and so do values
    of the wrong shape: a non-object input, non-list edges, columns, bases
    or rows, edges that are not pairs and basis elements outside range(n).
    """
    if not isinstance(obj, dict):
        raise ValueError(f"a matroid is a JSON object, not {obj!r}")
    kind = obj.get("type")
    if kind == "uniform":
        return Matroid.uniform(_integer(obj["r"], "r"), _integer(obj["n"], "n"))
    if kind == "graphic":
        edges = [_list(e, "edge") for e in _list(obj["edges"], "edges")]
        for e in edges:
            if len(e) != 2:
                raise ValueError(f"edge {e!r} is not a pair of vertices")
        return Matroid.graphic([[_integer(v, "vertex") for v in e] for e in edges])
    if kind == "linear":
        return Matroid.linear([list(map(parse_rational, _list(c, "column")))
                               for c in _list(obj["columns"], "columns")])
    if kind == "bases":
        n = _integer(obj["n"], "n")
        bases = [[_integer(i, "element") for i in _list(b, "basis")]
                 for b in _list(obj["bases"], "bases")]
        for b in bases:
            if any(not 0 <= i < n for i in b):
                raise ValueError(f"basis {b} leaves the ground set range({n})")
        return Matroid.from_bases(n, bases)
    raise ValueError(f"unknown matroid type {kind!r}")

