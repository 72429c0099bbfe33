"""Exact rational linear algebra and integer lattice utilities.

All arithmetic is exact; there is no floating point anywhere in this
package.  Vectors are immutable tuples of ``fractions.Fraction`` and matrices
are tuples of equal-length vectors, so every value is hashable and safe to
share.  Inside, the elimination kernels work on Python ints: rank, kernels
and canonical bases scale each rational row once to an integer row (a
nonzero multiple, which changes no row space) and eliminate fraction free by
Bareiss's method; primitive vectors and dot products go through integer
numerators; `polyhedral.dd_cone` runs on primitive integer rows and returns
ints, which `polyhedral._from_rows` turns into fractions.  Integer lattice
kernels (`_lattice_kernel`) come from unimodular column operations on ints,
with an extended gcd (`_egcd`); the lattice projection along a subspace is
one such kernel.  Results are converted back to fractions at each public
function of this module; the private helpers that the geometry layer's
integer cell record calls (`_int_kernel`, `_int_reduce`, `_lattice_kernel`)
take and return ints.  `matrix_rank` is the one rank, for rational and
integer rows alike (integer rows pass `_int_row` unchanged).  Feasibility of
linear systems, strict rows included, is decided in the geometry layer by
one double description (`polyhedral._feasible_point`).  This module imports
nothing else from the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


class ZeroVector(ValueError):
    """A direction was requested for the zero vector."""


# ---------------------------------------------------------------------------
# vectors and matrices


def frac(x) -> Fraction:
    """Coerce ints, strings like ``"3/4"``, and fractions to Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(entries: Iterable) -> Vec:
    return tuple(frac(e) for e in entries)


def mat(rows: Iterable[Iterable]) -> Mat:
    out = tuple(vec(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def zero_vec(n: int) -> Vec:
    return (Fraction(0),) * n


def unit_vec(i: int, n: int) -> Vec:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def is_zero(v: Vec) -> bool:
    return all(x == 0 for x in v)


def dot(u: Vec, v: Vec) -> Fraction:
    """Exact dot product, summed over integer numerators and reduced once."""
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    num, den = 0, 1
    for a, b in zip(u, v):
        d = a.denominator * b.denominator
        if d == den:
            num += a.numerator * b.numerator
        else:
            num = num * d + a.numerator * b.numerator * den
            den *= d
    return Fraction(num, den)


def neg(v: Vec) -> Vec:
    return tuple(-a for a in v)


def mat_vec(A: Mat, x: Vec) -> Vec:
    return tuple(dot(row, x) for row in A)


def transpose(A: Mat) -> Mat:
    return tuple(zip(*A)) if A else ()


def identity_mat(n: int) -> Mat:
    return tuple(unit_vec(i, n) for i in range(n))


# ---------------------------------------------------------------------------
# elimination, rank, kernel


def _int_row(v: Iterable) -> list[int]:
    """The row m*v for the least m > 0 that makes every entry an integer;
    integral rows (ints or fractions) come back as their numerators."""
    m = 1
    for x in v:
        if x.denominator != 1:
            m = m * x.denominator // gcd(m, x.denominator)
    if m == 1:
        return [x.numerator for x in v]
    return [x.numerator * (m // x.denominator) for x in v]


def _primitive(row: Sequence[int]) -> tuple[int, ...]:
    """The nonzero integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return tuple(row) if g == 1 else tuple(a // g for a in row)


def _primitive_ints(v: Iterable) -> tuple[int, ...]:
    """The integer vector with gcd 1 that is a positive multiple of the
    nonzero rational vector v."""
    return _primitive(_int_row(v))


def _bareiss(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination of integer rows (Bareiss 1968).

    Each pivot step replaces every other row by (p*row - f*pivot_row) // prev,
    with p the new pivot, f the row's entry in the pivot column and prev the
    pivot before.  Every entry is then a minor of the input, so the division
    is exact and entries stay as small as the input's minors.  Returns the
    nonzero rows, which are d times the reduced row echelon form for one
    d > 0, and the pivot columns.  The input rows are overwritten.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        p = top[c]
        for i in range(nrows):
            if i != r:
                f = rows[i][c]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i], top)]
        prev = p
        pivots.append(c)
        if len(pivots) == nrows:
            break
    kept = rows[:len(pivots)]
    if prev < 0:
        kept = [[-x for x in row] for row in kept]
    return kept, pivots


def _int_kernel(A: Sequence[Iterable]) -> tuple[list[int], list[tuple[int, ...]]]:
    """Pivot columns of the rational matrix A and a basis of {x : A x = 0}
    made of primitive integer vectors, one per free column in order, each
    read off the reduced echelon form with its free column positive."""
    ncols = len(A[0])
    red, pivots = _bareiss([_int_row(row) for row in A])
    d = red[0][pivots[0]] if red else 1
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        x = [0] * ncols
        x[free] = d
        for row, pc in zip(red, pivots):
            x[pc] = -row[free]
        basis.append(_primitive_ints(x))
    return pivots, basis


def matrix_rank(A: Sequence[Iterable]) -> int:
    """Rank of a rational matrix, by Bareiss elimination of its rows scaled
    to integers."""
    return len(_bareiss([_int_row(row) for row in A])[1])


def primitive_vector(v: Vec) -> Vec:
    """Scale a nonzero rational vector to an integer vector with gcd 1.

    The direction is preserved: the result is a positive multiple of v.
    """
    if is_zero(v):
        raise ZeroVector("zero vector has no direction")
    return tuple(map(Fraction, _primitive_ints(v)))


# ---------------------------------------------------------------------------
# subspaces: canonical bases, reduction


def subspace_canonical_basis(gens: Sequence[Vec]) -> Mat:
    """Canonical basis of the span: primitive RREF rows, ordered by pivot.

    Two generating sets span the same subspace iff they produce identical
    canonical bases.
    """
    gens = [g for g in gens if not is_zero(g)]
    if not gens:
        return ()
    red, _ = _bareiss([_int_row(g) for g in gens])
    return tuple(tuple(map(Fraction, _primitive_ints(row))) for row in red)


def reduce_mod_subspace(v: Vec, basis: Mat) -> Vec:
    """Unique normal form of v modulo the span of an RREF basis."""
    out = list(v)
    for row in basis:
        pc = next(i for i, x in enumerate(row) if x != 0)
        if out[pc] != 0:
            f = out[pc] / row[pc]
            out = [x - f * y for x, y in zip(out, row)]
    return tuple(out)


def _int_reduce(row: Sequence[int], basis: Sequence[Sequence[int]]) -> list[int]:
    """A positive multiple of the normal form of the integer row modulo the
    span of a canonical basis given as integer rows: `reduce_mod_subspace`
    with each step scaled by the row's pivot, which is positive."""
    out = list(row)
    for b in basis:
        p = b.index(next(filter(None, b)))  # the pivot: the first nonzero entry
        f = out[p]
        if f:
            q = b[p]
            out = [q * x - f * y for x, y in zip(out, b)]
    return out


# ---------------------------------------------------------------------------
# integer lattices by column reduction


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b) >= 0, by extended Euclid."""
    r0, r1, s0, s1, t0, t1 = a, b, 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0 < 0:
        return -r0, -s0, -t0
    return r0, s0, t0


def _lattice_kernel(rows: Sequence[Sequence[int]], n: int) -> list[tuple[int, ...]]:
    """Basis of {x in Z^n : A x = 0} for the integer rows A, by unimodular
    column operations on the stacked matrix [A; I] (Cohen 1993, sec. 2.4).
    Row by row, the live column with the least nonzero |entry| in the row
    becomes the pivot, and every other live column is cleared in that row:
    by subtracting a multiple of the pivot when the pivot divides its
    entry, else by a unimodular gcd step on the pair.  Then A V = [H | 0]
    with V unimodular, and V's columns past the rank are the basis; with no
    rows it is the unit basis.  The kernel lattice is saturated, so it is a
    direct summand of Z^n."""
    m = len(rows)
    # column j of [A; I]
    cols = [[row[j] for row in rows] + [int(i == j) for i in range(n)] for j in range(n)]
    r = 0
    for i in range(m):
        live = [j for j in range(r, n) if cols[j][i]]
        if not live:
            continue
        best = min(live, key=lambda j: abs(cols[j][i]))
        cols[r], cols[best] = cols[best], cols[r]
        piv = cols[r]
        for j in range(r + 1, n):
            col = cols[j]
            e = col[i]
            if not e:
                continue
            p = piv[i]
            if e % p == 0:
                q = e // p
                cols[j] = [a - q * b for a, b in zip(col, piv)]
            else:
                g, s, t = _egcd(p, e)
                p, e = p // g, e // g
                cols[j] = [p * a - e * b for a, b in zip(col, piv)]
                piv = [s * b + t * a for a, b in zip(col, piv)]
        cols[r] = piv
        r += 1
    return [tuple(col[m:]) for col in cols[r:]]


def lattice_complement_projection(gens: Sequence[Vec], ambient_dim: int) -> Mat:
    """Integer projection matrix P with kernel span(gens), mapping Z^n onto Z^(n-l).

    P's rows are the integer kernel basis of the generators' integer rows
    (`_lattice_kernel`).  That lattice is a direct summand of Z^n, so P maps
    Z^n onto Z^(n-l), rational and integral data stay rational and
    integral, and the construction is deterministic.
    """
    rows = [_int_row(g) for g in gens]
    return tuple(tuple(map(Fraction, k)) for k in _lattice_kernel(rows, ambient_dim))
