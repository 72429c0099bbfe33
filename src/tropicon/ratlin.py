"""Exact rational linear algebra and integer lattice utilities.

All arithmetic is exact; there is no floating point anywhere in this
package.  Vectors are immutable tuples of ``fractions.Fraction`` and matrices
are tuples of equal-length vectors, so every value is hashable and safe to
share.  Inside, the elimination kernels work on Python ints: rank, kernels,
canonical bases and saturated lattices scale each rational row once to an
integer row (a nonzero multiple, which changes no row space) and eliminate
fraction free by Bareiss's method; primitive vectors and dot products go
through integer numerators; `polyhedral.dd_cone` runs on primitive integer
rows and returns ints, which `polyhedral._from_rows` turns into
fractions.  The Smith normal form (`_smith`) works on ints and keeps D and
V only, which the lattice functions read.  Results are converted back to
fractions at each public function of this module; the private helpers that
the geometry layer's integer cell record calls (`_int_kernel`,
`_int_reduce`, `_lattice_kernel`) take and return ints.  `matrix_rank` is
the one rank, for rational and integer rows alike (integer rows pass
`_int_row` unchanged).  Feasibility of linear systems, strict rows
included, is decided in the geometry layer by one double description
(`polyhedral._feasible_point`).  This module imports nothing else from the
package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence

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


def sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


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


def as_int_list(v: Vec) -> list[int]:
    if any(x.denominator != 1 for x in v):
        raise ValueError("vector is not integral")
    return [int(x) for x in v]


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
# integer lattices via Smith normal form


def _smith(D: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """The Smith normal form U A V = D of the integer rows A = D: reduces D
    in place and returns (D, the columns of V), with V unimodular and D
    diagonal, d_1 | d_2 | ... >= 0.  The pivot is the smallest |entry|,
    first in row-major order.  U is not kept: no caller reads it, and D and
    V depend only on the operations.  V is kept by columns, so that a column
    operation is one list operation."""
    m = len(D)
    n = len(D[0]) if D else 0
    W = [[1 if i == j else 0 for j in range(n)] for i in range(n)]  # W[j]: column j of V

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in D:
            row[i] -= q * row[j]
        W[i] = [a - q * b for a, b in zip(W[i], W[j])]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        W[i], W[j] = W[j], W[i]

    t = 0
    while t < min(m, n):
        # locate pivot: smallest nonzero magnitude in the trailing block
        best = None
        for i in range(t, m):
            row = D[i]
            for j in range(t, n):
                x = row[j]
                if x and (best is None or abs(x) < least):
                    best, least = (i, j), abs(x)
        if best is None:
            break
        D[t], D[best[0]] = D[best[0]], D[t]
        swap_cols(t, best[1])
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, m):
                if D[i][t] != 0:
                    q = D[i][t] // D[t][t]
                    D[i] = [a - q * b for a, b in zip(D[i], D[t])]
                    if D[i][t] != 0:
                        D[t], D[i] = D[i], D[t]
                        dirty = True
            if dirty:
                continue
            # clear row t
            for j in range(t + 1, n):
                if D[t][j] != 0:
                    q = D[t][j] // D[t][t]
                    col_op(j, t, q)
                    if D[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # divisibility: pivot must divide the trailing block
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if D[i][j] % D[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            D[t] = [a + b for a, b in zip(D[t], D[offender])]
        if D[t][t] < 0:
            D[t] = [-a for a in D[t]]
        t += 1
    return D, W


def _lattice_kernel(rows: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Basis of {x in Z^n : A x = 0} for the nonempty integer rows A: the
    last columns of V in the Smith normal form U A V = D."""
    n = len(rows[0])
    D, V_cols = _smith([list(row) for row in rows])
    rank = sum(1 for i in range(min(len(D), n)) if D[i][i] != 0)
    return [tuple(col) for col in V_cols[rank:]]


def saturation_basis(gens: Sequence[Vec], ambient_dim: Optional[int] = None) -> Mat:
    """Basis of span(gens) ∩ Z^n, the saturated lattice of a rational subspace."""
    gens = [g for g in gens if not is_zero(g)]
    if not gens:
        return ()
    n = len(gens[0]) if ambient_dim is None else ambient_dim
    _, equations = _int_kernel(gens)
    if not equations:
        return identity_mat(n)
    return tuple(tuple(map(Fraction, k)) for k in _lattice_kernel(equations))


def lattice_complement_projection(gens: Sequence[Vec], ambient_dim: int) -> Mat:
    """Integer projection matrix P with kernel span(gens), mapping Z^n onto Z^(n-l).

    Built from a Smith-normal-form completion of the saturated lattice of the
    subspace, so rational and integral data stay rational and integral, and
    the construction is deterministic.
    """
    basis = saturation_basis(gens, ambient_dim)
    ell = len(basis)
    if ell == 0:
        return identity_mat(ambient_dim)
    D, V_cols = _smith([_int_row(row) for row in basis])
    for i in range(ell):
        if D[i][i] != 1:
            raise AssertionError("saturated lattice should have trivial invariants")
    # rows of V^{-1} form a Z^n basis whose first `ell` rows span the lattice;
    # coordinates w.r.t. that basis are given by V^T, so dropping the first
    # `ell` coordinates projects along the subspace.
    return tuple(tuple(map(Fraction, col)) for col in V_cols[ell:])
