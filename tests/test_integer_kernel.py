"""The integer kernels against the Fraction arithmetic they replaced.

`dd_cone`, the elimination behind ranks, kernels and canonical bases, dot
products and primitive vectors run on Python ints.  The Fraction versions below are kept here, and
only here, as oracles: on seeded inputs the two must agree exactly, so fan
files, keys and certificates keep their bytes.  `dd_cone` returns ints and a
lineality basis that is not canonical, so its rays are compared exactly and
its lineality as the canonical basis of its span.  sympy is a second oracle
for ranks and determinants.
"""

import itertools
import random
from fractions import Fraction as F
from math import gcd

import pytest
import sympy

from tropicon.polyhedral import EmptyPolyhedron, HRep, Polyhedron, _eq_kernel, dd_cone
from tropicon.ratlin import (
    _bareiss, _int_kernel, _int_row, _lattice_kernel, dot, matrix_rank,
    primitive_vector, subspace_canonical_basis,
)
from test_ratlin import hermite, saturation_basis


# ---------------------------------------------------------------------------
# Fraction oracles


def _oracle_rref(A):
    rows = [[F(x) for x in r] for r in A]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    pivots, r = [], 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in rows[:r]), tuple(pivots)


def _oracle_rank(A):
    return len(_oracle_rref(A)[1]) if A else 0


def _oracle_primitive(v):
    m = 1
    for x in v:
        m = m * F(x).denominator // gcd(m, F(x).denominator)
    ints = [int(F(x) * m) for x in v]
    g = 0
    for a in ints:
        g = gcd(g, a)
    return tuple(F(a // g) for a in ints)


def _oracle_kernel(A):
    ncols = len(A[0])
    red, pivots = _oracle_rref(A)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        x = [F(0)] * ncols
        x[free] = F(1)
        for r, pc in enumerate(pivots):
            x[pc] = -red[r][free]
        basis.append(tuple(x))
    return len(pivots), basis


def _oracle_canonical_basis(gens):
    gens = [g for g in gens if any(x != 0 for x in g)]
    if not gens:
        return ()
    return tuple(_oracle_primitive(row) for row in _oracle_rref(gens)[0])


def _dot(u, v):
    return sum((F(a) * F(b) for a, b in zip(u, v)), F(0))


def _oracle_dd_cone(ineqs, eqs, n):
    """The double description pass over Fractions, step for step."""
    if eqs:
        lin = [_oracle_primitive(k) for k in _oracle_kernel(eqs)[1]]
    else:
        lin = [tuple(F(int(i == j)) for j in range(n)) for i in range(n)]
    rays, zeros, step = [], [], 0
    for a in ineqs:
        if all(x == 0 for x in a):
            continue
        lin_vals = [_dot(a, l) for l in lin]
        pivot = next((i for i, v in enumerate(lin_vals) if v != 0), None)
        if pivot is not None:
            l0, v0 = lin[pivot], lin_vals[pivot]
            if v0 < 0:
                l0, v0 = tuple(-x for x in l0), -v0
            new_lin = []
            for i, l in enumerate(lin):
                if i == pivot:
                    continue
                if lin_vals[i] != 0:
                    l = tuple(x - lin_vals[i] / v0 * y for x, y in zip(l, l0))
                new_lin.append(_oracle_primitive(l))
            lin = new_lin
            new_rays, new_zeros = [], []
            for r, z in zip(rays, zeros):
                rv = _dot(a, r)
                if rv != 0:
                    r = _oracle_primitive(tuple(x - rv / v0 * y for x, y in zip(r, l0)))
                new_rays.append(r)
                new_zeros.append(z | {step})
            rays, zeros = new_rays + [l0], new_zeros + [set(range(step))]
            step += 1
            continue
        vals = [_dot(a, r) for r in rays]
        keep_rays, keep_zeros = [], []
        for r, z, v in zip(rays, zeros, vals):
            if v >= 0:
                keep_rays.append(r)
                keep_zeros.append(z | {step} if v == 0 else z)
        for i, j in itertools.combinations(range(len(rays)), 2):
            if vals[i] * vals[j] >= 0:
                continue
            common = zeros[i] & zeros[j]
            if any(common <= zeros[k] for k in range(len(rays)) if k not in (i, j)):
                continue
            p, m = (i, j) if vals[i] > 0 else (j, i)
            w = tuple(vals[p] * x - vals[m] * y for x, y in zip(rays[m], rays[p]))
            keep_rays.append(_oracle_primitive(w))
            keep_zeros.append(common | {step})
        rays, zeros = keep_rays, keep_zeros
        step += 1
    return tuple(sorted(set(rays))), _oracle_canonical_basis(lin)


# ---------------------------------------------------------------------------
# seeded inputs


def _rational(rng, span=4):
    return F(rng.randint(-span, span), rng.choice((1, 1, 1, 2, 3, 6)))


def _rows(rng, count, n):
    """Rational rows with zero, duplicate, scaled and redundant ones mixed in."""
    rows = []
    for _ in range(count):
        kind = rng.random()
        if rows and kind < 0.1:
            rows.append(rng.choice(rows))
        elif rows and kind < 0.2:
            rows.append(tuple(F(rng.randint(1, 5), rng.randint(1, 3)) * x
                              for x in rng.choice(rows)))
        elif len(rows) > 1 and kind < 0.3:
            u, v = rng.sample(rows, 2)
            rows.append(tuple(x + y for x, y in zip(u, v)))
        elif kind < 0.35:
            rows.append((F(0),) * n)
        else:
            rows.append(tuple(_rational(rng) for _ in range(n)))
    return rows


def _systems(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 5)
        ineqs = _rows(rng, rng.randint(0, 9), n)
        eqs = _rows(rng, rng.choice((0, 0, 0, 1, 2, 3)), n)
        yield ineqs, eqs, n


def _as_fractions(out):
    return all(type(x) is F for group in out for row in group for x in row)


def _as_oracle(out):
    """`dd_cone`'s integer output in the oracle's form: the rays exactly as
    they are, the lineality as the canonical basis of its span.  Every entry
    must be an int and the lineality rows must be independent."""
    rays, lin = out
    assert all(type(x) is int for row in [*rays, *lin] for x in row), out
    canonical = subspace_canonical_basis(lin)
    assert len(canonical) == len(lin), lin
    return tuple(rays), canonical


# ---------------------------------------------------------------------------
# tests


class TestDoubleDescription:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_fraction_pass(self, seed):
        for ineqs, eqs, n in _systems(seed, 300):
            got = _as_oracle(dd_cone(ineqs, eqs, n))
            assert got == _oracle_dd_cone(ineqs, eqs, n), (ineqs, eqs)

    def test_lineality_only_and_integer_rows(self):
        rng = random.Random(11)
        for n in range(1, 6):
            assert _as_oracle(dd_cone([], [], n)) == _oracle_dd_cone([], [], n)
            rows = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(6)]
            # int rows and the same rows as fractions give the same cone
            got = dd_cone(rows, rows[:1], n)
            assert got == dd_cone(
                [tuple(map(F, r)) for r in rows], [tuple(map(F, rows[0]))], n)
            assert _as_oracle(got) == _oracle_dd_cone(rows, rows[:1], n)

    @pytest.mark.parametrize("seed", range(3))
    def test_homogenized_rows_of_from_hrep(self, seed):
        # from_hrep lifts a.x >= b to (-b, a).(1, x) >= 0 and adds x0 >= 0;
        # those rational rows go through the same integer scaling
        rng = random.Random(100 + seed)
        for _ in range(150):
            n = rng.randint(1, 4)
            ineqs = [(tuple(_rational(rng) for _ in range(n)), _rational(rng))
                     for _ in range(rng.randint(1, 7))]
            eqs = [(tuple(_rational(rng) for _ in range(n)), _rational(rng))
                   for _ in range(rng.choice((0, 0, 1)))]
            # a nonzero offset, so that from_hrep lifts the system
            ineqs[0] = (ineqs[0][0], F(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3)))
            lifted = [(F(1),) + (F(0),) * n] + [(-b,) + a for a, b in ineqs]
            lifted_eqs = [(-b,) + a for a, b in eqs]
            rays, lin = _oracle_dd_cone(lifted, lifted_eqs, n + 1)
            assert _as_oracle(dd_cone(lifted, lifted_eqs, n + 1)) == (rays, lin)
            verts = [tuple(x / r[0] for x in r[1:]) for r in rays if r[0] > 0]
            h = HRep(n, tuple(ineqs), tuple(eqs))
            if not verts:
                with pytest.raises(EmptyPolyhedron):
                    Polyhedron.from_hrep(h)
                continue
            p = Polyhedron.from_hrep(h)
            expected = Polyhedron(n, tuple(verts),
                                  tuple(r[1:] for r in rays if r[0] == 0),
                                  tuple(l[1:] for l in lin))
            assert (p.vertices, p.rays, p.lineality) == \
                (expected.vertices, expected.rays, expected.lineality)


class TestCachedEquationKernel:
    """`dd_cone` computes the kernel of each distinct equation set once; a
    cold and a warm cache must give the oracle's cone, and no caller may
    share a mutable list with the cache."""

    @pytest.mark.parametrize("seed", range(3))
    def test_cold_and_warm_cache_match_the_fraction_pass(self, seed):
        for ineqs, eqs, n in _systems(seed, 150):
            _eq_kernel.cache_clear()
            cold = dd_cone(ineqs, eqs, n)
            warm = dd_cone(ineqs, eqs, n)
            assert cold == warm
            assert _as_oracle(warm) == _oracle_dd_cone(ineqs, eqs, n), (ineqs, eqs)

    def test_combinations_stay_primitive_ints(self):
        for ineqs, eqs, n in _systems(7, 150):
            rays, lin = dd_cone(ineqs, eqs, n)
            for row in rays + lin:
                assert all(type(x) is int for x in row) and gcd(*row) == 1, row

    @pytest.mark.parametrize("ineqs", [[], [(1, 0, 0, 0)]], ids=["no-ineqs", "one-ineq"])
    def test_mutating_a_returned_lineality_leaves_later_calls(self, ineqs):
        eqs = [(1, 1, 1, 1)]
        first = dd_cone(ineqs, eqs, 4)
        rays, lin = dd_cone(ineqs, eqs, 4)
        lin.append((9, 9, 9, 9))
        lin[0] = (0, 0, 0, 0)
        rays.clear()
        assert dd_cone(ineqs, eqs, 4) == first
        _, free = dd_cone([], [], 3)
        free.pop()
        assert dd_cone([], [], 3)[1] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


class TestElimination:
    @staticmethod
    def matrices(seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            n = rng.randint(1, 6)
            yield _rows(rng, rng.randint(1, 6), n)

    def test_rank_against_fractions_and_sympy(self):
        for A in self.matrices(1, 400):
            r = matrix_rank(A)
            assert r == _oracle_rank(A) == sympy.Matrix(A).rank()
        assert matrix_rank([]) == 0
        assert matrix_rank([[2, 4], [1, 2]]) == 1  # plain int rows

    def test_rref_kernel_and_canonical_basis(self):
        for A in self.matrices(2, 400):
            red, pivots = _bareiss([_int_row(row) for row in A])
            assert (tuple(tuple(F(x, red[0][pivots[0]]) for x in row) for row in red),
                    tuple(pivots)) == _oracle_rref(A)
            rank, kernel = _oracle_kernel(A)
            kernel = [_oracle_primitive(k) for k in kernel]
            pivots, got = _int_kernel(A)
            assert (len(pivots), got) == (rank, kernel)
            assert subspace_canonical_basis(A) == _oracle_canonical_basis(A)
            n = len(A[0])
            if any(any(row) for row in A):
                # the saturated lattice of the span is the integer kernel of
                # its equations; with none, the unit basis
                assert hermite(saturation_basis(A, n), n) == hermite(
                    _lattice_kernel([_int_row(k) for k in kernel], n), n)

    def test_dot_products(self):
        rng = random.Random(4)
        for _ in range(500):
            n = rng.randint(0, 6)
            u, v = ([_rational(rng, 9) for _ in range(n)] for _ in range(2))
            got = dot(u, v)
            assert got == sum((a * b for a, b in zip(u, v)), F(0)) and type(got) is F

    def test_primitive_vectors(self):
        rng = random.Random(3)
        for _ in range(500):
            v = tuple(_rational(rng, 9) for _ in range(rng.randint(1, 6)))
            if any(v):
                got = primitive_vector(v)
                assert got == _oracle_primitive(v) and _as_fractions([[got]])

    @pytest.mark.parametrize("size", [2, 3, 4, 5, 6])
    def test_bareiss_pivots_are_minors(self, size):
        # the last pivot of a nonsingular integer matrix is |det|, and every
        # entry is bounded by Hadamard's bound: each division by the previous
        # pivot was exact
        rng = random.Random(size)
        for _ in range(40):
            A = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
            det = sympy.Matrix(A).det()
            red, pivots = _bareiss([row[:] for row in A])
            if det == 0:
                assert len(pivots) < size
                continue
            assert pivots == list(range(size))
            assert all(red[i][i] == abs(det) for i in range(size))
            bound = 1
            for row in A:
                bound *= sum(x * x for x in row)
            assert all(x * x <= bound for row in red for x in row)
