import random
from collections import Counter
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from sympy.matrices.normalforms import hermite_normal_form, invariant_factors

from tropicon.ratlin import (
    ZeroVector, _int_kernel, _lattice_kernel, dot, frac, identity_mat, is_zero,
    lattice_complement_projection, mat, mat_vec, matrix_rank, primitive_vector,
    reduce_mod_subspace, subspace_canonical_basis, vec,
)
from test_polyhedral import codim1_faces, face_is_tight, fm_feasible, hrep, satisfies
from tropicon.polyhedral import Polyhedron, _feasible_point, _lattice_normal, is_face_of


def rand_fraction(rng, span=6):
    return F(rng.randint(-span, span), rng.randint(1, 4))


def rand_matrix(rng, rows, cols, span=6):
    return mat([[rand_fraction(rng, span) for _ in range(cols)] for _ in range(rows)])


def mat_mul(*factors):
    """The product of integer matrices, by sympy."""
    out = sympy.Matrix([[int(x) for x in row] for row in factors[0]])
    for f in factors[1:]:
        out = out * sympy.Matrix([[int(x) for x in row] for row in f])
    return out


def lattice_normal_generator(sigma, tau):
    """The lattice normal of sigma at its codimension-one face tau, with the
    incidence proved first: tau is a face of sigma one dimension down, and
    the normal is taken at the facet inequality of sigma tight on it."""
    assert is_face_of(tau, sigma) and tau.dim == sigma.dim - 1
    a = next(a for a, b in hrep(sigma).inequalities if face_is_tight(tau, a, b))
    return vec(_lattice_normal(sigma, a))


@pytest.mark.parametrize("call, message", [
    (lambda: dot(vec([1]), vec([1, 2])), "dimension mismatch"),
], ids=["dot"])
def test_input_checks(call, message):
    with pytest.raises(ValueError) as e:
        call()
    assert str(e.value) == message


class TestRankAndKernel:
    def test_identity(self):
        pivots, k = _int_kernel(mat([[1, 0], [0, 1]]))
        assert len(pivots) == 2 and k == []

    def test_proportional_rows(self):
        A = mat([[1, 2], [2, 4]])
        pivots, k = _int_kernel(A)
        assert len(pivots) == 1 and len(k) == 1
        assert is_zero(mat_vec(A, vec(k[0])))

    def test_against_sympy_oracle(self):
        rng = random.Random(1729)
        for _ in range(60):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            A = rand_matrix(rng, rows, cols)
            pivots, kernel = _int_kernel(A)
            r, kernel = len(pivots), [vec(k) for k in kernel]
            sym = sympy.Matrix([[sympy.Rational(x) for x in row] for row in A])
            assert r == sym.rank()
            assert r + len(kernel) == cols
            for v in kernel:
                assert is_zero(mat_vec(A, v))
            basis_rank = matrix_rank(mat(kernel)) if kernel else 0
            assert basis_rank == len(kernel)


class TestPrimitiveVector:
    def test_gcd_division(self):
        assert primitive_vector(vec([2, 4, -6])) == vec([1, 2, -3])

    def test_clears_denominators(self):
        assert primitive_vector(vec([F(1, 2), F(1, 3)])) == vec([3, 2])

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            primitive_vector(vec([0, 0, 0]))

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(40):
            v = tuple(rand_fraction(rng) for _ in range(4))
            if is_zero(v):
                continue
            p = primitive_vector(v)
            assert primitive_vector(p) == p
            # positive multiple of the input
            ratio = next(a / b for a, b in zip(v, p) if b != 0)
            assert ratio > 0
            assert all(a == ratio * b for a, b in zip(v, p))


class TestLpFeasible:
    """Strict feasibility of linear systems, decided by one double
    description (`polyhedral._feasible_point`): its verdict is the
    Fourier-Motzkin oracle's, and every point it returns satisfies its
    system by substitution."""

    @staticmethod
    def decide(n, constraints):
        """The kernel's point, after checking it against the oracle."""
        cons = [(vec(c), frac(b), rel) for c, b, rel in constraints]
        x = _feasible_point(n, cons)
        assert (x is not None) == fm_feasible(n, cons), cons
        assert x is None or satisfies(x, cons), (cons, x)
        return x

    def test_simplex_point(self):
        w = self.decide(2, [([1, 0], 0, ">="), ([0, 1], 0, ">="), ([1, 1], 1, "=")])
        assert w is not None

    def test_contradictory_strict_pair(self):
        assert self.decide(1, [([1], 0, ">"), ([-1], 0, ">")]) is None

    def test_strict_witness_by_substitution(self):
        w = self.decide(2, [([1, 0], 0, ">"), ([0, 1], 0, ">"), ([1, 2], 1, "=")])
        assert w is not None
        assert w[0] > 0 and w[1] > 0 and w[0] + 2 * w[1] == 1

    def test_unbounded_feasible_returns_point(self):
        w = self.decide(1, [([1], 1, ">=")])
        assert w is not None and w[0] >= 1

    def test_random_strict_systems(self):
        rng = random.Random(99)
        found = 0
        for _ in range(50):
            nvars = rng.randint(1, 4)
            cons = []
            for _ in range(rng.randint(1, 5)):
                coeffs = [F(rng.randint(-3, 3)) for _ in range(nvars)]
                rel = rng.choice(["=", ">=", ">"])
                cons.append((coeffs, F(rng.randint(-2, 2)), rel))
            found += self.decide(nvars, cons) is not None
        assert found > 0

    def test_zero_rows_no_rows_and_equations_only(self):
        assert self.decide(2, [([0, 0], 0, ">")]) is None
        assert self.decide(2, [([0, 0], -1, ">")]) is not None
        assert self.decide(2, [([0, 0], 1, "=")]) is None
        assert self.decide(2, [([0, 0], 0, ">=")]) is not None
        assert self.decide(3, []) == vec([0, 0, 0])
        assert self.decide(2, [([1, 1], 3, "="), ([1, -1], 1, "=")]) == vec([2, 1])
        assert self.decide(2, [([1, 1], 3, "="), ([2, 2], 5, "=")]) is None
        assert self.decide(1, [([1], 0, ">"), ([-1], 0, ">"), ([0], -1, ">")]) is None

    def test_seeded_systems_against_fourier_motzkin(self):
        rng = random.Random(2024)
        verdicts = Counter()
        for _ in range(300):
            n = rng.randint(1, 6)
            cons = [([F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)],
                     F(rng.randint(-2, 2)), rng.choice(["=", ">=", ">"]))
                    for _ in range(rng.randint(0, 7))]
            verdicts[self.decide(n, cons) is not None] += 1
        assert verdicts[True] >= 50 and verdicts[False] >= 50

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.tuples(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n), st.integers(-2, 2),
        st.sampled_from(["=", ">=", ">"])), max_size=6))))
    def test_drawn_systems_against_fourier_motzkin(self, system):
        self.decide(*system)

    def test_malformed_rows_rejected(self):
        with pytest.raises(ValueError):
            _feasible_point(2, [(vec([1, 0, 0]), F(0), ">=")])
        with pytest.raises(ValueError):
            _feasible_point(2, [(vec([1, 0]), F(0), "<=")])


def _row_smith(D):
    """The Smith normal form U A V = D of the integer rows A = D, with U and
    V kept by rows and the pivot the smallest |entry|, first in row-major
    order: the oracle for integer kernels and saturated lattices."""
    m, n = len(D), len(D[0])
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(i, j, q):
        D[i] = [a - q * b for a, b in zip(D[i], D[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, q):
        for r in range(m):
            D[r][i] -= q * D[r][j]
        for r in range(n):
            V[r][i] -= q * V[r][j]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in range(m):
            D[r][i], D[r][j] = D[r][j], D[r][i]
        for r in range(n):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if D[i][j] != 0 and (best is None or abs(D[i][j]) < abs(D[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            dirty = False
            for i in range(t + 1, m):
                if D[i][t] != 0:
                    row_op(i, t, D[i][t] // D[t][t])
                    if D[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, n):
                if D[t][j] != 0:
                    col_op(j, t, D[t][j] // D[t][t])
                    if D[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            offender = next((i for i in range(t + 1, m) for j in range(t + 1, n)
                             if D[i][j] % D[t][t] != 0), None)
            if offender is None:
                break
            D[t] = [a + b for a, b in zip(D[t], D[offender])]
            U[t] = [a + b for a, b in zip(U[t], U[offender])]
        if D[t][t] < 0:
            D[t] = [-a for a in D[t]]
            U[t] = [-a for a in U[t]]
        t += 1
    return D, U, V


def smith(A):
    """`_row_smith` on a copy of the integer rows A: D, U, V and the rank."""
    D, U, V = _row_smith([list(row) for row in A])
    return D, U, V, sum(1 for i in range(min(len(D), len(V))) if D[i][i])


def saturation_basis(gens, ambient_dim=None):
    """Basis of span(gens) ∩ Z^n, the saturated lattice of a rational
    subspace: the integer kernel of the subspace's equations, read off the
    columns of V past the rank in `_row_smith`."""
    gens = [g for g in gens if not is_zero(g)]
    if not gens:
        return ()
    n = len(gens[0]) if ambient_dim is None else ambient_dim
    _, equations = _int_kernel(gens)
    if not equations:
        return identity_mat(n)
    _, _, V, rank = smith(equations)
    return tuple(vec(row[j] for row in V) for j in range(rank, n))


def hermite(basis, n):
    """The Hermite normal form of the lattice spanned by the integer
    vectors `basis` in Z^n, by sympy: equal exactly for equal lattices."""
    if not basis:
        return sympy.zeros(n, 0)
    return hermite_normal_form(sympy.Matrix([[int(x) for x in b] for b in basis]).T)


def assert_onto(P, n):
    """The integer rows P map Z^n onto Z^len(P): every invariant factor is 1."""
    if P:
        assert len(P[0]) == n
        assert invariant_factors(sympy.Matrix([[int(x) for x in row] for row in P])) \
            == (1,) * len(P)


def assert_smith_form(A, D, U, V, rank):
    """U A V = D with U and V unimodular, D diagonal with d_1 | d_2 | ... > 0
    on its first `rank` entries and zero past them."""
    m, n = len(A), len(A[0])
    assert all(D[i][j] == 0 for i in range(m) for j in range(n) if i != j)
    diag = [D[i][i] for i in range(rank)]
    assert all(d > 0 for d in diag) and all(D[i][i] == 0 for i in range(rank, min(m, n)))
    assert all(b % a == 0 for a, b in zip(diag, diag[1:]))
    assert abs(sympy.Matrix(U).det()) == 1 and abs(sympy.Matrix(V).det()) == 1
    assert mat_mul(U, A, V) == sympy.Matrix(D)


class TestSmithNormalForm:
    def test_unimodular_transforms(self):
        A = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        assert_smith_form(A, *smith(A))

    def test_against_sympy_invariants(self):
        rng = random.Random(33)
        for _ in range(40):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            A = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
            D, U, V, rank = smith(A)
            assert_smith_form(A, D, U, V, rank)
            expected = [int(d) for d in invariant_factors(sympy.Matrix(A)) if d != 0]
            assert [D[i][i] for i in range(rank)] == expected

    def test_columns_of_v_match_the_row_reference(self):
        # the column reduction's kernel has n - rank rows, is killed by A, is
        # saturated and spans the lattice of the columns of the row
        # reference's V past the rank
        rng = random.Random(34)
        for _ in range(400):
            rows, cols = rng.randint(1, 5), rng.randint(1, 7)
            A = [[rng.choice([0, 0, 0, 1, -1, 2, -3, 5, 7, -12]) for _ in range(cols)]
                 for _ in range(rows)]
            K = _lattice_kernel(A, cols)
            rank = sympy.Matrix(A).rank()
            assert len(K) == cols - rank
            assert all(sum(a * k for a, k in zip(row, x)) == 0 for row in A for x in K)
            assert_onto(K, cols)
            _, _, V, _ = smith(A)
            oracle = [[row[j] for row in V] for j in range(rank, cols)]
            assert hermite(K, cols) == hermite(oracle, cols)

    def test_no_rows_gives_the_unit_basis(self):
        for n in range(5):
            assert _lattice_kernel([], n) == list(identity_mat(n))

    def test_integer_kernel(self):
        A = [[2, 4], [1, 2]]
        basis = _lattice_kernel(A, 2)
        assert len(basis) == 1
        assert is_zero(mat_vec(mat(A), vec(basis[0])))
        assert list(basis[0]) in ([2, -1], [-2, 1])

    def test_saturation(self):
        # span((2,0),(0,3)) meets Z^2 in all of Z^2
        basis = saturation_basis([vec([2, 0]), vec([0, 3])])
        assert subspace_canonical_basis(basis) == subspace_canonical_basis(
            [vec([1, 0]), vec([0, 1])])
        # the saturated lattice of span((2,4)) is generated by (1,2)
        basis = saturation_basis([vec([2, 4])])
        assert len(basis) == 1
        assert tuple(abs(x) for x in basis[0]) == vec([1, 2])


class TestLatticeProjection:
    def test_projects_onto_smaller_lattice(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(2, 4)
            g = vec([rng.randint(-4, 4) for _ in range(n)])
            if is_zero(g):
                continue
            proj = lattice_complement_projection([g], n)
            assert len(proj) == n - 1
            assert is_zero(mat_vec(proj, g))
            # integer matrix and full surjectivity onto Z^(n-1)
            assert all(x.denominator == 1 for row in proj for x in row)
            assert_onto(proj, n)

    def test_no_growth_on_seeded_generators(self):
        # P g = 0, n - rank rows, onto Z^(n - rank), and entries of bounded
        # size: the bound is set from the measured maximum over these
        # inputs, 258 digits; smallest-entry Smith pivoting reached
        # thousands of digits on inputs like these
        rng = random.Random(36)
        widest = 0
        for _ in range(600):
            n = rng.randint(1, 9)
            gens = []
            for _ in range(rng.randint(0, n + 1)):
                if gens and rng.randrange(5) == 0:
                    g = [sum(rng.randint(-3, 3) * x for x in col) for col in zip(*gens)]
                else:
                    g = [rng.randint(-10 ** 3, 10 ** 3) for _ in range(n)]
                gens.append(g)
            P = lattice_complement_projection([vec(g) for g in gens], n)
            rank = sympy.Matrix(gens).rank() if gens else 0
            assert len(P) == n - rank
            assert all(dot(row, vec(g)) == 0 for row in P for g in gens)
            assert all(x.denominator == 1 for row in P for x in row)
            assert_onto(P, n)
            widest = max([widest] + [len(str(abs(x.numerator))) for row in P for x in row])
        assert widest <= 300


class TestLatticeNormalGenerator:
    def test_coordinate_cone(self):
        sigma = Polyhedron.cone([[1, 0], [0, 1]])
        tau = Polyhedron.cone([[1, 0]])
        u = lattice_normal_generator(sigma, tau)
        assert u[1] == 1  # generates Z^2 / Z e1 and points into sigma

    def test_primitive_ray(self):
        sigma = Polyhedron.cone([[1, 2]])
        tau = Polyhedron.cone([], ambient_dim=2)
        assert lattice_normal_generator(sigma, tau) == vec([1, 2])

    def test_snf_oracle_for_quotient_index(self):
        sigma = Polyhedron.cone([[2, 0], [1, 1]])
        tau = Polyhedron.cone([[1, 1]])
        u = lattice_normal_generator(sigma, tau)
        assert all(x.denominator == 1 for x in u)
        # oracle: [L_sigma : L_tau + Zu] = 1 via a sympy determinant
        big = saturation_basis([vec([2, 0]), vec([1, 1])], 2)
        small = saturation_basis([vec([1, 1])], 2)
        coords = []
        for w in list(small) + [u]:
            sol = sympy.Matrix([[int(b[i]) for b in big] for i in range(2)]).solve(
                sympy.Matrix([int(x) for x in w]))
            coords.append([sympy.Rational(x) for x in sol])
        det = sympy.Matrix(coords).det()
        assert abs(det) == 1

    @staticmethod
    def _random_cell(rng, kind):
        n = rng.randint(2, 4)

        def direction():
            return [rng.randint(-3, 3) for _ in range(n)]

        def canonical(p):
            n, lin, verts, rays = p.canonical_key
            return Polyhedron(n, verts, rays, lin)

        rays = [r for r in (direction() for _ in range(rng.randint(2, n + 1))) if any(r)]
        if kind == "pointed-cone":
            return canonical(Polyhedron.cone(rays, ambient_dim=n))
        lin = [l for l in [direction()] if any(l)]
        if kind == "cone-with-lineality":
            return canonical(Polyhedron.cone(rays, lin, ambient_dim=n))
        pts = [[F(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(n)]
               for _ in range(rng.randint(1, n + 1))]
        return Polyhedron.from_vertices(pts, rays[:rng.randint(0, len(rays))],
                                        lin[:rng.randint(0, 1)], ambient_dim=n)

    @pytest.mark.parametrize("kind,seed", [("pointed-cone", 1234),
                                           ("cone-with-lineality", 1235),
                                           ("polyhedron", 1236)],
                             ids=["pointed-cones", "cones-with-lineality", "polyhedra"])
    def test_random_cones_snf_oracle(self, kind, seed):
        # residue class generates the quotient lattice, on ambient dim <= 4,
        # and points into sigma across the facet inequality tight on tau
        rng = random.Random(seed)
        checked = 0
        while checked < 20:
            sigma = self._random_cell(rng, kind)
            if sigma.dim < 1 or kind != "polyhedron" and \
                    (not sigma.canonical_key[1]) != (kind == "pointed-cone"):
                continue
            n = sigma.ambient_dim
            for tau in codim1_faces(sigma):
                u = lattice_normal_generator(sigma, tau)
                assert all(x.denominator == 1 for x in u)
                a = [a for a, b in hrep(sigma).inequalities if face_is_tight(tau, a, b)]
                assert len(a) == 1 and dot(a[0], u) > 0
                big = saturation_basis(sigma.direction_span, n)
                small = list(saturation_basis(tau.direction_span, n))
                B = sympy.Matrix([[int(b[i]) for b in big] for i in range(n)])
                coords = [B.solve(sympy.Matrix([int(x) for x in w]))
                          for w in small + [u]]
                M = sympy.Matrix([[sympy.Rational(x) for x in col] for col in coords])
                assert abs(M.det()) == 1
                checked += 1

    def test_not_a_face(self):
        # the diagonal ray is no face of the quadrant, so no ridge of the
        # quadrant lies on it and no lattice normal is taken there
        sigma = Polyhedron.cone([[1, 0], [0, 1]])
        tau = Polyhedron.cone([[1, 1]])
        assert not is_face_of(tau, sigma)
        assert tau not in codim1_faces(sigma)

    def test_wrong_codimension(self):
        # the apex is a face of codimension two: a face, but not one the
        # ridge walk hands to the lattice normal
        sigma = Polyhedron.cone([[1, 0], [0, 1]])
        apex = Polyhedron.cone([], ambient_dim=2)
        assert is_face_of(apex, sigma) and apex.dim == sigma.dim - 2
        assert apex not in codim1_faces(sigma)


def test_reduce_mod_subspace_normal_form():
    basis = subspace_canonical_basis([vec([1, 1, 0])])
    r1 = reduce_mod_subspace(vec([3, 1, 2]), basis)
    r2 = reduce_mod_subspace(vec([0, -2, 2]), basis)
    assert r1 == r2  # same class modulo the subspace
