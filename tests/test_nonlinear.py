"""Newton root-finder and partial-pivot LU solver."""

import cmath
import math
import random
from functools import partial, reduce
from itertools import combinations
from operator import add

import numpy as np
import pytest

from ieldtm import nonlinear, stepper
from ieldtm.errors import NewtonFailureError, SingularMatrixError
from ieldtm.nonlinear import _PIVOT_REL_TOL, lu_solve, newton_solve
from ieldtm.problems import (PROBLEM_NAMES, linear_system, make_problem,
                             robertson_modified, van_der_pol)
from ieldtm.stepper import build_coeff_table
from oracles import complex_residual, complex_step


class TestLuSolve:
    def test_identity(self):
        b = np.array([3.0, -1.0, 4.0])
        np.testing.assert_array_equal(lu_solve(np.eye(3), b), b)

    def test_diagonal(self):
        x = lu_solve(np.diag([2.0, 4.0]), np.array([2.0, 8.0]))
        np.testing.assert_allclose(x, [1.0, 2.0])

    def test_pivoting_required(self):
        # Zero leading pivot forces a row swap.
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(lu_solve(A, np.array([5.0, 7.0])), [7.0, 5.0])

    def test_singular_raises(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError):
            lu_solve(A, np.array([1.0, 1.0]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            lu_solve(np.eye(3), np.ones(2))

    def test_random_well_conditioned_systems(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            # Diagonal dominance keeps the condition number modest.
            A = rng.normal(size=(n, n)) + n * np.eye(n)
            x0 = rng.normal(size=n)
            b = A @ x0
            x = lu_solve(A, b)
            norm_bound = (np.abs(A).sum(axis=1).max() * np.abs(x).max()
                          + np.abs(b).max())
            assert np.abs(A @ x - b).max() <= 1e-10 * norm_bound
            assert np.abs(x - x0).max() <= 1e-8 * max(1.0, np.abs(x0).max())

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_numpy_solve(self, n):
        # Rows of a diagonally dominant matrix in shuffled order: every
        # column's pivot sits off the diagonal unless the shuffle fixes it.
        rng = np.random.default_rng(100 + n)
        swaps = 0
        for _ in range(50):
            perm = rng.permutation(n)
            A = (rng.normal(size=(n, n)) + 2 * n * np.eye(n))[perm]
            b = rng.normal(size=n)
            ref = np.linalg.solve(A, b)
            x = lu_solve(A, b)
            assert isinstance(x, list) and len(x) == n
            assert all(type(v) is float for v in x)
            x = np.array(x)
            assert np.abs(x - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
            swaps += (perm != np.arange(n)).any()
        assert n == 1 or swaps > 0

    def test_bits_match_numpy_elimination(self):
        # The same elimination done with one numpy call per pivot, swap and
        # row update: the Python-float LU must give the same bits.
        def reference(A, b):
            A, b = A.copy(), b.copy()
            n = len(b)
            for col in range(n):
                p = col + int(np.argmax(np.abs(A[col:, col])))
                A[[col, p]], b[[col, p]] = A[[p, col]], b[[p, col]]
                f = A[col + 1:, col] / A[col, col]
                A[col + 1:, col + 1:] -= np.outer(f, A[col, col + 1:])
                b[col + 1:] -= f * b[col]
            # Each row's products added from the left, as lu_solve does:
            # np.dot's BLAS kernel may fuse its multiply-adds.
            x = np.empty(n)
            for i in range(n - 1, -1, -1):
                terms = [a * v for a, v in
                         zip(A[i, i + 1:].tolist(), x[i + 1:].tolist())]
                x[i] = ((b[i] - reduce(add, terms)) if terms else b[i]) / A[i, i]
            return x

        rng = np.random.default_rng(11)
        for _ in range(2000):
            n = int(rng.integers(1, 7))
            A = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-6, 7, size=(n, 1))
            b = rng.normal(size=n)
            assert np.array(lu_solve(A, b)).tobytes() == reference(A, b).tobytes()

    def test_rank_deficient_raises(self):
        A = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [5.0, 7.0, 9.0]])
        with pytest.raises(SingularMatrixError, match="pivot underflow in column 2"):
            lu_solve(A, np.ones(3))

    def test_badly_scaled_well_conditioned(self):
        # A Van der Pol (eps = 1000, theta = 0.5, K = 5, dt = 0.5) Newton
        # matrix: its row sums differ by 1e17, but equilibrated its condition
        # number is 1.2e6, so no pivot is negligible.
        A = np.array([[6.168913693231879e+46, -1.211842272730129e+64],
                      [-1.2118228151568728e+64, 2.380553373568959e+81]])
        b = np.array([1.3882662378484935e+48, -2.727122126608708e+65])
        x, ref = lu_solve(A, b), np.linalg.solve(A, b)
        scale = np.abs(A).max(axis=0)
        assert np.abs(scale * (x - ref)).max() <= 1e-9 * np.abs(scale * ref).max()

    def test_tiny_pivot_raises(self):
        # The second pivot, 1e-15, is below 1e-14 times its row's inf-norm.
        A = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
        with pytest.raises(SingularMatrixError, match="pivot underflow in column 1"):
            lu_solve(A, np.array([1.0, 2.0]))


def _lu_solve_n(a: list, b: list) -> list:
    """The elimination of lu_solve on n rows of n floats and n floats, both
    lists it may overwrite."""
    n = len(b)
    col_max = [max(map(abs, col)) or 1.0 for col in zip(*a)]
    row_scale = []
    for row in a:
        scale = 0.0
        for x, c in zip(row, col_max):
            scale = scale + abs(x) / c
        row_scale.append(scale)
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda i: abs(a[i][col]))
        pivot = a[pivot_row][col]
        if abs(pivot) <= _PIVOT_REL_TOL * row_scale[pivot_row] * col_max[col]:
            raise SingularMatrixError(f"pivot underflow in column {col}")
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            b[col], b[pivot_row] = b[pivot_row], b[col]
            row_scale[col], row_scale[pivot_row] = row_scale[pivot_row], row_scale[col]
        upper = a[col]
        for i in range(col + 1, n):
            row = a[i]
            f = row[col] / pivot
            for j in range(col + 1, n):
                row[j] -= f * upper[j]
            b[i] -= f * b[col]
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        # The row's products added from the left, one plain addition at a
        # time, and subtracted from b[i] at once; the last row is b[i] alone.
        if i == n - 1:
            x[i] = b[i] / a[i][i]
            continue
        s = a[i][i + 1] * x[i + 1]
        for j in range(i + 2, n):
            s = s + a[i][j] * x[j]
        x[i] = (b[i] - s) / a[i][i]
    return x


def outcome(solve, *args):
    """A solve's result as hex strings, or its exception's type and text."""
    try:
        return [v.hex() for v in solve(*args)]
    except (ArithmeticError, SingularMatrixError) as exc:
        return type(exc).__name__, str(exc)


def general(A, b):
    """The general elimination loop, the oracle, on a system of any size."""
    return outcome(_lu_solve_n, [list(map(float, row)) for row in A],
                   list(map(float, b)))


# The systems of the checks below are top-left n x n blocks of these.
BASE_A = [[1.5, -0.5, 0.3, 0.2, -0.1, 0.4],
          [0.25, 2.0, -1.0, 0.6, 0.3, -0.2],
          [0.7, 0.1, 3.0, -0.4, 0.5, 0.1],
          [-0.3, 0.8, 0.2, 2.5, -0.6, 0.7],
          [0.4, -0.2, 0.9, 0.1, 1.8, -0.5],
          [0.6, 0.3, -0.7, 0.5, 0.2, 2.2]]
BASE_B = [1.0, -3.0, 2.0, 0.5, -1.5, 4.0]


class _LuChecks:
    """The checks of lu_solve's generated kernel against the general
    elimination loop, bit for bit, results and errors alike, on n x n
    systems.  Most systems below are top-left n x n blocks of 6 x 6 ones."""

    n: int

    def assert_same(self, A, b):
        expected = general(A, b)
        assert outcome(nonlinear._lu_kernel(self.n), A, b) == expected
        assert outcome(lu_solve, A, b) == expected

    def test_random_systems(self):
        rng = np.random.default_rng(21)
        size = self.n * (self.n + 1)
        for _ in range(5000):
            v = rng.normal(size=size) * 10.0 ** rng.integers(-300, 301, size=size)
            self.assert_same(v[:-self.n].reshape(self.n, self.n).tolist(),
                             v[-self.n:].tolist())

    def test_near_singular_systems(self):
        # A last row close to a combination of the rows above it puts the
        # last pivot test on both sides of its threshold.  At n = 3, every
        # other system has column 1 close to a multiple of column 0 instead,
        # which does the same for the column-1 test.  A 1 x 1 system is
        # singular only at zero: there the entries reach the subnormals.
        rng = np.random.default_rng(22)
        for k in range(2000):
            if self.n == 1:
                A = rng.normal(size=(1, 1)) * 10.0 ** rng.integers(-325, 309)
                self.assert_same(A.tolist(), rng.normal(size=1).tolist())
                continue
            A = rng.normal(size=(self.n, self.n))
            near = 1 + k % (self.n - 1)
            weights = rng.normal(size=near) * 10.0 ** rng.integers(-5, 6, size=near)
            wobble = 1.0 + rng.normal(size=self.n) * 10.0 ** rng.integers(-17, -11)
            A[near] = (weights @ A[:near]) * wobble
            if near < self.n - 1:
                A = A.T
            self.assert_same(A.tolist(), rng.normal(size=self.n).tolist())

    def test_non_finite_entries(self):
        # Every placement of nan, inf and -inf, one or two at a time,
        # including pivots whose division raises ZeroDivisionError.  Row n
        # of a cell is b.
        specials = [math.nan, math.inf, -math.inf]
        cells = [(i, j) for i in range(self.n + 1) for j in range(self.n)]

        def system(changes):
            A = [row[:self.n] for row in BASE_A[:self.n]] + [BASE_B[:self.n]]
            for (i, j), value in changes:
                A[i][j] = value
            return A[:-1], A[-1]

        for first in cells:
            for v in specials:
                self.assert_same(*system([(first, v)]))
                for second in cells:
                    for w in specials + [0.0]:
                        if second != first:
                            self.assert_same(*system([(first, v), (second, w)]))

    def test_int_and_numpy_inputs(self):
        n = self.n
        ints = np.array([[2, 1, 0, 1, 0, 0], [1, 3, 1, 0, 1, 0],
                         [0, 2, 4, 1, 0, 1], [1, 0, 1, 5, 2, 0],
                         [0, 1, 0, 2, 6, 1], [1, 0, 2, 0, 1, 7]])[:n, :n]
        floats = np.array([[0.5, 4.0, 1.0, 0.25, -1.0, 2.0],
                           [2.0, -1.0, 0.5, 3.0, 0.75, -0.5],
                           [1.0, 3.0, -2.0, 0.5, 1.5, 1.0],
                           [-0.5, 1.0, 2.5, 4.0, 0.25, -3.0],
                           [1.5, -2.0, 0.5, 1.0, 5.0, 0.5],
                           [0.25, 0.5, -1.5, 2.0, -0.75, 6.0]])[:n, :n]
        mixed = [[np.float32(0.1), np.float32(3.0), 7, 1.0, np.int64(0), 2],
                 [1.0, np.int64(2), 0.5, np.float32(-1.5), 3, 0.0],
                 [np.int64(-1), 2.0, np.float32(0.25), 4, 1.0, np.int64(1)],
                 [2, np.float32(0.5), 1.0, np.int64(5), -2.0, 0.5],
                 [0.0, 1, np.int64(-3), 0.75, np.float32(6.0), 1.0],
                 [np.float32(1.25), 0.5, 2, -1.0, np.int64(1), 8.0]]
        b_ints, b_floats = [1, 2, 3, -1, 0, 2], [1.0, 2.0, 3.0, -1.0, 0.5, 2.0]
        b_mixed = [np.float32(2.0), 1, np.int64(-3), 0.5, np.float32(1.5), 4]
        systems = [
            (ints.tolist(), b_ints[:n]),
            (ints, np.array(b_ints[:n])),
            (floats, np.array(b_floats[:n])),
            (tuple(map(tuple, floats.tolist())), tuple(b_floats[:n])),
            ([row[:n] for row in mixed[:n]], b_mixed[:n]),
        ]
        for A, b in systems:
            assert all(type(v) is float for v in lu_solve(A, b))
            self.assert_same(A, b)

    def check_singular_message(self, A, column):
        b = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0][:self.n]
        expected = ("SingularMatrixError", f"pivot underflow in column {column}")
        assert general(A, b) == expected
        self.assert_same(A, b)

    @pytest.mark.parametrize("p,q", [(2.0, 2.0), (2.0, -2.0), (-3.0, 3.0),
                                     (0.0, -0.0), (1e-300, -1e-300)])
    def test_ties_in_every_column(self, p, q):
        # max() keeps the first of equal |a_ic|: no swap on a tie.  Columns
        # before c hold a diagonal of 10 and zeros below it, so elimination
        # leaves column c as set: p and q on each pair of its candidate
        # rows (the others 0.5 p), then p and q alternating on all of them.
        n = self.n
        for c in range(n):
            rows = range(c, n)
            patterns = [{i: p, j: q} for i, j in combinations(rows, 2)]
            patterns.append({i: (p, q)[(i - c) % 2] for i in rows})
            for pattern in patterns:
                A = [row[:n] for row in BASE_A[:n]]
                for i in range(n):
                    A[i][:c] = [10.0 * (i == j) if i >= j else A[i][j]
                                for j in range(c)]
                    if i >= c:
                        A[i][c] = pattern.get(i, 0.5 * p)
                self.assert_same(A, BASE_B[:n])

    def test_zero_and_permuted_columns(self):
        # Each column and each pair of columns made +-0.0, and the rows of
        # the identity in every cyclic order.
        n = self.n
        for zeros in [(j,) for j in range(n)] + list(combinations(range(n), 2)):
            A = [row[:n] for row in BASE_A[:n]]
            for i in range(n):
                for j in zeros:
                    A[i][j] = (0.0, -0.0)[(i + j) % 2]
            self.assert_same(A, BASE_B[:n])
        for shift in range(n):
            self.assert_same([[float(j == (i + shift) % n) for j in range(n)]
                              for i in range(n)], BASE_B[:n])

    def test_singular_message_of_every_column(self):
        # Column c a sum of the columns before it (column 0 zero): the
        # elimination of those columns leaves column c's candidates at
        # rounding level, below the threshold.
        n = self.n
        for c in range(n):
            A = [[float(v) for v in row[:n]] for row in BASE_A[:n]]
            for row in A:
                row[c] = sum(row[:c])
            self.check_singular_message(A, c)

    def test_one_dimensional_or_scalar_A(self):
        n = self.n
        for A in [np.ones(n), [1.0] * n, np.float64(1.0), 1.0, 3]:
            with pytest.raises(ValueError, match="A must be n x n and b length n"):
                lu_solve(A, np.ones(n))


class TestLuSolve1x1(_LuChecks):
    """lu_solve's n = 1 kernel against the general loop."""

    n = 1


class TestLuSolve2x2(_LuChecks):
    """lu_solve's n = 2 kernel against the general loop."""

    n = 2

    @pytest.mark.parametrize("a00,a10", [(2.0, 2.0), (2.0, -2.0), (-3.0, 3.0),
                                         (0.0, -0.0), (1e-300, -1e-300)])
    def test_pivot_ties(self, a00, a10):
        # max() keeps the first of equal |a_i0|: no swap on a tie.
        for a01, a11 in [(1.0, 5.0), (5.0, 1.0), (0.0, 3.0), (-7.0, -7.0)]:
            self.assert_same([[a00, a01], [a10, a11]], [1.0, -2.0])

    @pytest.mark.parametrize("A", [
        [[0.0, 1.0], [0.0, 2.0]], [[1.0, 0.0], [2.0, 0.0]],
        [[0.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]],
        [[-0.0, 3.0], [0.0, -4.0]], [[5.0, 0.0], [0.0, 0.0]],
    ])
    def test_zero_columns(self, A):
        self.assert_same(A, [1.0, 2.0])

    @pytest.mark.parametrize("A,column", [
        ([[1.0, 2.0], [2.0, 4.0]], 1),
        ([[1.0, 1.0], [1.0, 1.0 + 1e-15]], 1),
        ([[0.0, 1.0], [0.0, 1.0]], 0),
        ([[-0.0, 2.0], [0.0, 5.0]], 0),
    ])
    def test_singular_messages(self, A, column):
        self.check_singular_message(A, column)

    @pytest.mark.parametrize("A,b", [
        (np.ones((2, 3)), np.ones(2)),
        ([[1.0, 2.0], [3.0, 4.0, 5.0]], [1.0, 2.0]),
        ([[1.0, 2.0, 0.0], [3.0, 4.0]], [1.0, 2.0]),
        ([[1.0], [3.0]], [1.0, 2.0]),
        (np.ones((3, 2)), np.ones(2)),
        (np.eye(2), np.ones(3)),
        (np.ones(2), np.ones(2)),
        ([1.0, 2.0], [1.0, 2.0]),
        (np.float64(1.0), np.ones(2)),
        (1.0, [1.0, 2.0]),
    ])
    def test_shape_mismatch(self, A, b):
        with pytest.raises(ValueError, match="A must be n x n and b length n"):
            lu_solve(A, b)


class TestLuSolve3x3(_LuChecks):
    """lu_solve's n = 3 kernel against the general loop."""

    n = 3

    @pytest.mark.parametrize("p,q", [(2.0, 2.0), (2.0, -2.0), (-3.0, 3.0),
                                     (0.0, -0.0), (1e-300, -1e-300)])
    def test_pivot_ties(self, p, q):
        # max() keeps the first of equal |a_ij|: no swap on a tie.  Column 0
        # ties between each pair of rows and all three; column 1 ties after
        # an elimination that leaves rows 1 and 2 as they are.
        rest = [[1.0, 5.0], [5.0, 1.0], [0.0, 3.0], [-7.0, -7.0]]
        for tie in [(p, q, 0.5 * p), (p, 0.5 * p, q), (0.5 * p, p, q), (p, q, p)]:
            A = [[t, *r] for t, r in zip(tie, rest)]
            self.assert_same(A, [1.0, -2.0, 0.5])
        for top in [[1.0, 2.0, 3.0], [1.0, 0.0, 0.0], [-4.0, 1.0, 1.0]]:
            self.assert_same([top, [0.0, p, 1.0], [0.0, q, 5.0]], [1.0, -2.0, 0.5])
            self.assert_same([top, [0.0, p, -7.0], [-0.0, q, -7.0]], [3.0, 1.0, 2.0])

    @pytest.mark.parametrize("A", [
        [[0.0, 1.0, 2.0], [0.0, 3.0, 1.0], [0.0, 2.0, 5.0]],
        [[1.0, 0.0, 2.0], [3.0, 0.0, 1.0], [2.0, 0.0, 5.0]],
        [[1.0, 2.0, 0.0], [3.0, 1.0, 0.0], [2.0, 5.0, 0.0]],
        [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
        [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        [[-0.0, 3.0, 0.0], [0.0, -4.0, -0.0], [-0.0, 0.0, 2.0]],
        [[5.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        [[5.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.0]],
    ])
    def test_zero_columns(self, A):
        self.assert_same(A, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("A,column", [
        ([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [5.0, 7.0, 9.0]], 2),
        ([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0 + 1e-15]], 2),
        ([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]], 1),
        ([[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-15, 0.0], [0.0, 0.0, 1.0]], 1),
        ([[0.0, 1.0, 2.0], [0.0, 3.0, 4.0], [0.0, 5.0, 6.0]], 0),
        ([[-0.0, 2.0, 1.0], [0.0, 5.0, 1.0], [-0.0, 1.0, 1.0]], 0),
    ])
    def test_singular_messages(self, A, column):
        self.check_singular_message(A, column)

    @pytest.mark.parametrize("A,b", [
        (np.ones((3, 2)), np.ones(3)),
        (np.ones((3, 4)), np.ones(3)),
        ([[1.0, 2.0, 3.0], [3.0, 4.0], [5.0, 6.0, 7.0]], [1.0, 2.0, 3.0]),
        ([[1.0, 2.0, 3.0], [3.0, 4.0, 5.0], [5.0, 6.0, 7.0, 8.0]], [1.0, 2.0, 3.0]),
        ([[1.0], [3.0], [5.0]], [1.0, 2.0, 3.0]),
        (np.ones((2, 3)), np.ones(3)),
        (np.ones((4, 3)), np.ones(3)),
        (np.eye(3), np.ones(2)),
        (np.eye(3), np.ones(4)),
        (np.ones(3), np.ones(3)),
        ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),
        (np.float64(1.0), np.ones(3)),
        (1.0, [1.0, 2.0, 3.0]),
    ])
    def test_shape_mismatch(self, A, b):
        with pytest.raises(ValueError, match="A must be n x n and b length n"):
            lu_solve(A, b)


class TestLuSolve4x4(_LuChecks):
    """lu_solve's n = 4 kernel against the general loop."""

    n = 4


class TestLuSolve5x5(_LuChecks):
    """lu_solve's n = 5 kernel against the general loop."""

    n = 5


class TestLuSolve6x6(_LuChecks):
    """lu_solve's n = 6 kernel (SEIR) against the general loop."""

    n = 6


class TestLuKernel:
    def test_empty_system(self):
        # n = 0 keeps the general loop's empty solution; a row or a b entry
        # more is a shape error.
        assert lu_solve([], []) == [] and lu_solve(np.zeros((0, 0)), []) == []
        for A, b in [([[1.0]], []), ([], [1.0]), (5.0, [])]:
            with pytest.raises(ValueError, match="A must be n x n and b length n"):
                lu_solve(A, b)

    def test_one_kernel_per_n(self):
        # Generated once per n and cached: a later system of that size
        # runs the same function.
        nonlinear._lu_kernel.cache_clear()
        lu_solve(np.eye(4), np.ones(4))
        kernel = nonlinear._lu_kernel(4)
        lu_solve(np.diag([2.0, 3.0, 4.0, 5.0]), np.ones(4))
        assert nonlinear._lu_kernel(4) is kernel
        assert nonlinear._lu_kernel.cache_info().misses == 1

    def test_concurrent_first_calls(self, run_threads):
        # Threads asking for the same kernels at once each solve their
        # systems with the loop's bits, whichever equal kernel is stored.
        nonlinear._lu_kernel.cache_clear()
        rng = np.random.default_rng(3)
        systems = [(rng.normal(size=(n, n)).tolist(), rng.normal(size=n).tolist())
                   for n in range(1, 7)]
        returned = []  # (system index, outcome), checked below

        def work(seed):
            order = list(range(len(systems)))
            random.Random(seed).shuffle(order)
            for i in order:
                returned.append((i, outcome(lu_solve, *systems[i])))

        run_threads(work)
        assert len(returned) == 6 * len(systems)
        for i, result in returned:
            assert result == general(*systems[i])
        assert nonlinear._lu_kernel.cache_info().currsize == len(systems)


def newton(residual, guess):
    """newton_solve with the complex step of residual as its linearize."""
    return newton_solve(residual, guess, partial(complex_step, residual))


class TestNewtonSolve:
    def test_affine(self):
        root, iters = newton(lambda y: [v - 1.0 for v in y], [0.0])
        assert root[0] == pytest.approx(1.0)
        # One correction plus one polish pass that confirms the floor.
        assert iters <= 2

    def test_quadratic(self):
        root, iters = newton(lambda y: [v ** 2 - 4.0 for v in y], [3.0])
        assert root[0] == pytest.approx(2.0, abs=1e-10)
        assert iters <= 6

    def test_already_converged_guess(self):
        root, iters = newton(lambda y: [v - 1.0 for v in y], [1.0])
        assert root[0] == 1.0
        assert iters == 0

    def test_coupled_system(self):
        def residual(y):
            return [y[0] ** 2 + y[1] ** 2 - 2.0, y[0] - y[1]]

        root, _ = newton(residual, [2.0, 0.5])
        np.testing.assert_allclose(root, [1.0, 1.0], atol=1e-10)

    def test_failure_reported(self, monkeypatch):
        # No real root: residual cannot reach zero.
        monkeypatch.setattr(nonlinear, "_MAX_ITERS", 5)
        with pytest.raises(NewtonFailureError):
            newton(lambda y: [v ** 2 + 1.0 for v in y], [1.0])

    def test_singular_jacobian_after_first_iteration(self):
        # The first update lands on y = 0, where the Jacobian 2y vanishes.
        with pytest.raises(NewtonFailureError, match="singular Jacobian at iteration 2"):
            newton(lambda y: [v ** 2 + 1.0 for v in y], [1.0])

    def test_stalled_residual_accepted_at_abs_tol(self):
        # A root at 1 with a 1e-13 ripple of period 6e-13: once the residual
        # is below _ABS_TOL = 1e-12 and no longer falls fourfold per
        # iteration, the iterate is accepted, after 3 iterations.  Without
        # that rule, or at _ABS_TOL = 1e-13, the solve takes 6.
        def residual(y):
            x, = y
            sin = cmath.sin if type(x) is complex else math.sin
            return [(x - 1.0) + 1e-13 * sin(1e13 * x)]

        root, iters = newton(residual, [0.999999999995])
        assert iters == 3
        assert abs(residual(root)[0]) <= nonlinear._ABS_TOL

    def test_last_iteration_residual_tested(self, monkeypatch):
        # The one allowed iteration reaches _ABS_TOL with a large update.
        monkeypatch.setattr(nonlinear, "_ABS_TOL", 1e-9)
        monkeypatch.setattr(nonlinear, "_MAX_ITERS", 1)
        root, iters = newton(lambda y: [v - 1.0 for v in y], [0.0])
        assert abs(root[0] - 1.0) <= 1e-9
        assert iters == 1

    def test_damping_recovers_overshoot(self):
        # Steep residual where a full Newton step overshoots badly.
        def residual(y):
            return [np.arctan(v) * 10.0 for v in y]

        root, _ = newton(residual, [20.0])
        assert abs(root[0]) <= 1e-10

    @pytest.mark.parametrize("residual,guess,iters", [
        (lambda y: [v - 1.0 for v in y], [0.0], 1),
        (lambda y: [v ** 2 - 4.0 for v in y], [3.0], 5),
        (lambda y: [v - 1.0 for v in y], [1.0], 0),
        (lambda y: [y[0] ** 2 + y[1] ** 2 - 2.0, y[0] - y[1]], [2.0, 0.5], 5),
        (lambda y: [np.arctan(v) * 10.0 for v in y], [20.0], 7),
    ], ids=["affine", "quadratic", "converged", "coupled", "damping"])
    def test_iteration_counts(self, residual, guess, iters):
        # The counts of the cases above: the norm of each residual is taken
        # once and carried into the next iteration's tests.
        assert newton(residual, guess)[1] == iters

    def test_inf_residual_takes_every_halving(self):
        # The residual is inf at the start and after every update: an inf
        # norm is never a decrease, even against r_norm = inf.
        real_calls = []

        def residual(y):
            if isinstance(y[0], complex):
                return [complex(math.inf, v.imag) for v in y]
            real_calls.append(list(y))
            return [math.inf for _ in y]

        with pytest.raises(NewtonFailureError):
            newton(residual, [2.0])
        assert len(real_calls) >= 1 + nonlinear._MAX_HALVINGS
        assert real_calls[:1 + nonlinear._MAX_HALVINGS] == \
            [[-math.inf]] * (1 + nonlinear._MAX_HALVINGS)

    def test_root_beyond_float_range_raises(self):
        # The root 1e310 overflows: the update and every halving of it land
        # on inf, and inf <= inf must not pass the update test as
        # convergence.
        with pytest.raises(NewtonFailureError,
                           match=r"^non-finite iterate at iteration 1$"):
            newton(lambda y: [1e-250 * v - 1e60 for v in y], [0.0])

    @pytest.mark.parametrize("where", [0, 1])
    def test_nan_residual_counts_as_growth(self, where):
        # The full update lands on the root, where the residual first comes
        # back with a nan; the step is halved, wherever the nan sits (the
        # builtin max would skip it in second place).
        real_calls = []

        def residual(y):
            r = [v - 1.0 for v in y]
            if not isinstance(y[0], complex):
                real_calls.append(list(y))
                if len(real_calls) == 1:
                    r[where] = math.nan
            return r

        root, iters = newton(residual, [0.0, 0.0])
        assert real_calls[:3] == [[1.0, 1.0], [0.5, 0.5], [1.0, 1.0]]
        assert root == [1.0, 1.0] and iters == 2


def horner(table, offset, order):
    """Each column's series through ``order`` at ``offset``, by the kernel
    the stepper evaluates it with."""
    h = stepper._horner(order)
    return [h(col, offset) for col in table]


def step_linearize(problem, state, theta, order, dt):
    """(residual, linearize) newton_solve gets for one step from state at
    t = 0.4: the residual function and the tangent kernel."""
    table = build_coeff_table(problem, 0.4, state.tolist(), order)
    known = horner(table, (1.0 - theta) * dt, order)
    residual = stepper._residual_function(problem, 0.4 + dt, known, theta,
                                          order, dt, order)[0]
    return residual, partial(problem.recurrence.tangent(order), 0.4 + dt,
                             -theta * dt, known)


def vdp_jacobian(y, eps=10.0):
    u, v = y
    return np.array([[0.0, 1.0], [-1.0 - 2.0 * eps * u * v, eps * (1.0 - u * u)]])


def robertson_jacobian(y):
    _, x2, x3 = y
    return np.array([[-0.04, 1e4 * x3, 1e4 * x2],
                     [0.04, -1e4 * x3 - 6e7 * x2, -1e4 * x2],
                     [0.0, 6e7 * x2, 0.0]])


class TestBatchedJacobian:
    """The Jacobian of the tangent kernel against hand-derived ones, and the
    complex-step oracle the tests compare that kernel with: its residual is
    the stepper's bit for bit, and Newton makes m complex calls per
    iteration with it."""

    @pytest.mark.parametrize("problem,f_y,state,dt", [
        (van_der_pol(10.0), vdp_jacobian, np.array([2.0, -0.5]), 0.05),
        (robertson_modified(), robertson_jacobian, np.array([0.7, 3e-5, 0.3]),
         2 ** -6),
    ], ids=["vanderpol", "robertson"])
    def test_matches_column_by_column(self, problem, f_y, state, dt):
        # At K = 1, theta = 1 the residual is y - dt f(y) - state, so its
        # Jacobian is I - dt f_y, here derived by hand column by column.
        residual, linearize = step_linearize(problem, state, 1.0, 1, dt)
        y = (state * 1.01).tolist()
        r, J = linearize(y)
        assert r == residual(y)
        J = np.array(J)
        ref = np.eye(len(y)) - dt * f_y(y)
        for j in range(len(y)):
            np.testing.assert_allclose(J[:, j], ref[:, j], rtol=1e-13, atol=0)

    @pytest.mark.parametrize("theta,order", [(0.5, 3), (0.5, 5), (1.0, 2)])
    def test_linear_jacobian_is_stability_denominator(self, theta, order):
        # For x' = A x the residual is T_K(-theta dt A) y - const, so its
        # Jacobian is the denominator of matrix_R.
        A = np.array([[-2.0, 1.0, 0.0], [0.5, -3.0, 0.2], [0.0, 4.0, -50.0]])
        dt = 0.1
        _, linearize = step_linearize(
            linear_system(A), np.array([1.0, -1.0, 0.5]), theta, order, dt)
        W = -theta * dt * A
        exact = sum(np.linalg.matrix_power(W, k) / math.factorial(k)
                    for k in range(order + 1))
        J = np.array(linearize([0.9, -1.1, 0.4])[1])
        np.testing.assert_allclose(J, exact, rtol=0, atol=1e-8 * np.abs(exact).max())

    # (problem, node time, node state, dt): every built-in problem, with
    # the states spread by a seeded factor, plus exact zeros in the state.
    REAL_PART_CASES = [
        (make_problem("dahlquist", lam=-2.0), 0.3, [1.3], 0.2),
        (make_problem("duffing"), 0.0, [0.5, 0.25], 0.1),
        (make_problem("robertson"), 1.2, [0.3, 2e-5, 0.7], 2 ** -5),
        (make_problem("robertson"), 0.0, [1.0, 0.0, 0.0], 2 ** -5),
        (make_problem("vanderpol"), 0.0, [2.0, -0.5], 0.05),
        (make_problem("vanderpol", epsilon=1000.0), 0.0, [-2.0, 0.3], 0.01),
        (make_problem("seir", eta=8.0), 70.0,
         [2.9e6, 4.1e4, 9.5e3, 2.2e4, 5.3e3, 2.2e4], 1.0),
        (make_problem("seir"), 0.0, [3e6 - 1.0, 1.0, 0.0, 0.0, 0.0, 0.0], 1.0),
        (linear_system([[-2.0, 1.0], [0.5, -3.0]]), 0.0, [0.8, -1.1], 0.1),
    ]

    @pytest.mark.parametrize("theta", [0.3, 0.5, 0.7, 1.0])
    @pytest.mark.parametrize("problem,t,state,dt", REAL_PART_CASES,
                             ids=["dahlquist", "duffing", "robertson",
                                  "robertson-start", "vdp10", "vdp1000",
                                  "seir-after-tc", "seir-start", "linear"])
    def test_complex_step_real_part_is_the_residual(self, problem, t, state,
                                                    dt, theta):
        """Re r(y + ih e_j) of the oracle's complex residual equals r(y) bit
        for bit, r the step's residual function, so the complex step's first
        residual is the stepper's.  The imaginary parts are h = 1e-30 times
        the real ones, so an imaginary-by-imaginary product term is about
        1e-60 relative to its real-by-real term, far below half an ulp: it
        never changes the rounded real part.  Sums and real scalings act on
        the two parts separately."""
        assert {p.name for p, *_ in self.REAL_PART_CASES} >= set(PROBLEM_NAMES)
        rng = np.random.default_rng(len(state) + int(10 * theta))
        for order in range(1, 10):
            for draw in range(3):
                # Draw 0 keeps the listed state, zeros included; the
                # trial states are the predictor and the node state.
                spread = 1.0 + 0.1 * rng.normal(size=len(state)) * (draw > 0)
                node = (np.array(state) * spread).tolist()
                table = build_coeff_table(problem, t, node, order)
                known = horner(table, (1.0 - theta) * dt, order)
                # Real calls build through X(K+2), as the step's do at
                # the central scheme with odd K.
                residual, _ = stepper._residual_function(
                    problem, t + dt, known, theta, order, dt, order + 2)
                oracle = complex_residual(problem, t + dt, known, theta,
                                          order, dt)
                for y in (horner(table, dt, order), node):
                    r = residual(y)
                    for j in range(len(y)):
                        point = list(map(complex, y))
                        point[j] += 1e-30j
                        c = oracle(point)
                        assert [v.real.hex() for v in c] == [v.hex() for v in r]

    def test_m_complex_calls_per_iteration(self, monkeypatch):
        # With the complex step as its linearize, Newton's first call is
        # column 0's complex one, whose real part is r(y), each iteration's
        # Jacobian takes m single-state complex calls, and the first LU
        # solve comes before any real call.
        calls = []

        def residual(y):
            calls.append(((len(y),), isinstance(y[0], complex)))
            return [v ** 2 - 4.0 for v in y]

        def solve(A, b):
            calls.append("lu")
            return lu_solve(A, b)

        monkeypatch.setattr(nonlinear, "lu_solve", solve)
        _, iters = newton(residual, [3.0, 1.0])
        assert iters >= 2
        assert calls[0] == ((2,), True)
        assert calls[:calls.index("lu")] == [((2,), True)] * 2
        assert [c for c in calls if c != "lu" and c[1]] == [((2,), True)] * (2 * iters)
