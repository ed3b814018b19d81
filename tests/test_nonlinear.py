"""Newton's rules and the partial-pivot LU elimination of the implicit step.

The LU cases compile the step kernel's elimination lines,
``stepper._lu_lines(n)``, into a function (``lu_solve`` below) and compare
it with the general elimination loop ``oracles.lu_solve_n`` bit for bit,
results and errors alike.  The Newton cases step declared problems through
``stepper._step``, each taking one of Newton's paths; the two rules that no
declaration reaches drive the step kernel with a scripted recurrence."""

import dataclasses
import math
from functools import cache, partial, reduce, wraps
from itertools import combinations
from operator import add

import numpy as np
import pytest

import oracles
from ieldtm import stepper
from ieldtm.errors import (NewtonFailureError, NonFiniteStateError,
                           SingularMatrixError)
from ieldtm.problems import (PROBLEM_NAMES, ProblemDefinition, dahlquist,
                             declare, linear_system, make_problem,
                             robertson_modified, van_der_pol)
from ieldtm.stepper import build_coeff_table
from oracles import complex_residual, complex_step, residual_function


@cache
def _elimination(n: int):
    N, join = range(n), ", ".join
    rows = join(f"[{join(f'a{i}_{j}' for j in N)}]" for i in N)
    lines = [f"[{rows}] = A", f"[{join(f'b{i}' for i in N)}] = b",
             *stepper._lu_lines(n), f"return [{join(f'x{i}' for i in N)}]"]
    namespace = {}
    exec("def lu(A, b):\n" + "".join(f"    {line}\n" for line in lines),
         vars(stepper), namespace)
    return namespace["lu"]


def lu_solve(A, b) -> list:
    """Solve A x = b by the step kernel's elimination at n = len(b): the
    lines ``stepper._lu_lines(n)``, compiled with the stepper's globals
    between an unpacking of A's n rows and b's n entries and the return of
    x0, ..., x{n-1}."""
    return _elimination(len(b))(A, b)


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
            # Each row's products added from the left, as the kernel does:
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


def outcome(solve, *args):
    """A solve's result as hex strings, or its exception's type and text."""
    try:
        return [v.hex() for v in solve(*args)]
    except (ArithmeticError, SingularMatrixError) as exc:
        return type(exc).__name__, str(exc)


def general(A, b):
    """The general elimination loop, the oracle, on a system of any size."""
    return outcome(oracles.lu_solve_n, [list(map(float, row)) for row in A],
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
    """The checks of the step kernel's elimination against the general
    elimination loop, bit for bit, results and errors alike, on n x n
    systems.  Most systems below are top-left n x n blocks of 6 x 6 ones."""

    n: int

    def assert_same(self, A, b):
        assert outcome(lu_solve, A, b) == general(A, b)

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


class TestLuSolve1x1(_LuChecks):
    """The n = 1 elimination against the general loop."""

    n = 1


class TestLuSolve2x2(_LuChecks):
    """The n = 2 elimination against the general loop."""

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


class TestLuSolve3x3(_LuChecks):
    """The n = 3 elimination against the general loop."""

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


class TestLuSolve4x4(_LuChecks):
    """The n = 4 elimination against the general loop."""

    n = 4


class TestLuSolve5x5(_LuChecks):
    """The n = 5 elimination against the general loop."""

    n = 5


class TestLuSolve6x6(_LuChecks):
    """The n = 6 elimination (SEIR) against the general loop."""

    n = 6


def declared(rhs, state, **params):
    """The problem of the declaration ``rhs`` from ``state``."""
    return ProblemDefinition(name=rhs.__name__.strip("_"),
                             recurrence=declare(rhs, **params),
                             default_initial=np.array(state))


def _square(x):
    return (x * x,)


def _riccati(x, c):
    # x' = x - x^2 - c, c held constant.
    return (x - x * x - c, 0.0 * c)


def _ripple(x, *, a, b):
    # x' = (a - b) x, each product rounded on its own.
    return (a * x - b * x,)


def counted(problem):
    """The problem with its recurrence wrapped, tangent kernel kept, and the
    list of the states the wrapper is called with."""
    recurrence, states = problem.recurrence, []

    @wraps(recurrence)
    def wrapper(t, state, depth):
        states.append(list(state))
        return recurrence(t, state, depth)

    return dataclasses.replace(problem, recurrence=wrapper), states


def step(problem, state, theta, order, dt):
    """``stepper._step`` from state at t = 0, from the node table integrate
    builds: (state, iterations, handed-on table)."""
    table = build_coeff_table(problem, 0.0, list(state),
                              stepper.theoretical_order(theta, order) + 1)
    return stepper._step(problem, 0.0, table, theta, order, dt)


def defect(problem, state, y, theta, order, dt):
    """The step's residual at the trial state y, for the step of dt from
    state at t = 0, by the tangent kernel."""
    table = build_coeff_table(problem, 0.0, list(state), order)
    h = stepper._horner(order)
    known = [h(col, (1.0 - theta) * dt) for col in table]
    return problem.recurrence.tangent(order)(dt, -theta * dt, known, y)[0]


def scripted(tables):
    """A recurrence the step kernel takes in place of a declared one, for
    paths no declaration reaches: the table of a state y is ``tables(y)``,
    whose X(0) is y, and its tangent kernel returns, as a declared one
    does, that table's series at the offset minus the known side, with the
    identity as the Jacobian.  Returns (recurrence, the list of the states
    the recurrence is called with)."""
    calls = []

    def recurrence(t, y, depth):
        calls.append(list(y))
        return tables(y)

    def tangent(order):
        h = stepper._horner(order)

        def kernel(t, offset, known, y):
            r = [h(col, offset) - k for col, k in zip(tables(y), known)]
            return r, [[float(i == j) for j in range(len(y))]
                       for i in range(len(y))]
        return kernel

    recurrence.tangent = tangent
    return recurrence, calls


# Backward Euler (theta = 1, K = 1) steps, whose residual is
# y - dt f(y) - x0, and a halved one: (problem, state, theta, K, dt).
AFFINE = (dahlquist(-3.0), [1.0], 1.0, 1, 0.25)
QUADRATIC = (declared(_square, [0.75]), [0.75], 1.0, 1, 0.25)
CONVERGED = (dahlquist(0.0), [1.0], 1.0, 1, 0.25)
COUPLED = (van_der_pol(10.0), [2.0, -0.5], 1.0, 1, 0.05)
DAMPED = (van_der_pol(10.0), [0.8110801522680295, 0.0], 1.0, 2,
          2.4161410676478856)


class TestNewtonSolve:
    """Newton's rules in the step kernel, one declared step per path."""

    def test_affine(self):
        root, iters, _ = step(*AFFINE)
        assert root[0] == pytest.approx(1.0 / 1.75)
        # One correction, then the floor confirms the root.
        assert iters <= 2

    def test_quadratic(self):
        # x' = x^2: y - y^2 / 4 = 0.75 has the roots 1 and 3; the
        # predictor 0.890625 lies next to 1.
        root, iters, _ = step(*QUADRATIC)
        assert root[0] == pytest.approx(1.0, abs=1e-10)
        assert iters <= 6

    def test_already_converged_guess(self):
        # x' = 0: the predictor is the root, and no table is built.
        assert step(*CONVERGED) == ([1.0], 0, None)

    def test_coupled_system(self):
        root, _, _ = step(*COUPLED)
        (u, v), (u0, v0), dt = root, COUPLED[1], COUPLED[4]
        r = [u - dt * v - u0, v - dt * (10.0 * (1.0 - u * u) * v - u) - v0]
        assert max(map(abs, r)) <= 1e-12

    def test_failure_reported(self, monkeypatch):
        # x' = x^2 from 1 at dt = 1: y - y^2 = 1 has no real root.
        monkeypatch.setattr(stepper, "_MAX_ITERS", 5)
        with pytest.raises(NewtonFailureError,
                           match="^no convergence in 5 iterations"):
            step(declared(_square, [1.0]), [1.0], 1.0, 1, 1.0)

    def test_singular_jacobian_after_first_iteration(self):
        # From x = 0, c = 1 at dt = 1 the residual is (x^2 + 1, 0), the
        # predictor -1, and the first update lands on x = 0, where the
        # Jacobian's first column 2x vanishes.
        with pytest.raises(NewtonFailureError,
                           match="singular Jacobian at iteration 2"):
            step(declared(_riccati, [0.0, 1.0]), [0.0, 1.0], 1.0, 1, 1.0)

    def test_stalled_residual_accepted_at_abs_tol(self, monkeypatch):
        # x' = 3000 x - 2999.5 x from 0.6 at dt = 1: the root is 1.2, but
        # the two products round apart, so the residual ripples by
        # multiples of 1.1e-13 that no iterate removes.  Once it is below
        # _ABS_TOL = 1e-12 and no longer falls fourfold per iteration, the
        # iterate is accepted, after 2 iterations, above the round-off
        # floor.  Without that rule the solve goes on to _MAX_ITERS, and
        # at _ABS_TOL = 1e-13 it fails.
        problem = declared(_ripple, [0.6], a=3000.0, b=2999.5)
        root, iters, _ = step(problem, [0.6], 1.0, 1, 1.0)
        assert iters == 2
        r = abs(defect(problem, [0.6], root, 1.0, 1, 1.0)[0])
        assert 100.0 * stepper._EPSILON * root[0] < r <= stepper._ABS_TOL
        monkeypatch.setattr(stepper, "_ABS_TOL", 1e-13)
        with pytest.raises(NewtonFailureError, match="^no convergence"):
            step(problem, [0.6], 1.0, 1, 1.0)

    def test_last_iteration_residual_tested(self, monkeypatch):
        # The one allowed iteration reaches _ABS_TOL with a large update:
        # x' = x^2 from 0.1 at dt = 0.5 leaves a residual of 1.6e-7.
        monkeypatch.setattr(stepper, "_ABS_TOL", 1e-6)
        monkeypatch.setattr(stepper, "_MAX_ITERS", 1)
        problem = declared(_square, [0.1])
        root, iters, _ = step(problem, [0.1], 1.0, 1, 0.5)
        assert abs(defect(problem, [0.1], root, 1.0, 1, 0.5)[0]) <= 1e-6
        assert iters == 1

    def test_damping_recovers_overshoot(self):
        # A stiff Van der Pol step whose full updates overshoot: some are
        # halved, and the solve still reaches the round-off floor.
        problem, states = counted(DAMPED[0])
        root, iters, _ = step(problem, *DAMPED[1:])
        # One call for the node table, one per trial.
        assert len(states) - 1 > iters
        r = defect(*DAMPED[:2], root, *DAMPED[2:])
        assert max(map(abs, r)) <= 1e-12 * max(1.0, max(map(abs, root)))

    @pytest.mark.parametrize("case,iters", [
        (AFFINE, 1), (QUADRATIC, 4), (CONVERGED, 0), (COUPLED, 3),
        (DAMPED, 19),
    ], ids=["affine", "quadratic", "converged", "coupled", "damping"])
    def test_iteration_counts(self, case, iters):
        # The counts of the cases above: the norm of each residual is taken
        # once and carried into the next iteration's tests.
        assert step(*case)[1] == iters

    def test_inf_residual_takes_every_halving(self):
        # The residual is 1 at the predictor 2 and inf at every other
        # state, whose table is finite but overflows its Horner sum: an
        # inf norm is never a decrease, so the update -1 is halved
        # _MAX_HALVINGS times and the last trial kept.  Its residual is
        # inf, so the next update is infinite; that iterate is X(0) of its
        # table and fails there, before any convergence test.
        def tables(y):
            return [[y[0], -1.0, 0.0] if y == [2.0] else [y[0], -1e308, 1e308]]

        recurrence, calls = scripted(tables)
        with pytest.raises(NonFiniteStateError):
            stepper._implicit_step(1, 2)(recurrence, 0.0, [[2.0, 0.0, 0.0]],
                                         1.0, 1.0)
        halvings = stepper._MAX_HALVINGS
        assert calls == [[2.0 - 0.5 ** k] for k in range(halvings + 1)] + [
            [-math.inf]]

    @pytest.mark.parametrize("where", [0, 1])
    def test_nan_residual_counts_as_growth(self, where):
        # A nan residual entry makes the norm nan wherever it sits (the
        # builtin max would skip it in second place and accept the
        # predictor at a zero norm).  Component ``where`` has a finite node
        # table whose known side overflows to inf and whose predictor's
        # series at -theta dt does too, so its residual is inf - inf; the
        # other component's residual is 0.  The nan enters the update, and
        # the trial fails in its table.
        def tables(y):
            return [[v, -1e308, 0.0] if i == where else [v, 0.0, 0.0]
                    for i, v in enumerate(y)]

        node = [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
        node[where] = [1.5e308, 1e308, -0.5e308]
        recurrence, calls = scripted(tables)
        with pytest.raises(NonFiniteStateError):
            stepper._implicit_step(2, 2)(recurrence, 0.0, node, 0.5, 2.0)
        assert len(calls) == 1 and math.isnan(calls[0][where])


def newton(residual, guess):
    """The oracle's Newton loop with the complex step of residual as its
    linearize."""
    return oracles.newton_solve(residual, guess,
                                partial(complex_step, residual))


def horner(table, offset, order):
    """Each column's series through ``order`` at ``offset``, by the kernel
    the stepper evaluates it with."""
    h = stepper._horner(order)
    return [h(col, offset) for col in table]


def step_linearize(problem, state, theta, order, dt):
    """(residual, linearize) of one step from state at t = 0.4: the step's
    residual function as it was composed (``oracles.residual_function``,
    which the generated step equals bit for bit) and the tangent
    kernel."""
    table = build_coeff_table(problem, 0.4, state.tolist(), order)
    known = horner(table, (1.0 - theta) * dt, order)
    residual = residual_function(problem, 0.4 + dt, known, theta, order, dt,
                                 order)[0]
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
    the step's (``oracles.residual_function``) bit for bit, and Newton
    makes m complex calls per iteration with it."""

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
        residual is the step's.  The imaginary parts are h = 1e-30 times
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
                residual, _ = residual_function(
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
            return lu_solve_n(A, b)

        lu_solve_n = oracles.lu_solve_n
        monkeypatch.setattr(oracles, "lu_solve_n", solve)
        _, iters = newton(residual, [3.0, 1.0])
        assert iters >= 2
        assert calls[0] == ((2,), True)
        assert calls[:calls.index("lu")] == [((2,), True)] * 2
        assert [c for c in calls if c != "lu" and c[1]] == [((2,), True)] * (2 * iters)
