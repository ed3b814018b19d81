"""Newton root-finder and partial-pivot LU solver."""

import math

import numpy as np
import pytest

from ieldtm.errors import NewtonFailureError, SingularMatrixError
from ieldtm.nonlinear import (
    NewtonConfig,
    _residual_and_jacobian,
    lu_solve,
    newton_solve,
)
from ieldtm.problems import linear_system, robertson_modified, van_der_pol
from ieldtm.stepper import build_coeff_table, implicit_residual


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


class TestNewtonSolve:
    def test_affine(self):
        root, iters = newton_solve(lambda y: y - 1.0, np.array([0.0]))
        assert root[0] == pytest.approx(1.0)
        # One correction plus one polish pass that confirms the floor.
        assert iters <= 2

    def test_quadratic(self):
        root, iters = newton_solve(lambda y: y ** 2 - 4.0, np.array([3.0]))
        assert root[0] == pytest.approx(2.0, abs=1e-10)
        assert iters <= 6

    def test_already_converged_guess(self):
        root, iters = newton_solve(lambda y: y - 1.0, np.array([1.0]))
        assert root[0] == 1.0
        assert iters == 0

    def test_coupled_system(self):
        def residual(y):
            return np.array([y[0] ** 2 + y[1] ** 2 - 2.0, y[0] - y[1]])

        root, _ = newton_solve(residual, np.array([2.0, 0.5]))
        np.testing.assert_allclose(root, [1.0, 1.0], atol=1e-10)

    def test_failure_reported(self):
        # No real root: residual cannot reach zero.
        cfg = NewtonConfig(max_iters=5)
        with pytest.raises(NewtonFailureError):
            newton_solve(lambda y: y ** 2 + 1.0, np.array([1.0]), cfg)

    def test_damping_recovers_overshoot(self):
        # Steep residual where a full Newton step overshoots badly.
        def residual(y):
            return np.arctan(y) * 10.0

        root, _ = newton_solve(residual, np.array([20.0]))
        assert abs(root[0]) <= 1e-10

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            NewtonConfig(abs_tol=0.0)
        with pytest.raises(ValueError):
            NewtonConfig(max_iters=0)


def step_residual(problem, state, theta, order, dt):
    """The implicit-step residual newton_solve sees for one step from state."""
    table = build_coeff_table(problem, 0.4, state, order)
    return lambda y: implicit_residual(problem, table, y, theta, order, dt)


def central_difference_columns(residual, y, eps):
    """Reference Jacobian: one pair of unbatched residual calls per column."""
    J = np.empty((y.size, y.size))
    for j in range(y.size):
        h = eps * max(1.0, abs(y[j]))
        yp, ym = y.copy(), y.copy()
        yp[j] += h
        ym[j] -= h
        J[:, j] = (residual(yp) - residual(ym)) / (2.0 * h)
    return J


class TestBatchedJacobian:
    @pytest.mark.parametrize("problem,state,dt", [
        (van_der_pol(10.0), np.array([2.0, -0.5]), 0.05),
        (robertson_modified(), np.array([0.7, 3e-5, 0.3]), 2 ** -6),
    ], ids=["vanderpol", "robertson"])
    def test_matches_column_by_column(self, problem, state, dt):
        residual = step_residual(problem, state, 0.5, 5, dt)
        eps = NewtonConfig().fd_epsilon
        y = state * 1.01
        r, J = _residual_and_jacobian(residual, y, eps)
        np.testing.assert_allclose(r, residual(y), rtol=1e-14, atol=1e-16)
        ref = central_difference_columns(residual, y, eps)
        # Batched and single residuals agree to a few ulps of the residual
        # scale, which the differences magnify by 1/h.
        tol = 10 * np.finfo(float).eps * max(1.0, np.abs(r).max()) / eps
        np.testing.assert_allclose(J, ref, rtol=0, atol=tol * np.abs(ref).max())

    @pytest.mark.parametrize("theta,order", [(0.5, 3), (0.5, 5), (1.0, 2)])
    def test_linear_jacobian_is_stability_denominator(self, theta, order):
        # For x' = A x the residual is T_K(-theta dt A) y - const, so its
        # Jacobian is the denominator of matrix_R.
        A = np.array([[-2.0, 1.0, 0.0], [0.5, -3.0, 0.2], [0.0, 4.0, -50.0]])
        dt = 0.1
        residual = step_residual(linear_system(A), np.array([1.0, -1.0, 0.5]),
                                 theta, order, dt)
        W = -theta * dt * A
        exact = sum(np.linalg.matrix_power(W, k) / math.factorial(k)
                    for k in range(order + 1))
        _, J = _residual_and_jacobian(residual, np.array([0.9, -1.1, 0.4]),
                                      NewtonConfig().fd_epsilon)
        np.testing.assert_allclose(J, exact, rtol=0, atol=1e-8 * np.abs(exact).max())

    def test_one_batched_call_per_iteration(self):
        # The first residual comes from the first batch, not its own call.
        shapes = []

        def residual(y):
            shapes.append(y.shape)
            return y ** 2 - 4.0

        _, iters = newton_solve(residual, np.array([3.0]))
        assert shapes[0] == (1, 3)
        assert [s for s in shapes if len(s) == 2] == [(1, 3)] * iters
