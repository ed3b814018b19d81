"""Single steps, residuals, adaptive step-size formulas and the drivers."""

import math

import numpy as np
import pytest

from ieldtm.errors import InvalidConfigurationError
from ieldtm.nonlinear import NewtonConfig
from ieldtm.problems import (
    SeirParams,
    dahlquist,
    duffing,
    linear_system,
    robertson_modified,
    seir,
    van_der_pol,
)
from ieldtm.stability import matrix_R, scalar_R
from ieldtm.stepper import (
    AdaptiveStep,
    FixedStep,
    SchemeConfig,
    adaptive_dt_case1,
    adaptive_dt_case2,
    build_coeff_table,
    explicit_step,
    implicit_residual,
    implicit_step,
    integrate,
    integrate_adaptive,
    integrate_fixed,
)
from ieldtm.taylor import CoeffTable


class TestBuildCoeffTable:
    def test_exponential(self):
        table = build_coeff_table(dahlquist(1.0), 0.0, [1.0], 3)
        np.testing.assert_allclose(table.coeffs[:, 0], [1, 1, 0.5, 1 / 6])

    def test_robertson_first_coefficient(self):
        table = build_coeff_table(robertson_modified(), 0.0, [1.0, 0.0, 0.0], 1)
        np.testing.assert_allclose(table.coeffs[1], [-1.0, 0.0, 1.0])

    def test_linear_diagonal(self):
        prob = linear_system(np.diag([-1.0, -2.0]))
        table = build_coeff_table(prob, 0.0, [1.0, 1.0], 2)
        np.testing.assert_allclose(table.coeffs[2], [0.5, 2.0])

    def test_depth_validated(self):
        with pytest.raises(ValueError):
            build_coeff_table(dahlquist(1.0), 0.0, [1.0], 0)

    def test_state_shape_validated(self):
        with pytest.raises(ValueError):
            build_coeff_table(duffing(), 0.0, [1.0], 2)
        with pytest.raises(ValueError):
            build_coeff_table(duffing(), 0.0, np.ones((2, 3, 1)), 2)

    def test_batched_residual_columns(self):
        prob = duffing()
        table = build_coeff_table(prob, 0.0, prob.default_initial, 3)
        trials = np.array([[0.5, 0.51, 0.49], [0.25, 0.26, 0.24]])
        r = implicit_residual(prob, table, trials, 0.5, 3, 0.1)
        assert r.shape == (2, 3)
        for b in range(3):
            single = implicit_residual(prob, table, trials[:, b], 0.5, 3, 0.1)
            np.testing.assert_allclose(r[:, b], single, rtol=1e-14, atol=1e-16)


class TestExplicitStep:
    def test_truncated_exponential(self):
        result = explicit_step(dahlquist(1.0), 0.0, [1.0], 2, 0.1)
        assert result[0] == pytest.approx(1.105)

    def test_k1_is_forward_euler(self):
        prob = linear_system(np.array([[0.0, 1.0], [-4.0, -1.0]]))
        x = np.array([1.0, -2.0])
        dt = 0.2
        result = explicit_step(prob, 0.0, x, 1, dt)
        euler = x + dt * (prob.linear_matrix @ x)
        np.testing.assert_allclose(result, euler, rtol=1e-15)

    def test_taylor_remainder_bound(self):
        result = explicit_step(dahlquist(-2.0), 0.0, [1.0], 8, 0.5)
        assert abs(result[0] - math.exp(-1.0)) <= 2.8e-6


class TestImplicitResidual:
    def test_zero_at_linear_fixed_point(self):
        lam, dt = -0.8, 0.3
        prob = dahlquist(lam)
        table = build_coeff_table(prob, 0.0, [1.0], 3)
        trial = np.array([scalar_R(lam * dt, 0.5, 3).real])
        r = implicit_residual(prob, table, trial, 0.5, 3, dt)
        assert abs(r[0]) <= 1e-13

    def test_crank_nicolson_root_is_zero(self):
        # (1 + z/2) / (1 - z/2) vanishes at z = -2
        prob = dahlquist(-2.0)
        table = build_coeff_table(prob, 0.0, [1.0], 1)
        r = implicit_residual(prob, table, np.array([0.0]), 0.5, 1, 1.0)
        assert abs(r[0]) <= 1e-14

    def test_small_dt_near_identity(self):
        prob = dahlquist(-1.0)
        table = build_coeff_table(prob, 0.0, [1.0], 2)
        r = implicit_residual(prob, table, np.array([1.0]), 0.5, 2, 1e-13)
        assert abs(r[0]) <= 1e-12


class TestImplicitStep:
    def test_backward_euler_recovered(self):
        lam, dt = -3.0, 0.25
        y, _ = implicit_step(dahlquist(lam), 0.0, [1.0], 1.0, 1, dt)
        assert y[0] == pytest.approx(1.0 / (1.0 - lam * dt), rel=1e-12)

    def test_matches_matrix_stability_function(self):
        A = np.array([[-2.0, 1.0], [0.5, -3.0]])
        x = np.array([1.0, -1.0])
        dt = 0.1
        for theta, order in ((0.5, 3), (1.0, 2)):
            y, _ = implicit_step(linear_system(A), 0.0, x, theta, order, dt)
            ref = matrix_R(theta, dt * A, order) @ x
            assert np.abs(y - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_duffing_local_error(self):
        prob = duffing()
        y, _ = implicit_step(prob, 0.0, prob.default_initial, 0.5, 3, 0.05)
        assert np.abs(y - prob.exact_solution(0.05)).max() <= 1e-9

    def test_requires_positive_theta(self):
        with pytest.raises(InvalidConfigurationError):
            implicit_step(dahlquist(-1.0), 0.0, [1.0], 0.0, 2, 0.1)


class TestAdaptiveFormulas:
    @staticmethod
    def table_with_lead(order, extra, lead):
        coeffs = np.zeros((order + extra + 1, 1))
        coeffs[0, 0] = 1.0
        coeffs[order + extra, 0] = lead
        return CoeffTable(0.0, coeffs)

    def test_case1_direct_value(self):
        table = self.table_with_lead(3, 1, 1.0)
        assert adaptive_dt_case1(table, 3, 1e-6) == pytest.approx(0.01)

    def test_case1_zero_coefficient_gives_dt_max(self):
        table = self.table_with_lead(3, 1, 0.0)
        assert adaptive_dt_case1(table, 3, 1e-6, dt_max=7.0) == 7.0

    def test_case1_tolerance_scaling(self):
        table = self.table_with_lead(4, 1, 0.3)
        base = adaptive_dt_case1(table, 4, 1e-7)
        doubled = adaptive_dt_case1(table, 4, 2e-7)
        assert doubled == pytest.approx(base * 2 ** 0.25)

    def test_case2_direct_value(self):
        # (1e-8 / ((1/2)^4 * 4))^(1/4) = (4e-8)^(1/4)
        table = self.table_with_lead(3, 2, 1.0)
        assert adaptive_dt_case2(table, 3, 1e-8) == pytest.approx(4e-8 ** 0.25)

    def test_case2_rejects_even_order(self):
        table = self.table_with_lead(4, 2, 1.0)
        with pytest.raises(InvalidConfigurationError):
            adaptive_dt_case2(table, 4, 1e-8)

    def test_case2_tolerance_scaling(self):
        table = self.table_with_lead(5, 2, 2.0)
        base = adaptive_dt_case2(table, 5, 1e-9)
        halved = adaptive_dt_case2(table, 5, 5e-10)
        assert halved == pytest.approx(base * 0.5 ** (1.0 / 6.0))


class TestIntegrateFixed:
    def test_duffing_high_order_error(self):
        prob = duffing()
        cfg = SchemeConfig(0.5, 5, FixedStep(0.05))
        trace = integrate_fixed(prob, cfg, 1.0)
        assert trace.status == "completed"
        assert trace.max_error(prob.exact_solution) <= 1e-9

    def test_stiff_mode_damped(self):
        cfg = SchemeConfig(0.5, 2, FixedStep(0.1))
        trace = integrate_fixed(dahlquist(-1e6), cfg, 1.0)
        mags = np.abs(trace.states[:, 0])
        assert (np.diff(mags) <= 0).all()

    def test_lands_exactly_on_t_final(self):
        cfg = SchemeConfig(1.0, 2, FixedStep(0.3))
        trace = integrate_fixed(dahlquist(-1.0), cfg, 1.0)
        assert trace.times[-1] == pytest.approx(1.0, abs=1e-14)

    def test_times_strictly_increasing(self):
        cfg = SchemeConfig(0.0, 3, FixedStep(0.1))
        trace = integrate_fixed(dahlquist(-1.0), cfg, 1.0)
        assert (np.diff(trace.times) > 0).all()
        assert trace.times[0] == 0.0

    def test_rejects_adaptive_mode(self):
        cfg = SchemeConfig(0.5, 3, AdaptiveStep(1e-8))
        with pytest.raises(InvalidConfigurationError):
            integrate_fixed(dahlquist(-1.0), cfg, 1.0)


class TestIntegrateAdaptive:
    def test_duffing_tracks_tolerance(self):
        prob = duffing()
        for order in (3, 5):
            cfg = SchemeConfig(0.5, order, AdaptiveStep(1e-10))
            trace = integrate_adaptive(prob, cfg, 1.0)
            assert trace.status == "completed"
            assert trace.max_error(prob.exact_solution) <= 100 * 1e-10

    def test_newton_iterations_stay_small(self):
        prob = duffing()
        cfg = SchemeConfig(0.5, 5, AdaptiveStep(1e-10))
        trace = integrate_adaptive(prob, cfg, 1.0)
        assert max(r.newton_iters for r in trace.records) <= 10

    def test_seir_discontinuity_node_placed(self):
        prob = seir(SeirParams(eta=6.0))
        cfg = SchemeConfig(0.5, 6, AdaptiveStep(1e-5))
        trace = integrate_adaptive(prob, cfg, 80.0)
        assert trace.status == "completed"
        assert np.abs(trace.times - 66.0).min() <= 1e-9

    def test_intermediate_theta_unsupported(self):
        cfg = SchemeConfig(0.75, 3, AdaptiveStep(1e-8))
        with pytest.raises(InvalidConfigurationError):
            integrate_adaptive(dahlquist(-1.0), cfg, 1.0)

    def test_explicit_adaptive_runs(self):
        cfg = SchemeConfig(0.0, 4, AdaptiveStep(1e-8))
        trace = integrate_adaptive(dahlquist(-1.0), cfg, 1.0)
        assert trace.status == "completed"
        assert abs(trace.final_state[0] - math.exp(-1.0)) <= 1e-6


class TestSchemeConfigValidation:
    def test_theta_range(self):
        with pytest.raises(ValueError):
            SchemeConfig(1.5, 3, FixedStep(0.1))

    def test_order_positive(self):
        with pytest.raises(ValueError):
            SchemeConfig(0.5, 0, FixedStep(0.1))

    def test_step_mode_validation(self):
        with pytest.raises(ValueError):
            FixedStep(0.0)
        with pytest.raises(ValueError):
            AdaptiveStep(1e-8, safety=1.5)


class TestStepFailureStatus:
    """A failed step ends the trace with a typed status, keeping the records
    before it; integrate() neither raises nor warns."""

    def test_non_finite_state(self):
        # eps = 1000 with dt = 0.5 overflows the node table at t = 1.
        cfg = SchemeConfig(0.5, 5, FixedStep(0.5))
        trace = integrate(van_der_pol(1000.0), cfg, 5.0)
        assert trace.status == "non-finite-state"
        assert trace.times.tolist() == [0.0, 0.5]
        assert np.isfinite(trace.states).all()

    def test_singular_matrix(self):
        # Backward Euler on x' = x with dt = 1: the Newton matrix 1 - dt is 0.
        trace = integrate(dahlquist(1.0), SchemeConfig(1.0, 1, FixedStep(1.0)), 2.0)
        assert trace.status == "singular-matrix"
        assert trace.steps == 0

    def test_newton_failure(self):
        cfg = SchemeConfig(0.5, 3, AdaptiveStep(1e-8),
                           newton=NewtonConfig(max_iters=1))
        trace = integrate(duffing(), cfg, 1.0)
        assert trace.status == "newton-failure"
        assert trace.steps == 0


class TestIntegrateDispatch:
    def test_dispatches_on_mode(self):
        fixed = integrate(dahlquist(-1.0), SchemeConfig(0.5, 3, FixedStep(0.1)), 1.0)
        adaptive = integrate(dahlquist(-1.0),
                             SchemeConfig(0.5, 3, AdaptiveStep(1e-8)), 1.0)
        assert fixed.status == adaptive.status == "completed"
        assert fixed.steps == 10
