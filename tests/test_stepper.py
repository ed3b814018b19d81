"""Single steps, residuals, adaptive step-size formulas and the drivers."""

import dataclasses
import io
import math
from collections import namedtuple
from operator import mul

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ieldtm import nonlinear, stepper
from ieldtm.bench import write_csv, write_trace_csv
from ieldtm.errors import NonFiniteStateError, SingularMatrixError
from ieldtm.problems import (
    ProblemDefinition,
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
    build_coeff_table,
    integrate,
)


def coeff_array(table):
    """A coefficient table as a (depth+1, dim) array: row k is X(k)."""
    return np.array(table).T


def horner(table, offset, order):
    """Each column's series through ``order`` at ``offset``, by the kernel
    ``stepper._horner(order)``."""
    h = stepper._horner(order)
    return [h(col, offset) for col in table]


def step_residual(problem, state, trial, theta, order, dt):
    """The implicit-step defect of a trial state for one step of dt from
    state at t = 0."""
    table = build_coeff_table(problem, 0.0, state, order)
    known = horner(table, (1.0 - theta) * dt, order)
    residual, _ = stepper._residual_function(problem, dt, known, theta, order,
                                             dt, order)
    return residual(trial)


def one_step(problem, state, theta, order, dt):
    """The state after one fixed step of dt from state at t = 0."""
    cfg = SchemeConfig(theta, order, FixedStep(dt))
    return integrate(problem, cfg, dt, state).final_state


def quadratic_blowup():
    """x' = x^2, x(0) = 1: backward Euler with dt = 1 needs y - y^2 = 1,
    which has no real root."""
    def recurrence(t, table, depth):
        x, = table
        for k in range(depth):
            x.append(sum(map(mul, x, reversed(x))) / (k + 1))

    return ProblemDefinition(name="quadratic", dim=1, recurrence=recurrence,
                             default_initial=np.array([1.0]))


class TestBuildCoeffTable:
    def test_exponential(self):
        table = coeff_array(build_coeff_table(dahlquist(1.0), 0.0, [1.0], 3))
        np.testing.assert_allclose(table[:, 0], [1, 1, 0.5, 1 / 6])

    def test_robertson_first_coefficient(self):
        table = coeff_array(
            build_coeff_table(robertson_modified(), 0.0, [1.0, 0.0, 0.0], 1))
        np.testing.assert_allclose(table[1], [-1.0, 0.0, 1.0])

    def test_linear_diagonal(self):
        prob = linear_system(np.diag([-1.0, -2.0]))
        table = coeff_array(build_coeff_table(prob, 0.0, [1.0, 1.0], 2))
        np.testing.assert_allclose(table[2], [0.5, 2.0])

    def test_depth_validated(self):
        with pytest.raises(ValueError):
            build_coeff_table(dahlquist(1.0), 0.0, [1.0], 0)

    def test_state_shape_validated(self):
        # The state is a list of exactly dim numbers.
        for state in ([1.0], [1.0, 2.0, 3.0]):
            with pytest.raises(ValueError, match="state must have 2 entries"):
                build_coeff_table(duffing(), 0.0, state, 2)

    @pytest.mark.parametrize("state", [[1e308, 1e308],
                                       [1e308 + 1e308j, 1e308 + 1e308j]],
                             ids=["real", "complex"])
    def test_finite_table_with_overflowing_sum(self, state):
        # The entries' sum overflows, but every entry is finite.
        table = build_coeff_table(linear_system(np.zeros((2, 2))), 0.0, state, 2)
        assert table == [[state[0], 0.0, 0.0], [state[1], 0.0, 0.0]]


class TestCoeffTable:
    """A coefficient table is a list of per-component lists of floats."""

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteStateError,
                           match=r"^non-finite Taylor coefficient at t = 0\.0$"):
            build_coeff_table(dahlquist(1.0), 0.0, [np.nan], 1)


class TestHornerEval:
    def test_truncated_exponential(self):
        table = [[1.0, 1.0, 0.5]]
        value = horner(table, 0.1, 2)
        assert value[0] == pytest.approx(1.105)

    def test_zero_offset_returns_state(self):
        table = [[4.0, 1.0, 9.0]]
        assert horner(table, 0.0, 2)[0] == 4.0

    def test_alternating_series(self):
        # e^(-t) truncated: 1 - 1 + 1/2 at offset 1
        table = [[1.0, -1.0, 0.5]]
        assert horner(table, 1.0, 2)[0] == pytest.approx(0.5)

    @given(st.lists(st.floats(min_value=-3, max_value=3, allow_nan=False),
                    min_size=1, max_size=13),
           st.floats(min_value=-2, max_value=2, allow_nan=False))
    def test_matches_naive_power_sum(self, coeffs, offset):
        table = [coeffs]
        order = len(coeffs) - 1
        naive = sum(c * offset ** k for k, c in enumerate(coeffs))
        value = horner(table, offset, order)[0]
        assert value == pytest.approx(naive, abs=1e-10 * (1 + abs(naive)))


def horner_loop(table, offset, order):
    """The Horner loop the stepper ran before its generated kernels,
    verbatim: the oracle of their bits."""
    values = []
    for col in table:
        acc = col[order]
        for c in col[order - 1::-1] if order else ():
            acc = acc * offset + c
        values.append(acc)
    return values


def kernel_columns(order, rng):
    """Float and complex columns through ``order`` plus two entries the
    kernel must not read, with signed zeros, infinities and nans among
    them."""
    n = order + 3
    finite = rng.normal(size=n).tolist()
    zeros = [(-1.0) ** k * 0.0 for k in range(n)]
    special = list(finite)
    special[0], special[order // 2], special[order] = -0.0, math.inf, -0.0
    with_nan = list(finite)
    with_nan[order] = math.nan
    floats = [finite, zeros, [-0.0] * n, special, with_nan]
    spread = rng.normal(size=n).tolist()
    tiny = [complex(x, 1e-30 * y) for x, y in zip(finite, spread)]
    signed = [complex(-0.0 if k % 2 else 0.0, -0.0) for k in range(n)]
    odd = list(tiny)
    odd[order // 2] = complex(math.inf, 1.0)
    odd[0] = complex(math.nan, 0.0)
    return floats + [tiny, signed, odd]


class TestHornerKernelBits:
    """The generated kernels make the loop's operations in its order: every
    value keeps its bits, sign of zero included."""

    OFFSETS = (0.0, -0.0, 0.7, -1.3, 2.0 ** -7, 1e300, -math.inf, math.nan,
               0.5 + 1e-30j, complex(-0.0, 0.0))

    @pytest.mark.parametrize("order", list(range(13)) + [95, 171, 250])
    def test_repr_equals_loop(self, order):
        rng = np.random.default_rng(order)
        table = kernel_columns(order, rng)
        kernel = stepper._horner(order)
        for offset in self.OFFSETS:
            expected = repr(horner_loop(table, offset, order))
            assert repr([kernel(col, offset) for col in table]) == expected

    def test_kernel_generated_once_per_order(self):
        assert stepper._horner(7) is stepper._horner(7)
        assert stepper._horner(7) is not stepper._horner(8)


class TestResidualFunctionBits:
    """The residual function an implicit step builds and the defect written
    out from ``build_coeff_table`` and the Horner loop agree bit for bit, at
    real and at complex-step points."""

    CASES = [
        (van_der_pol(10.0), 0.3, [1.8, -0.7], 5, 0.05),
        (robertson_modified(), 0.4, [0.67, 2e-5, 0.33], 5, 2.0 ** -6),
        (seir(eta=6.0), 12.0, [0.6, 0.1, 0.1, 0.1, 0.05, 0.05], 6, 0.4),
    ]

    @pytest.mark.parametrize("theta", [0.5, 1.0, 0.3])
    @pytest.mark.parametrize("problem, t, state, order, dt", CASES,
                             ids=["vanderpol", "robertson", "seir"])
    def test_defect_and_table_bits(self, problem, t, state, order, dt, theta):
        table = build_coeff_table(problem, t, state, order)
        known = horner_loop(table, (1.0 - theta) * dt, order)
        residual, last = stepper._residual_function(problem, t + dt, known,
                                                    theta, order, dt, order)
        predictor = horner_loop(table, dt, order)
        points = [predictor, state]
        for j in range(problem.dim):
            point = list(map(complex, predictor))
            point[j] += 1e-30j
            points.append(point)
        for y in points:
            trial = build_coeff_table(problem, t + dt, y, order)
            oracle = [a - b for a, b in zip(
                horner_loop(trial, -theta * dt, order), known)]
            r = residual(y)
            assert last[0] is y and repr(last[1]) == repr(trial)
            assert repr(r) == repr(oracle)


class TestExplicitStep:
    def test_truncated_exponential(self):
        result = one_step(dahlquist(1.0), [1.0], 0.0, 2, 0.1)
        assert result[0] == pytest.approx(1.105)

    def test_k1_is_forward_euler(self):
        A = np.array([[0.0, 1.0], [-4.0, -1.0]])
        x = np.array([1.0, -2.0])
        dt = 0.2
        result = one_step(linear_system(A), x, 0.0, 1, dt)
        euler = x + dt * (A @ x)
        np.testing.assert_allclose(result, euler, rtol=1e-15)

    def test_taylor_remainder_bound(self):
        result = one_step(dahlquist(-2.0), [1.0], 0.0, 8, 0.5)
        assert abs(result[0] - math.exp(-1.0)) <= 2.8e-6


class TestImplicitResidual:
    def test_zero_at_linear_fixed_point(self):
        lam, dt = -0.8, 0.3
        trial = [scalar_R(lam * dt, 0.5, 3).real]
        r = step_residual(dahlquist(lam), [1.0], trial, 0.5, 3, dt)
        assert abs(r[0]) <= 1e-13

    def test_crank_nicolson_root_is_zero(self):
        # (1 + z/2) / (1 - z/2) vanishes at z = -2
        r = step_residual(dahlquist(-2.0), [1.0], [0.0], 0.5, 1, 1.0)
        assert abs(r[0]) <= 1e-14

    def test_small_dt_near_identity(self):
        r = step_residual(dahlquist(-1.0), [1.0], [1.0], 0.5, 2, 1e-13)
        assert abs(r[0]) <= 1e-12


class TestImplicitStep:
    def test_backward_euler_recovered(self):
        lam, dt = -3.0, 0.25
        y = one_step(dahlquist(lam), [1.0], 1.0, 1, dt)
        assert y[0] == pytest.approx(1.0 / (1.0 - lam * dt), rel=1e-12)

    def test_matches_matrix_stability_function(self):
        A = np.array([[-2.0, 1.0], [0.5, -3.0]])
        x = np.array([1.0, -1.0])
        dt = 0.1
        for theta, order in ((0.5, 3), (1.0, 2)):
            y = one_step(linear_system(A), x, theta, order, dt)
            ref = matrix_R(theta, dt * A, order) @ x
            assert np.abs(y - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_duffing_local_error(self):
        prob = duffing()
        y = one_step(prob, prob.default_initial, 0.5, 3, 0.05)
        assert np.abs(y - prob.exact_solution(0.05)).max() <= 1e-9


# The two step controllers and the error estimate as integrate called them
# before the run fixed its error rule once, kept verbatim as the oracle of
# that rule, with the march that chose between the controllers.
def adaptive_dt_case1(table: list, order: int, tol: float,
                      safety: float = 1.0, *, peak=None) -> float:
    if len(table[0]) < order + 2:
        raise IndexError("table must hold coefficients through K+1")
    lead, power = _leading_term(table, 1.0, order, peak)
    if lead == 0.0:
        return math.inf
    return safety * (tol / lead) ** (1.0 / (power - 1))


def adaptive_dt_case2(table: list, order: int, tol: float,
                      safety: float = 1.0, *, peak=None) -> float:
    if order % 2 == 0:
        raise ValueError("case-2 controller requires odd order")
    if len(table[0]) < order + 3:
        raise IndexError("table must hold coefficients through K+2")
    lead, power = _leading_term(table, 0.5, order, peak)
    if lead == 0.0:
        return math.inf
    return safety * (tol / lead) ** (1.0 / (power - 1))


def _leading_term(table: list, theta: float, order: int, peak=None):
    power = stepper.theoretical_order(theta, order) + 1
    if power == order + 2:
        weight = 0.5 ** (order + 1) * (order + 1)
    else:
        weight = abs((1.0 - theta) ** power - (-theta) ** power)
    if peak is None:
        peak = _peak(table, power)
    return weight * peak, power


def _peak(table: list, power: int) -> float:
    return max(abs(col[power]) for col in table)


def _local_error_estimate(table: list, theta: float, order: int,
                          dt: float, *, peak=None) -> float:
    lead, power = _leading_term(table, theta, order, peak)
    if lead == 0.0:
        return 0.0
    try:
        return lead * dt ** power
    except OverflowError:  # a float power raises where a product gives inf
        return math.inf


def oracle_integrate(problem, config, t_final):
    """integrate with the two controllers and the separate estimate, and
    every node table a fresh build."""
    mode, theta, order = config.step_mode, config.theta, config.order
    adaptive = isinstance(mode, AdaptiveStep)
    if adaptive:
        controller = (adaptive_dt_case2
                      if stepper.theoretical_order(theta, order) > order
                      else adaptive_dt_case1)
    state = np.asarray(problem.default_initial, dtype=float).tolist()
    times, states, dts, iterations, estimates = [0.0], [state], [0.0], [0], [0.0]
    t, status, failure = 0.0, "completed", ""
    depth = stepper.theoretical_order(theta, order) + 1
    eps_end = 1e-12 * max(1.0, t_final)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            while t < t_final - eps_end:
                dt = None
                table = build_coeff_table(problem, t, state, depth)
                peak = _peak(table, depth)
                if adaptive:
                    dt = controller(table, order, mode.tol, mode.safety,
                                    peak=peak)
                    if dt < mode.dt_min:
                        status = "min-step-underflow"
                        failure = stepper._failure_context(
                            t, dt, f"proposed dt below dt_min = {mode.dt_min!r}")
                        break
                else:
                    dt = mode.dt
                dt, t_next = stepper._clip_to_events(t, dt, t_final,
                                                     problem.discontinuities)
                est = _local_error_estimate(table, theta, order, dt, peak=peak)
                state, iters, _ = stepper._step(problem, t, table, theta,
                                                order, dt)
                t = t_next
                times.append(t)
                states.append(state)
                dts.append(dt)
                iterations.append(iters)
                estimates.append(est)
        except tuple(stepper._FAILURE_STATUS) as exc:
            status = stepper._FAILURE_STATUS[type(exc)]
            failure = stepper._failure_context(t, dt, exc)
    return stepper.SolutionTrace(problem.name, config, times, states, dts,
                                 iterations, estimates, status, failure)


# tol = 10^-(K+2), at most 1e-8, keeps every run within 1 200 steps.
_ORACLE_RUNS = [
    pytest.param(prob, SchemeConfig(theta, order,
                                    AdaptiveStep(10.0 ** -min(order + 2, 8))),
                 2.0, id=f"{name}-theta{theta}-K{order}")
    for name, prob in (("duffing", duffing()), ("vanderpol", van_der_pol(10.0)))
    for theta in (0.0, 0.5, 1.0)
    for order in (1, 2, 3, 4, 5, 6, 9)
] + [
    pytest.param(seir(eta=6.0), SchemeConfig(0.5, order, AdaptiveStep(1e-5)),
                 80.0, id=f"seir-K{order}")
    for order in (6, 8)
] + [
    pytest.param(robertson_modified(), SchemeConfig(0.5, 7, FixedStep(2.0 ** -4)),
                 4.0, id="robertson-fixed-newton-failure"),
    pytest.param(robertson_modified(), SchemeConfig(0.5, 7, AdaptiveStep(1e-5)),
                 4.0, id="robertson-adaptive-newton-failure"),
    pytest.param(duffing(), SchemeConfig(0.3, 4, FixedStep(0.1)), 1.0,
                 id="duffing-fixed-theta0.3"),
    pytest.param(dahlquist(0.0), SchemeConfig(0.5, 3, AdaptiveStep(1e-8)), 2.0,
                 id="dahlquist-zero-lead"),
    pytest.param(dahlquist(-1.0), SchemeConfig(0.5, 3,
                                               AdaptiveStep(1e-8, dt_min=0.5)),
                 1.0, id="dahlquist-min-step-underflow"),
]


def first_node(prob, cfg):
    """The first step's dt and error estimate of a run to t = 1e6, stopped
    at its second step."""
    step, calls = stepper._step, []

    def once(*args):
        if calls:
            raise SingularMatrixError("stopped after the first step")
        calls.append(args)
        return step(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stepper, "_step", once)
        trace = integrate(prob, cfg, 1e6)
    assert trace.steps == 1 and trace.status == "singular-matrix"
    return trace.dts_used[1], trace.error_estimates[1]


class TestErrorRuleBitsKept:
    """integrate reads the run's error rule inline; every trace equals the
    one the two controllers and the separate estimate gave, bit for bit."""

    @pytest.mark.parametrize("prob, cfg, t_final", _ORACLE_RUNS)
    def test_trace_equals_oracle(self, prob, cfg, t_final):
        new = integrate(prob, cfg, t_final)
        old = oracle_integrate(prob, cfg, t_final)
        assert (new.status, new.failure) == (old.status, old.failure)
        for column in ("node_times", "node_states", "dts_used",
                       "error_estimates"):
            assert np.array(getattr(new, column)).tobytes() == \
                np.array(getattr(old, column)).tobytes(), column
        assert new.newton_iters == old.newton_iters


class TestAdaptiveFormulas:
    """The run's error rule, (power, estimate weight, controller weight),
    and the step proposals integrate makes from it."""

    @staticmethod
    def first_dt(prob, theta, order, tol, safety=1.0):
        cfg = SchemeConfig(theta, order, AdaptiveStep(tol, safety=safety))
        return first_node(prob, cfg)[0]

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6, 9])
    def test_rule_weights(self, order):
        for theta in (0.0, 1.0):
            assert stepper._error_rule(theta, order) == (order + 1, 1.0, 1.0)
        central = stepper._error_rule(0.5, order)
        if order % 2:
            weight = 0.5 ** (order + 1) * (order + 1)
            assert central == (order + 2, weight, weight)
        else:
            assert central == (order + 1, 0.5 ** order, 1.0)
        assert stepper._error_rule(0.3, order) == (
            order + 1, abs(0.7 ** (order + 1) - (-0.3) ** (order + 1)), 1.0)

    def test_case1_direct_value(self):
        # x' = x from 1: X(4) = 1/24, dt = (tol / (1/24))^(1/3).
        dt = self.first_dt(dahlquist(1.0), 1.0, 3, 1e-6 / 24)
        assert dt == pytest.approx(0.01)

    def test_case1_zero_coefficient_gives_inf(self):
        # A zero lead proposes an unbounded step, shortened to land on
        # t_final: one step, with estimate 0.
        for theta, order in ((0.0, 3), (0.5, 4), (1.0, 4), (0.5, 3)):
            cfg = SchemeConfig(theta, order, AdaptiveStep(1e-8))
            trace = integrate(dahlquist(0.0), cfg, 2.5)
            assert trace.status == "completed"
            assert trace.dts_used == [0.0, 2.5]
            assert trace.error_estimates == [0.0, 0.0]

    def test_case1_tolerance_scaling(self):
        prob = van_der_pol(10.0)
        for theta in (0.0, 0.5, 1.0):
            base = self.first_dt(prob, theta, 4, 1e-7, 0.9)
            doubled = self.first_dt(prob, theta, 4, 2e-7, 0.9)
            assert doubled == pytest.approx(base * 2 ** 0.25)

    def test_case2_direct_value(self):
        # x' = x from 1: the lead is (1/2)^4 * 4 * X(5) = 1/480, so
        # dt = (tol * 480)^(1/4).
        dt = self.first_dt(dahlquist(1.0), 0.5, 3, 1e-8)
        assert dt == pytest.approx((1e-8 * 480) ** 0.25)

    def test_case2_rejects_even_order(self):
        # The central scheme with even K has no order gain; it steers by
        # the unweighted lead, as theta in {0, 1} does.
        for order in (2, 4, 6):
            power, _, ctrl_weight = stepper._error_rule(0.5, order)
            assert (power, ctrl_weight) == (order + 1, 1.0)

    def test_case2_tolerance_scaling(self):
        prob = van_der_pol(10.0)
        base = self.first_dt(prob, 0.5, 5, 1e-9, 0.9)
        halved = self.first_dt(prob, 0.5, 5, 5e-10, 0.9)
        assert halved == pytest.approx(base * 0.5 ** (1.0 / 6.0))

    @pytest.mark.parametrize("order", [4, 6])
    def test_case1_lead_is_2_to_the_K_of_the_central_estimate(self, order):
        # At theta = 0.5 with even K the estimate weights ||X(K+1)|| by
        # 0.5^K while the controller steers by it unweighted; at theta in
        # {0, 1} both weights are 1.  The first node's table does not depend
        # on theta, and all factors are powers of two, so equality is exact.
        prob = van_der_pol(10.0)
        nodes = {theta: first_node(prob, SchemeConfig(theta, order,
                                                      AdaptiveStep(1e-8)))
                 for theta in (0.0, 0.5, 1.0)}
        dt, central = nodes[0.5]
        for theta in (0.0, 1.0):
            assert nodes[theta] == (dt, 2 ** order * central)
        table = build_coeff_table(prob, 0.0, prob.default_initial.tolist(),
                                  order + 1)
        lead = max(abs(col[order + 1]) for col in table)
        assert dt == 0.9 * (1e-8 / lead) ** (1.0 / order)
        assert central == 0.5 ** order * lead * dt ** (order + 1)


class TestIntegrateFixed:
    def test_duffing_high_order_error(self):
        prob = duffing()
        cfg = SchemeConfig(0.5, 5, FixedStep(0.05))
        trace = integrate(prob, cfg, 1.0)
        assert trace.status == "completed"
        assert trace.max_error(prob.exact_solution) <= 1e-9

    def test_stiff_mode_damped(self):
        cfg = SchemeConfig(0.5, 2, FixedStep(0.1))
        trace = integrate(dahlquist(-1e6), cfg, 1.0)
        mags = np.abs(trace.states[:, 0])
        assert (np.diff(mags) <= 0).all()

    def test_lands_exactly_on_t_final(self):
        cfg = SchemeConfig(1.0, 2, FixedStep(0.3))
        trace = integrate(dahlquist(-1.0), cfg, 1.0)
        assert trace.times[-1] == pytest.approx(1.0, abs=1e-14)

    def test_times_strictly_increasing(self):
        cfg = SchemeConfig(0.0, 3, FixedStep(0.1))
        trace = integrate(dahlquist(-1.0), cfg, 1.0)
        assert (np.diff(trace.times) > 0).all()
        assert trace.times[0] == 0.0

    def test_seir_discontinuity_node_placed(self):
        # 66 is not a multiple of dt: the step before t_c is shortened.
        prob = seir(eta=6.0)
        cfg = SchemeConfig(0.5, 6, FixedStep(0.7))
        trace = integrate(prob, cfg, 80.0)
        assert trace.status == "completed"
        assert np.abs(trace.times - 66.0).min() <= 1e-9

    def test_discontinuity_reached_by_rounding_drift(self):
        # 220 steps of 0.3 accumulate to 65.99999999999973, 2.7e-13 short of
        # t_c = 66: that step ends exactly on t_c, as a mesh of 0.25 does,
        # so no step runs past t_c at the pre-switch rate and the two runs
        # agree to the Taylor error (1.0e4 people apart otherwise).
        prob = seir(eta=8.0)
        coarse = integrate(prob, SchemeConfig(0.0, 8, FixedStep(0.3)), 86.0)
        fine = integrate(prob, SchemeConfig(0.0, 8, FixedStep(0.25)), 86.0)
        assert coarse.status == fine.status == "completed"
        assert 66.0 in coarse.node_times and 66.0 in fine.node_times
        i = coarse.node_times.index(66.0)
        assert coarse.dts_used[i] == 66.0 - coarse.node_times[i - 1]
        assert np.abs(coarse.final_state - fine.final_state).max() <= 1e-3

    @pytest.mark.parametrize("order,dt,steps", [
        (5, 2 ** -4, 64), (6, 2 ** -5, 128), (7, 2 ** -6, 256)])
    def test_robertson_coarse_steps_complete(self, order, dt, steps):
        # Stiff cells beyond the table4 grid: Newton converges on every step
        # only with an accurate Jacobian of the 3e7 x2^2 reaction term.
        prob = robertson_modified()
        trace = integrate(prob, SchemeConfig(0.5, order, FixedStep(dt)), 4.0)
        assert trace.status == "completed"
        assert trace.steps == steps
        assert trace.max_error(prob.exact_solution) <= 1e-11


class TestIntegrateAdaptive:
    def test_duffing_tracks_tolerance(self):
        prob = duffing()
        for order in (3, 5):
            cfg = SchemeConfig(0.5, order, AdaptiveStep(1e-10))
            trace = integrate(prob, cfg, 1.0)
            assert trace.status == "completed"
            assert trace.max_error(prob.exact_solution) <= 100 * 1e-10

    def test_newton_iterations_stay_small(self):
        prob = duffing()
        cfg = SchemeConfig(0.5, 5, AdaptiveStep(1e-10))
        trace = integrate(prob, cfg, 1.0)
        assert max(trace.newton_iters) <= 10

    def test_seir_discontinuity_node_placed(self):
        prob = seir(eta=6.0)
        cfg = SchemeConfig(0.5, 6, AdaptiveStep(1e-5))
        trace = integrate(prob, cfg, 80.0)
        assert trace.status == "completed"
        assert np.abs(trace.times - 66.0).min() <= 1e-9

    def test_intermediate_theta_unsupported(self):
        # Refused when the config is built, before any run.
        with pytest.raises(ValueError, match=r"theta in \{0, 0.5, 1\}"):
            SchemeConfig(0.75, 3, AdaptiveStep(1e-8))
        assert SchemeConfig(0.75, 3, FixedStep(0.1)).theta == 0.75

    def test_min_step_underflow(self):
        # The first proposal is far below dt_min: no step is taken.
        cfg = SchemeConfig(0.5, 3, AdaptiveStep(1e-8, dt_min=0.5))
        trace = integrate(dahlquist(-1.0), cfg, 1.0)
        assert trace.status == "min-step-underflow"
        assert trace.steps == 0

    def test_t_final_below_dt_min_completes(self):
        # The proposal (about 1.2) exceeds dt_min; the step is shortened to
        # land on t_final, which lies below dt_min.
        cfg = SchemeConfig(1.0, 3, AdaptiveStep(1e-1, dt_min=0.5))
        trace = integrate(dahlquist(-1.0), cfg, 0.4)
        assert trace.status == "completed"
        assert trace.times.tolist() == [0.0, 0.4]
        assert trace.final_state[0] == pytest.approx(math.exp(-0.4), rel=1e-3)

    def test_explicit_adaptive_runs(self):
        cfg = SchemeConfig(0.0, 4, AdaptiveStep(1e-8))
        trace = integrate(dahlquist(-1.0), cfg, 1.0)
        assert trace.status == "completed"
        assert abs(trace.final_state[0] - math.exp(-1.0)) <= 1e-6


class TestSchemeConfigValidation:
    def test_theta_range(self):
        with pytest.raises(ValueError):
            SchemeConfig(1.5, 3, FixedStep(0.1))

    def test_order_positive(self):
        with pytest.raises(ValueError):
            SchemeConfig(0.5, 0, FixedStep(0.1))

    @pytest.mark.parametrize("order", [2.5, True], ids=["float", "bool"])
    def test_order_must_be_an_integer(self, order):
        with pytest.raises(ValueError, match="order must be an integer"):
            SchemeConfig(0.5, order, FixedStep(0.1))

    def test_numpy_integer_order_accepted(self):
        cfg = SchemeConfig(0.5, np.int64(3), FixedStep(0.1))
        assert type(cfg.order) is int and cfg.order == 3
        trace = integrate(dahlquist(-1.0), cfg, 1.0)
        ref = integrate(dahlquist(-1.0), SchemeConfig(0.5, 3, FixedStep(0.1)), 1.0)
        assert trace.status == ref.status == "completed"
        assert trace.final_state.tobytes() == ref.final_state.tobytes()

    def test_step_mode_validation(self):
        with pytest.raises(ValueError):
            FixedStep(0.0)
        with pytest.raises(ValueError):
            AdaptiveStep(1e-8, safety=1.5)

    @pytest.mark.parametrize("build", [
        lambda: FixedStep(math.nan),
        lambda: AdaptiveStep(math.nan),
        lambda: AdaptiveStep(1e-8, dt_min=math.nan),
        lambda: integrate(dahlquist(-1.0), SchemeConfig(0.5, 3, FixedStep(0.1)),
                          math.inf),
        lambda: integrate(dahlquist(-1.0), SchemeConfig(0.5, 3, FixedStep(0.1)),
                          math.nan),
    ], ids=["dt-nan", "tol-nan", "dt_min-nan", "t_final-inf", "t_final-nan"])
    def test_non_finite_input_rejected(self, build):
        with pytest.raises(ValueError):
            build()


class TestStepFailureStatus:
    """A failed step ends the trace with a typed status, keeping the nodes
    before it; integrate() neither raises nor warns."""

    def test_non_finite_state(self):
        # eps = 1000 with dt = 0.5 overflows the node table at t = 1.5.
        cfg = SchemeConfig(0.5, 5, FixedStep(0.5))
        trace = integrate(van_der_pol(1000.0), cfg, 5.0)
        assert trace.status == "non-finite-state"
        assert trace.times.tolist() == [0.0, 0.5, 1.0]
        assert np.isfinite(trace.states).all()

    def test_singular_matrix(self):
        # Backward Euler on x' = x with dt = 1: the Newton matrix 1 - dt is 0.
        trace = integrate(dahlquist(1.0), SchemeConfig(1.0, 1, FixedStep(1.0)), 2.0)
        assert trace.status == "singular-matrix"
        assert trace.steps == 0

    def test_newton_failure(self):
        cfg = SchemeConfig(1.0, 1, FixedStep(1.0))
        trace = integrate(quadratic_blowup(), cfg, 2.0)
        assert trace.status == "newton-failure"
        assert trace.steps == 0

    def test_error_estimate_beyond_float_range(self):
        # dt ** (K + 1) = 1e324 overflows a Python float power; the state,
        # about -dt^11 / 11! = -2.5e289, does not.
        explicit = integrate(dahlquist(-1.0),
                             SchemeConfig(0.0, 11, FixedStep(1e27)), 1e27)
        assert explicit.status == "completed"
        assert explicit.error_estimates[1] == math.inf
        # At dt = 1e30 the state overflows too: the last node is non-finite.
        explicit = integrate(dahlquist(-1.0),
                             SchemeConfig(0.0, 11, FixedStep(1e30)), 1e30)
        assert explicit.status == "non-finite-state"
        assert explicit.error_estimates[1] == math.inf
        implicit = integrate(dahlquist(-1.0),
                             SchemeConfig(0.5, 11, FixedStep(1e30)), 1e30)
        assert implicit.status == "non-finite-state"

    def test_non_finite_last_state(self):
        # One explicit step of 1e300 overflows the state to -inf at t_final:
        # the last node is kept, and the trace fails there.
        trace = integrate(dahlquist(), SchemeConfig(0.0, 3, FixedStep(1e300)),
                          1e300)
        assert trace.status == "non-finite-state"
        assert trace.node_times == [0.0, 1e300]
        assert trace.node_states[-1] == [-math.inf]
        assert trace.failure == ("step at t = 1e+300: "
                                 "non-finite state at t = 1e+300")

    def test_converged_last_iteration_accepted(self, monkeypatch):
        # One Newton iteration reaches _ABS_TOL on every step: the run must
        # match the default iteration limit, not fail after that iteration.
        prob = duffing()
        cfg = SchemeConfig(0.5, 3, AdaptiveStep(1e-8))
        default = integrate(prob, cfg, 1.0)
        monkeypatch.setattr(nonlinear, "_MAX_ITERS", 1)
        one = integrate(prob, cfg, 1.0)
        assert one.status == default.status == "completed"
        assert one.steps == default.steps == 18
        assert one.max_error(prob.exact_solution) == \
            default.max_error(prob.exact_solution)


class TestIntegrateDispatch:
    def test_dispatches_on_mode(self):
        fixed = integrate(dahlquist(-1.0), SchemeConfig(0.5, 3, FixedStep(0.1)), 1.0)
        adaptive = integrate(dahlquist(-1.0),
                             SchemeConfig(0.5, 3, AdaptiveStep(1e-8)), 1.0)
        assert fixed.status == adaptive.status == "completed"
        assert fixed.steps == 10

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="step_mode must be"):
            SchemeConfig(0.5, 3, step_mode=0.1)


class TestFailureContext:
    """A failed trace names the failing step's t and dt and the reason."""

    def test_completed_is_empty(self):
        trace = integrate(dahlquist(-1.0), SchemeConfig(0.5, 3, FixedStep(0.1)), 1.0)
        assert trace.failure == ""

    def test_newton_failure(self, monkeypatch):
        monkeypatch.setattr(nonlinear, "_MAX_ITERS", 1)
        cfg = SchemeConfig(1.0, 1, FixedStep(1.0))
        trace = integrate(quadratic_blowup(), cfg, 2.0)
        assert trace.status == "newton-failure"
        assert trace.failure.startswith("step at t = 0.0, dt = ")
        assert "no convergence in 1 iterations (last residual" in trace.failure

    def test_non_finite_state(self):
        cfg = SchemeConfig(0.5, 5, FixedStep(0.5))
        trace = integrate(van_der_pol(1000.0), cfg, 5.0)
        assert trace.status == "non-finite-state"
        assert trace.failure == ("step at t = 1.0, dt = 0.5: "
                                 "non-finite Taylor coefficient at t = 1.5")

    def test_node_table_overflow_before_dt(self):
        # X(2) = 1e320 / 2 overflows the first node table; no dt is chosen yet.
        trace = integrate(dahlquist(1e160), SchemeConfig(1.0, 1, FixedStep(0.1)), 1.0)
        assert trace.status == "non-finite-state"
        assert trace.failure == ("step at t = 0.0: "
                                 "non-finite Taylor coefficient at t = 0.0")

    def test_unread_coefficient_not_built(self):
        # At theta = 1, K = 1 the node table ends at X(2) = 1e300 / 2, the
        # leading error term; X(3) = 1e450 / 6 would overflow but no reader
        # needs it.
        trace = integrate(dahlquist(1e150), SchemeConfig(1.0, 1, FixedStep(0.1)), 1.0)
        assert trace.status == "completed"
        assert trace.steps == 10

    def test_singular_matrix(self):
        trace = integrate(dahlquist(1.0), SchemeConfig(1.0, 1, FixedStep(1.0)), 2.0)
        assert trace.status == "singular-matrix"
        assert trace.failure == "step at t = 0.0, dt = 1.0: pivot underflow in column 0"

    def test_min_step_underflow(self):
        cfg = SchemeConfig(0.5, 3, AdaptiveStep(1e-8, dt_min=0.5))
        trace = integrate(dahlquist(-1.0), cfg, 1.0)
        assert trace.status == "min-step-underflow"
        prefix, reason = trace.failure.split(": ")
        assert prefix.startswith("step at t = 0.0, dt = ")
        assert float(prefix.rsplit("= ", 1)[1]) < 0.5
        assert reason == "proposed dt below dt_min = 0.5"


class TestNodeTableReuse:
    """After an implicit step the accepted state's trial table, built
    through the leading error term by its real residual call, is the next
    node table."""

    @staticmethod
    def counted_recurrence(problem, on_call):
        """The problem with its recurrence wrapped: on_call(table, depth)
        sees each call's table before the recurrence appends to it."""
        recurrence = problem.recurrence

        def wrapper(t, table, depth):
            on_call(table, depth)
            return recurrence(t, table, depth)

        return dataclasses.replace(problem, recurrence=wrapper)

    def test_one_build_per_residual_after_the_first_node(self, monkeypatch):
        # Every call builds a table from one-entry state lists.  A complex
        # residual call runs to depth K = 5; a real one, like the node
        # build, to the leading error term K + 2 = 7.  Outside the steps
        # only the first node is built.
        order, power = 5, 7
        calls = []  # (inside a step, complex, depth) per recurrence call
        inside, step_fn = [False], stepper._step

        def step(*args):
            inside[0] = True
            try:
                return step_fn(*args)
            finally:
                inside[0] = False

        def on_call(table, depth):
            assert all(len(col) == 1 for col in table)
            calls.append((inside[0], isinstance(table[0][0], complex), depth))

        monkeypatch.setattr(stepper, "_step", step)
        cfg = SchemeConfig(0.5, order, AdaptiveStep(1e-10))
        prob = self.counted_recurrence(van_der_pol(10.0), on_call)
        trace = integrate(prob, cfg, 5.0)
        assert trace.status == "completed"
        assert min(trace.newton_iters[1:]) >= 1
        assert [c for c in calls if not c[0]] == [(False, False, power)]
        residuals = calls[1:]
        assert len(residuals) >= 3 * trace.steps
        assert {(c, d) for _, c, d in residuals} == {(True, order),
                                                     (False, power)}

    def test_m_plus_one_residuals_per_one_iteration_step(self, monkeypatch):
        # Newton's first residual is the real part of its first complex
        # column: m complex calls and the accepted iterate's real one.  Inside
        # a step every recurrence call is a residual's.
        calls = []  # whether each residual call of the step is complex
        per_step, step_fn = [], stepper._step  # (iterations, calls) per step

        def step(*args):
            del calls[:]
            out = step_fn(*args)
            per_step.append((out[1], tuple(calls)))
            return out

        monkeypatch.setattr(stepper, "_step", step)
        prob = self.counted_recurrence(
            van_der_pol(10.0),
            lambda table, depth: calls.append(isinstance(table[0][0], complex)))
        trace = integrate(prob, SchemeConfig(0.5, 5, AdaptiveStep(1e-10)), 5.0)
        assert trace.status == "completed"
        assert len(per_step) == trace.steps
        one = [pattern for iters, pattern in per_step if iters == 1]
        assert len(one) >= 0.9 * trace.steps
        assert set(one) == {(True,) * prob.dim + (False,)}

    @pytest.mark.parametrize("prob, cfg, t_final", [
        (van_der_pol(10.0), SchemeConfig(0.5, 5, AdaptiveStep(1e-10)), 5.0),
        (robertson_modified(), SchemeConfig(0.5, 4, FixedStep(2.0 ** -5)), 4.0),
        (seir(eta=6.0), SchemeConfig(0.5, 6, AdaptiveStep(1e-5)), 80.0),
    ], ids=["vanderpol", "robertson-fixed", "seir-discontinuity"])
    def test_trace_equals_fresh_builds(self, monkeypatch, prob, cfg, t_final):
        reused = integrate(prob, cfg, t_final)
        step = stepper._step
        monkeypatch.setattr(stepper, "_step",
                            lambda *args: step(*args)[:2] + (None,))
        fresh = integrate(prob, cfg, t_final)
        assert reused.status == fresh.status == "completed"
        assert reused.steps == fresh.steps
        for column in ("node_times", "dts_used", "newton_iters",
                       "error_estimates"):
            assert getattr(reused, column) == getattr(fresh, column), column
        assert reused.states.tobytes() == fresh.states.tobytes()

    def test_residual_of_prebuilt_trial_table(self):
        # The trial table handed back with the defect is a fresh build.
        prob = duffing()
        node = build_coeff_table(prob, 0.0, prob.default_initial.tolist(), 4)
        known = horner(node, 0.05, 4)
        trial = [0.51, 0.24]
        # K = 4 at theta = 0.5: the real call runs to the error term X(5).
        residual, last = stepper._residual_function(prob, 0.1, known, 0.5, 4,
                                                    0.1, 5)
        residual(trial)
        fresh = build_coeff_table(prob, 0.1, trial, 5)
        assert coeff_array(last[1]).tobytes() == coeff_array(fresh).tobytes()


class TestAuxiliarySeriesHidden:
    """Van der Pol keeps U^2 in a local list of its recurrence; no state
    reader may see it."""

    @pytest.mark.parametrize("theta, order", [(0.5, 5), (1.0, 4)])
    def test_readers_see_the_state_lists(self, monkeypatch, theta, order):
        prob = van_der_pol(10.0)
        sizes, step = [], stepper._step

        def step_guard(problem, t, table, *args):
            # The controller, the error estimate and both of the step's
            # series values read this same table.
            sizes.append(len(table))
            return step(problem, t, table, *args)

        monkeypatch.setattr(stepper, "_step", step_guard)
        trace = integrate(prob, SchemeConfig(theta, order, AdaptiveStep(1e-8)), 2.0)
        assert trace.status == "completed"
        assert len(sizes) == trace.steps
        assert set(sizes) == {prob.dim}


# One node as the march kept it before the trace held columns.
StepRecord = namedtuple("StepRecord",
                        "t state dt_used newton_iters local_error_estimate")


def run_with_step_records(monkeypatch, prob, cfg, t_final, initial=None):
    """integrate's trace, and its nodes kept the way the march kept them
    before the trace held columns: one StepRecord, with its own array, per
    accepted step, the first holding the initial state array.  Each record's
    estimate is the former ``_local_error_estimate`` of the table the step
    starts from."""
    x0 = prob.default_initial if initial is None else initial
    records = [StepRecord(0.0, np.asarray(x0, dtype=float), 0.0, 0, 0.0)]
    step = stepper._step

    def step_spy(problem, t, table, theta, order, dt):
        est = _local_error_estimate(table, theta, order, dt)
        x, iters, trial = step(problem, t, table, theta, order, dt)
        records.append(StepRecord(t + dt, np.array(x), dt, iters, est))
        return x, iters, trial

    with monkeypatch.context() as patch:
        patch.setattr(stepper, "_step", step_spy)
        trace = integrate(prob, cfg, t_final, initial)
    return trace, records


def write_records_csv(stream, records, meta):
    """write_trace_csv as it was written over per-step records, verbatim:
    the oracle of its bytes."""
    dim = records[0].state.shape[0]
    header = ["t"] + [f"x{j + 1}" for j in range(dim)] + [
        "dt", "newton_iters", "local_err_est"]
    rows = (
        [rec.t, *(f"{v:.17g}" for v in rec.state), rec.dt_used,
         rec.newton_iters, rec.local_error_estimate]
        for rec in records
    )
    write_csv(stream, meta, header, rows)


class TestTraceViews:
    """The trace keeps columns; every view built from them equals the one
    built from per-step records, bit for bit."""

    @pytest.mark.parametrize("prob, cfg, t_final, status", [
        (van_der_pol(10.0), SchemeConfig(0.5, 5, AdaptiveStep(1e-8)), 5.0,
         "completed"),
        (robertson_modified(), SchemeConfig(0.5, 7, FixedStep(2.0 ** -4)), 4.0,
         "newton-failure"),
    ], ids=["vanderpol-adaptive", "robertson-newton-failure"])
    def test_views_equal_step_records(self, monkeypatch, prob, cfg, t_final,
                                      status):
        trace, old = run_with_step_records(monkeypatch, prob, cfg, t_final)
        assert trace.status == status and trace.steps >= 10
        assert trace.steps == len(old) - 1
        for column, field in (("node_times", "t"), ("dts_used", "dt_used"),
                              ("newton_iters", "newton_iters"),
                              ("error_estimates", "local_error_estimate")):
            new = getattr(trace, column)
            assert len(new) == len(old)
            for a, ref in zip(new, old):
                b = getattr(ref, field)
                assert type(a) is type(b) and a == b
        assert trace.times.tobytes() == np.array([r.t for r in old]).tobytes()
        assert trace.states.tobytes() == \
            np.array([r.state for r in old]).tobytes()
        assert trace.final_state.tobytes() == old[-1].state.tobytes()
        exact = prob.exact_solution or (lambda t: np.array([math.cos(t), 0.5]))
        assert trace.max_error(exact) == max(
            float(np.abs(r.state - exact(r.t)).max()) for r in old)

    def test_trace_csv_unchanged(self, monkeypatch):
        cfg = SchemeConfig(0.5, 4, FixedStep(2.0 ** -5))
        trace, old = run_with_step_records(monkeypatch, robertson_modified(),
                                           cfg, 1.0)
        written, expected = io.StringIO(), io.StringIO()
        write_trace_csv(written, trace, {"K": 4})
        write_records_csv(expected, old, {"K": 4})
        assert written.getvalue() == expected.getvalue()


class TestTraceOwnsItsStates:
    """A trace shares no array with its problem or its caller."""

    def test_failed_run_leaves_default_initial_alone(self):
        # This run fails at t = 0, so its only node is the initial state.
        prob = robertson_modified()
        before = prob.default_initial.copy()
        trace = integrate(prob, SchemeConfig(0.5, 7, AdaptiveStep(1e-5)), 4.0)
        assert trace.status == "newton-failure" and trace.steps == 0
        assert trace.final_state is not prob.default_initial
        trace.final_state[0] = 99.0
        trace.states[0, 2] = 99.0
        assert prob.default_initial.tobytes() == before.tobytes()
        assert trace.final_state.tobytes() == before.tobytes()

    def test_caller_initial_not_aliased(self):
        initial = np.array([2.0, 0.0])
        cfg = SchemeConfig(0.5, 5, FixedStep(0.01))
        trace = integrate(van_der_pol(10.0), cfg, 0.05, initial)
        initial[0] = 99.0
        assert trace.states[0].tolist() == [2.0, 0.0]
