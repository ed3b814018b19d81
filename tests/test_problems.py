"""Built-in ODE systems: recurrence correctness against independent oracles."""

import math

import mpmath
import numpy as np
import pytest

from ieldtm.errors import InvalidConfigurationError
from ieldtm.problems import (
    PROBLEM_NAMES,
    SeirParams,
    dahlquist,
    duffing,
    linear_system,
    make_problem,
    robertson_modified,
    seir,
    van_der_pol,
)
from ieldtm.stepper import build_coeff_table


def coeffs_from(problem, t, state, depth):
    return build_coeff_table(problem, t, np.asarray(state, float), depth).coeffs


class TestDahlquist:
    def test_exponential_coefficients(self):
        c = coeffs_from(dahlquist(1.0), 0.0, [1.0], 3)
        np.testing.assert_allclose(c[:, 0], [1, 1, 0.5, 1 / 6])

    def test_zero_rate_is_constant(self):
        c = coeffs_from(dahlquist(0.0), 0.0, [5.0], 4)
        assert (c[1:] == 0).all()

    def test_negative_rate(self):
        c = coeffs_from(dahlquist(-2.0), 0.0, [1.0], 2)
        assert c[2, 0] == pytest.approx(2.0)  # (-2)^2 / 2!


class TestLinearSystem:
    def test_diagonal(self):
        prob = linear_system(np.diag([-1.0, -2.0]))
        c = coeffs_from(prob, 0.0, [1.0, 1.0], 2)
        np.testing.assert_allclose(c[2], [0.5, 2.0])

    def test_zero_matrix(self):
        c = coeffs_from(linear_system(np.zeros((3, 3))), 0.0, [1, 2, 3], 4)
        assert (c[1:] == 0).all()

    def test_rotation_series(self):
        prob = linear_system(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        c = coeffs_from(prob, 0.0, [1.0, 0.0], 3)
        expected = np.array([[1, 0], [0, -1], [-0.5, 0], [0, 1 / 6]])
        np.testing.assert_allclose(c, expected)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            linear_system(np.ones((2, 3)))


class TestSeir:
    def test_disease_free_equilibrium(self):
        prob = seir()
        state = [3e6, 0.0, 0.0, 0.0, 0.0, 0.0]
        c = coeffs_from(prob, 0.0, state, 5)
        assert np.abs(c[1:]).max() == 0.0

    def test_coefficient_population_conservation(self):
        prob = seir()
        rng = np.random.default_rng(7)
        for _ in range(20):
            state = rng.uniform(0, 1, 6)
            state *= 3e6 / state.sum()
            c = coeffs_from(prob, rng.uniform(0, 100), state, 8)
            assert np.abs(c[1:].sum(axis=1)).max() <= 1e-9 * 3e6

    def test_initial_exposed_derivative(self):
        prob = seir()
        c = coeffs_from(prob, 0.0, prob.default_initial, 1)
        assert c[1, 1] == pytest.approx(-1.0 / 3.69, rel=1e-12)

    def test_transmission_jump_declared(self):
        assert seir(SeirParams(eta=4.0)).discontinuities == (66.0,)
        assert seir().discontinuities == ()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SeirParams(eta=0.5)
        with pytest.raises(ValueError):
            SeirParams(alpha=1.5)


class TestDuffing:
    def test_first_coefficient_from_logistic_data(self):
        # x'' = -alpha x' - beta x - gamma x^3 = 0 at the logistic inflection
        prob = duffing()
        c = coeffs_from(prob, 0.0, [0.5, 0.25], 1)
        np.testing.assert_allclose(c[1], [0.25, 0.0], atol=1e-15)

    def test_exact_solution_value(self):
        x = duffing().exact_solution(1.0)
        assert x[0] == pytest.approx(1.0 / (1.0 + math.exp(-1.0)))

    def test_gamma_zero_reduces_to_linear(self):
        prob = duffing(gamma=0.0)
        ref = linear_system(np.array([[0.0, 1.0], [-2.0, 3.0]]))
        state = [0.3, -0.7]
        np.testing.assert_allclose(coeffs_from(prob, 0.0, state, 8),
                                   coeffs_from(ref, 0.0, state, 8),
                                   rtol=1e-14, atol=1e-14)


class TestRobertson:
    def test_first_coefficient(self):
        prob = robertson_modified()
        c = coeffs_from(prob, 0.0, [1.0, 0.0, 0.0], 1)
        np.testing.assert_allclose(c[1], [-1.0, 0.0, 1.0], atol=1e-15)

    def test_second_component_stays_zero(self):
        # The 3e7/1e4 reaction constants amplify a 1-ulp perturbation of the
        # state by ~3e3 per coefficient order, so "x2 stays zero" is only
        # checkable at shallow depth in double precision.
        prob = robertson_modified()
        t = 1.3
        state = [math.exp(-t), 0.0, 1.0 - math.exp(-t)]
        c = coeffs_from(prob, t, state, 4)
        assert np.abs(c[:, 1]).max() <= 1e-11

    def test_exact_solution_at_four(self):
        x = robertson_modified().exact_solution(4.0)
        assert x[0] == pytest.approx(math.exp(-4.0))
        assert x.sum() == pytest.approx(1.0)


class TestVanDerPol:
    def test_epsilon_zero_reduces_to_rotation(self):
        prob = van_der_pol(0.0)
        ref = linear_system(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        state = [2.0, 0.0]
        np.testing.assert_allclose(coeffs_from(prob, 0.0, state, 8),
                                   coeffs_from(ref, 0.0, state, 8),
                                   rtol=1e-14, atol=1e-14)

    def test_first_coefficient(self):
        for eps in (0.5, 10.0):
            c = coeffs_from(van_der_pol(eps), 0.0, [2.0, 0.0], 1)
            np.testing.assert_allclose(c[1], [0.0, -2.0], atol=1e-15)

    def test_second_coefficient_velocity(self):
        # v''(0) = -u'(0) + eps d/dt[(1-u^2)v](0) = (1-4)(-2) eps = 6 eps
        eps = 7.0
        c = coeffs_from(van_der_pol(eps), 0.0, [2.0, 0.0], 2)
        assert c[2, 1] == pytest.approx(3.0 * eps)


class TestRecurrenceVsSeriesOracle:
    """Feeding exact data into a recurrence must reproduce the Taylor
    coefficients of the closed-form solution (high-precision series oracle)."""

    # (problem, closed-form solution, sample interval, comparison depth).
    # Robertson is compared shallow: its stiff constants amplify the 1-ulp
    # difference between the rounded closed form and the recurrence's own
    # exp() by ~3e3 per coefficient order, which is inherent to double
    # precision, not a recurrence defect.
    CASES = [
        (dahlquist(-1.5), lambda t: [mpmath.exp(-1.5 * t)], (0.0, 3.0), 8),
        (duffing(),
         lambda t: [1 / (1 + mpmath.exp(-t)),
                    mpmath.exp(-t) / (1 + mpmath.exp(-t)) ** 2],
         (-2.0, 2.0), 8),
        (robertson_modified(),
         lambda t: [mpmath.exp(-t), mpmath.mpf(0), 1 - mpmath.exp(-t)],
         (0.0, 4.0), 3),
    ]

    @pytest.mark.parametrize("problem,closed_form,t_range,depth",
                             CASES, ids=[c[0].name for c in CASES])
    def test_coefficients_match_series(self, problem, closed_form, t_range,
                                       depth):
        rng = np.random.default_rng(11)
        for _ in range(20):
            t0 = float(rng.uniform(*t_range))
            state = np.array([float(v) for v in closed_form(t0)])
            got = coeffs_from(problem, t0, state, depth)
            ref = np.column_stack([
                [float(v) for v in mpmath.taylor(
                    lambda t: closed_form(t)[j], t0, depth)]
                for j in range(problem.dim)
            ])
            # One scale for the whole system: an identically-zero component
            # (Robertson x2) still sees round-off injected from the others.
            scale = np.abs(ref).max()
            assert np.abs(got - ref).max() <= 1e-10 * scale


def _exp_decay_forcing(t, k):
    """Transform of B(t) = (e^(-t), 1) about t."""
    return np.array([math.exp(-t) * (-1.0) ** k / math.factorial(k),
                     1.0 if k == 0 else 0.0])


class TestBatchAxis:
    """Column b of a batched table is the table of state b alone."""

    CASES = [
        (dahlquist(-2.0), 0.0),
        (linear_system(np.array([[-2.0, 1.0], [0.5, -3.0]])), 0.0),
        (linear_system(np.array([[-2.0, 1.0], [0.5, -3.0]]),
                       forcing=_exp_decay_forcing, name="forced"), 0.7),
        (seir(SeirParams(eta=8.0)), 70.0),
        (duffing(), 0.3),
        (robertson_modified(), 1.2),
        (van_der_pol(10.0), 0.0),
    ]

    @pytest.mark.parametrize("problem,t", CASES, ids=[c[0].name for c in CASES])
    def test_columns_match_single_tables(self, problem, t):
        rng = np.random.default_rng(2)
        base = problem.default_initial[:, None]
        states = base * rng.uniform(0.5, 1.5, (problem.dim, 5)) \
            + rng.normal(scale=0.1, size=(problem.dim, 5))
        batched = coeffs_from(problem, t, states, 7)
        assert batched.shape == (8, problem.dim, 5)
        for b in range(5):
            single = coeffs_from(problem, t, states[:, b], 7)
            np.testing.assert_allclose(batched[..., b], single, rtol=1e-13,
                                       atol=1e-13 * np.abs(single).max())


class TestRegistry:
    def test_all_names_constructible(self):
        for name in PROBLEM_NAMES:
            assert make_problem(name).name == name

    def test_unknown_name(self):
        with pytest.raises(InvalidConfigurationError):
            make_problem("lorenz")

    def test_parameter_override(self):
        assert make_problem("dahlquist", lam=-3.0).linear_matrix[0, 0] == -3.0
