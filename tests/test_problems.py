"""Built-in ODE systems: recurrence correctness against independent oracles."""

import dataclasses
import functools
import inspect
import math
import random
import re
import struct
import subprocess
import sys
import time
from functools import reduce
from operator import add, mul
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ieldtm
from ieldtm import problems
from ieldtm.errors import NonFiniteStateError
from ieldtm.problems import (
    PROBLEM_NAMES,
    ProblemDefinition,
    Series,
    _UNROLL_LIMIT,
    dahlquist,
    declare,
    duffing,
    linear_system,
    make_problem,
    robertson_modified,
    seir,
    van_der_pol,
)
from ieldtm import stepper
from ieldtm.stepper import FixedStep, SchemeConfig, build_coeff_table, integrate
from oracles import complex_residual, complex_step


def coeffs_from(problem, t, state, depth):
    """The coefficient table as a (depth+1, dim) array: row k is X(k)."""
    table = build_coeff_table(problem, t, np.asarray(state).tolist(), depth)
    return np.array(table).T


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

    @pytest.mark.parametrize("x0,expected", [(2.0, math.inf),
                                             (-2.0, -math.inf), (0.0, 0.0)])
    def test_closed_form_past_the_float_range(self, x0, expected):
        # e^(1000 t) overflows at t = 1; x0 = 0 stays 0 there.
        assert dahlquist(1000.0, x0).exact_solution(1.0).tolist() == [expected]
        assert dahlquist(-1000.0, x0).exact_solution(1.0).tolist() == [0.0]


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

    @pytest.mark.parametrize("values", [[1.0], [1.0, 0.0, 0.0]],
                             ids=["short", "long"])
    def test_forcing_length_mismatch(self, values):
        with pytest.raises(ValueError, match="forcing must give 2 values"):
            linear_system(np.eye(2), forcing=lambda t, k: values)


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
        assert seir(eta=4.0).discontinuities == (66.0,)
        assert seir().discontinuities == ()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            seir(eta=0.5)
        with pytest.raises(ValueError):
            seir(alpha=1.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", list(inspect.signature(seir).parameters))
    def test_non_finite_params_refused(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            seir(**{field: value})


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

    @pytest.mark.parametrize("theta", [0.0, 0.5])
    def test_order_beyond_float_factorial(self, theta):
        # 171! exceeds the float range, so the forcing transform takes k! in
        # log space there instead of raising OverflowError.
        prob = robertson_modified()
        trace = integrate(prob, SchemeConfig(theta, 171, FixedStep(0.01)), 0.02)
        assert trace.status == "completed"
        assert trace.steps == 2
        assert trace.max_error(prob.exact_solution) <= 1e-15


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


class TestComplexStepRealPart:
    """The real part of the value kernel's table from y + ih e_j, a point of
    the complex-step oracle, equals the real table of y."""

    CASES = [
        (dahlquist(-2.0), 0.0),
        (linear_system(np.array([[-2.0, 1.0], [0.5, -3.0]])), 0.0),
        (linear_system(np.array([[-2.0, 1.0], [0.5, -3.0]]),
                       forcing=_exp_decay_forcing, name="forced"), 0.7),
        (seir(eta=8.0), 70.0),
        (duffing(), 0.3),
        (robertson_modified(), 1.2),
        (van_der_pol(10.0), 0.0),
    ]

    @pytest.mark.parametrize("problem,t", CASES, ids=[c[0].name for c in CASES])
    def test_columns_match_single_tables(self, problem, t):
        rng = np.random.default_rng(2)
        y = problem.default_initial * rng.uniform(0.5, 1.5, problem.dim) \
            + rng.normal(scale=0.1, size=problem.dim)
        single = coeffs_from(problem, t, y, 7)
        for j in range(problem.dim):
            point = y.astype(complex)
            point[j] += 1e-30j
            column = np.array(_hand_table(problem.recurrence, t,
                                          point.tolist(), 7)).T
            assert column.shape == (8, problem.dim)
            np.testing.assert_allclose(column.real, single, rtol=1e-13,
                                       atol=1e-13 * np.abs(single).max())


class TestNonFiniteParameters:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("make", [
        lambda v: van_der_pol(v),
        lambda v: dahlquist(v),
        lambda v: dahlquist(-1.0, v),
        lambda v: duffing(alpha=v),
        lambda v: duffing(beta=v),
        lambda v: duffing(gamma=v),
        lambda v: linear_system([[v, 0.0], [0.0, -1.0]]),
        lambda v: linear_system([[-1.0, 0.0], [v, -1.0]]),
    ], ids=["vdp-epsilon", "dahlquist-lam", "dahlquist-x0", "duffing-alpha",
            "duffing-beta", "duffing-gamma", "linear-diagonal",
            "linear-off-diagonal"])
    def test_refused(self, make, value):
        with pytest.raises(ValueError, match="must be finite"):
            make(value)


def triple_product(a, b, c, k: int):
    """Nested convolution sum_{l=0}^{k} sum_{n=0}^{l} a(n) b(l-n) c(k-l),
    the transform of a*b*c, with the prefix a*b recomputed on every call.

    The Van der Pol and Duffing recurrences used this before they kept the
    prefix as a product series; their tables must still equal it bit for
    bit, so it stays here as the oracle."""
    if len(a) <= k or len(b) <= k or len(c) <= k:
        raise IndexError(f"sequences must be defined up to index {k}")
    total = 0.0
    for l in range(k + 1):
        total += sum(map(mul, a[: l + 1], b[l::-1])) * c[k - l]
    return total


_SEQUENCE9 = st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False),
                      min_size=9, max_size=9).map(np.array)


class TestTripleProduct:
    """The oracle triple_product above."""

    def test_cube_of_one_plus_t(self):
        # coefficient of t^2 in (1 + t)^3 is C(3, 2) = 3
        a = np.array([1.0, 1.0, 0.0])
        assert triple_product(a, a, a, 2) == pytest.approx(3.0)

    def test_double_identity(self):
        a = np.array([2.0, 4.0, 8.0, 16.0])
        e = np.array([1.0, 0.0, 0.0, 0.0])
        assert triple_product(a, e, e, 3) == pytest.approx(a[3])

    @settings(max_examples=100)
    @given(_SEQUENCE9, _SEQUENCE9, _SEQUENCE9, st.integers(0, 8))
    def test_matches_nested_convolution(self, a, b, c, k):
        expected = np.convolve(np.convolve(a, b)[: k + 1], c)[k]
        assert triple_product(a, b, c, k) == pytest.approx(
            expected, abs=1e-7 * (1 + abs(expected)))


def _old_vdp(eps):
    """The Van der Pol recurrence as written before U^2 became a product
    series of its own."""
    def recurrence(t, coeffs, k):
        u, v = coeffs
        return [v[k] / (k + 1),
                (-u[k] + eps * v[k] - eps * triple_product(u, u, v, k)) / (k + 1)]
    return recurrence


def _old_duffing(alpha, beta, gamma):
    def recurrence(t, coeffs, k):
        x1, x2 = coeffs
        cubic = triple_product(x1, x1, x1, k)
        return [x2[k] / (k + 1),
                (-beta * x1[k] - alpha * x2[k] - gamma * cubic) / (k + 1)]
    return recurrence


def _old_robertson():
    """The Robertson recurrence as written with prefix slices, before its
    products read whole lists."""
    def recurrence(t, coeffs, k):
        x1, x2, x3 = coeffs
        q23 = sum(map(mul, x2[: k + 1], x3[k::-1]))
        q22 = sum(map(mul, x2[: k + 1], x2[k::-1]))
        f = math.exp(-t) * (-1.0 if k % 2 else 1.0) / math.factorial(k)
        a1, a23, a22 = 0.04 * x1[k], 1e4 * q23, 3e7 * q22
        n = k + 1
        return [(a23 - a1 - 0.96 * f) / n, (a1 - a23 - a22 - 0.04 * f) / n,
                (a22 + f) / n]
    return recurrence


def _old_table(recurrence, state, depth, t=0.0):
    table = [[x] for x in state]
    for k in range(depth):
        for col, x in zip(table, recurrence(t, table, k)):
            col.append(x)
    return table


def _bits(table):
    return [np.array(col).tobytes() for col in table]


class TestAuxiliarySeries:
    """Keeping the prefix product as a series in a local list of the
    recurrence changes no bit of a table: the oracle triple_product
    recomputes it on every call.  Nor do products over whole lists: the
    oracles take prefix slices, so a list appended before a product that
    reads it shows here.  A table holds the state lists only."""

    CASES = [
        (van_der_pol(10.0), _old_vdp(10.0), [1.7, -0.4]),
        (van_der_pol(1000.0), _old_vdp(1000.0), [-2.0, 0.3]),
        (duffing(), _old_duffing(-3.0, 2.0, -2.0), [0.5, 0.25]),
        (duffing(1.0, -0.5, 3.0), _old_duffing(1.0, -0.5, 3.0), [-0.9, 1.3]),
    ]

    @pytest.mark.parametrize("depth", [5, 7, 11])
    @pytest.mark.parametrize("problem,old,y", CASES,
                             ids=["vdp10", "vdp1000", "duffing", "duffing-other"])
    def test_table_equals_old_formula(self, problem, old, y, depth):
        table = build_coeff_table(problem, 0.0, y, depth)
        assert len(table) == problem.dim
        assert _bits(table) == _bits(_old_table(old, y, depth))

    @pytest.mark.parametrize("depth", [5, 7, 11])
    @pytest.mark.parametrize("t,y", [(0.0, [1.0, 0.0, 0.0]),
                                     (1.2, [0.3, 2e-5, 0.7])],
                             ids=["initial", "later"])
    def test_robertson_equals_slice_form(self, t, y, depth):
        table = build_coeff_table(robertson_modified(), t, y, depth)
        assert _bits(table) == _bits(_old_table(_old_robertson(), y, depth, t))

    # (problem, expansion time, state, dt) for every built-in problem, dt
    # chosen so that each step below takes at least one Newton iteration.
    # The depths the node tables reach are those
    # test_table_equals_old_formula checks against the oracles.
    EXTEND_CASES = [
        (van_der_pol(10.0), 0.0, [1.7, -0.4], 2.0 ** -4),
        (van_der_pol(1000.0), 0.0, [-2.0, 0.3], 2.0 ** -10),
        (duffing(), 0.0, [0.5, 0.25], 0.5),
        (duffing(1.0, -0.5, 3.0), 0.0, [-0.9, 1.3], 0.5),
        (dahlquist(-2.0), 0.0, [1.3], 0.5),
        (linear_system([[-2.0, 1.0], [0.5, -3.0]]), 0.0, [0.8, -1.1], 0.5),
        (linear_system([[-2.0, 1.0], [0.5, -3.0]], forcing=_exp_decay_forcing),
         0.7, [0.8, -1.1], 0.5),
        (seir(eta=8.0), 70.0,
         [2.9e6, 4.1e4, 9.5e3, 2.2e4, 5.3e3, 2.2e4], 0.5),
        (robertson_modified(), 1.2, [0.3, 2e-5, 0.7], 2.0 ** -12),
    ]

    @pytest.mark.parametrize("order", [3, 5, 9])
    @pytest.mark.parametrize("problem,t,y,dt", EXTEND_CASES,
                             ids=["vdp10", "vdp1000", "duffing", "duffing-other",
                                  "dahlquist", "linear", "linear-forced",
                                  "seir-after-tc", "robertson"])
    def test_extended_table_equals_fresh_build(self, problem, t, y, dt, order):
        # The table a central step of odd K hands on runs past K, through
        # the error term X(K+2), and equals a fresh build bit for bit.
        power = stepper.theoretical_order(0.5, order) + 1
        node = build_coeff_table(problem, t, y, power)
        state, iters, handed_on = stepper._step(problem, t, node, 0.5, order,
                                                dt)
        assert iters >= 1 and handed_on is not None
        assert len(handed_on[0]) == order + 3
        fresh = build_coeff_table(problem, t + dt, state, power)
        assert _bits(handed_on) == _bits(fresh)


class TestRegistry:
    def test_all_names_constructible(self):
        for name in PROBLEM_NAMES:
            assert make_problem(name).name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown problem 'lorenz'"):
            make_problem("lorenz")

    def test_parameter_not_taken(self):
        with pytest.raises(ValueError, match="'duffing' takes no parameter 'epsilon'"):
            make_problem("duffing", epsilon=5.0)

    def test_parameter_override(self):
        # X(1) = lam X(0) for the Dahlquist rate lam.
        c = coeffs_from(make_problem("dahlquist", lam=-3.0), 0.0, [1.0], 1)
        assert c[1, 0] == -3.0


# The recurrences of the five built-in problems as written by hand before
# they were compiled from declarations, kept verbatim with the product tuple
# they read, as the oracles of the compiled kernels' bits.

_HAND_UNROLL_LIMIT = 96
_hand_products = ()


def _hand_sum_product(a, b):
    return reduce(add, map(mul, a, reversed(b)), 0.0)


def _hand_unrolled_product(k: int):
    terms = " + ".join(f"a[{j}] * b[{k - j}]" for j in range(k + 1))
    namespace = {}
    exec(f"def product(a, b):\n    return 0.0 + {terms}\n", namespace)
    return namespace["product"]


def _cauchy_products(depth: int) -> tuple:
    """A tuple whose entry k maps two lists of k+1 entries to their Cauchy
    product at index k, added to 0.0 from the left."""
    global _hand_products
    products = _hand_products
    if len(products) <= depth:
        start = len(products)
        products = products + tuple(
            _hand_unrolled_product(k) if k < _HAND_UNROLL_LIMIT
            else _hand_sum_product
            for k in range(start, depth + 1))
        _hand_products = products
    return products


def _hand_dahlquist(lam):
    def recurrence(t, table, depth):
        x, = table
        for k in range(depth):
            x.append(lam * x[k] / (k + 1))
    return recurrence


def _hand_seir(*, beta=1.12, mu=0.55, alpha=0.14, d1=3.69, d2=3.47, d3=3.47,
               p=1.92, N=3e6, eta=1.0, t_c=66.0):
    r_e, r_p, r_a, r_d = 1.0 / d1, 1.0 / d2, 1.0 / d3, 1.0 / p
    e_to_p, e_to_a = alpha / d1, (1.0 - alpha) / d1
    inv_N = 1.0 / N

    def recurrence(t, table, depth):
        s, e, p, a, d, r = table
        rate = (beta * eta if t >= t_c else beta) * inv_N
        w = []
        conv = _cauchy_products(depth)
        for k in range(depth):
            ek, pk, ak, dk = e[k], p[k], a[k], d[k]
            w.append(pk + dk + mu * ak)
            lam = rate * conv[k](s, w)
            n = k + 1
            s.append(-lam / n)
            e.append((-r_e * ek + lam) / n)
            p.append((e_to_p * ek - r_p * pk) / n)
            a.append((e_to_a * ek - r_a * ak) / n)
            d.append((r_p * pk - r_d * dk) / n)
            r.append((r_a * ak + r_d * dk) / n)
    return recurrence


def _hand_duffing(alpha, beta, gamma):
    def recurrence(t, table, depth):
        x1, x2 = table
        sq = []  # the series of x1^2
        conv = _cauchy_products(depth)
        for k in range(depth):
            product = conv[k]
            sq.append(product(x1, x1))
            cubic = product(sq, x1)
            x1.append(x2[k] / (k + 1))
            x2.append((-beta * x1[k] - alpha * x2[k] - gamma * cubic) / (k + 1))
    return recurrence


def _hand_robertson():
    def recurrence(t, table, depth):
        x1, x2, x3 = table
        decay = math.exp(-t)
        conv = _cauchy_products(depth)
        for k in range(depth):
            product = conv[k]
            q23 = product(x2, x3)
            q22 = product(x2, x2)
            sign = -1.0 if k % 2 else 1.0
            if k <= 170:
                f = decay * sign / math.factorial(k)
            else:  # 171! exceeds the float range: take k! in log space
                f = sign * math.exp(-t - math.lgamma(k + 1))
            a1, a23, a22 = 0.04 * x1[k], 1e4 * q23, 3e7 * q22
            n = k + 1
            x1.append((a23 - a1 - 0.96 * f) / n)
            x2.append((a1 - a23 - a22 - 0.04 * f) / n)
            x3.append((a22 + f) / n)
    return recurrence


def _hand_van_der_pol(eps):
    def recurrence(t, table, depth):
        u, v = table
        uu = []  # the series of U^2
        conv = _cauchy_products(depth)
        for k in range(depth):
            product = conv[k]
            uu.append(product(u, u))
            u.append(v[k] / (k + 1))
            v.append((-u[k] + eps * v[k] - eps * product(uu, v)) / (k + 1))
    return recurrence


def _hand_table(recurrence, t, state, depth):
    table = [[x] for x in state]
    recurrence(t, table, depth)
    return table


def _left_to_right(a, b):
    """sum_j a(j) b(k-j) for lists of k+1 entries, added to 0.0 one term
    at a time from j = 0."""
    total = 0.0
    for x, y in zip(a, reversed(b)):
        total = total + x * y
    return total


def _key(value):
    """The type and the bytes of each component, with every nan alike:
    where two nans of opposite sign meet, which one an addition returns
    depends on the operand order of the machine code, and CPython 3.11's
    generic and specialised float additions differ in it, so a plain loop
    changes its nan once it is warm."""
    parts = (value.real, value.imag) if isinstance(value, complex) else (value,)
    return type(value), tuple("nan" if math.isnan(x) else struct.pack("<d", x)
                              for x in parts)


_SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324]


def _draw(rng, kind):
    """A float or complex coefficient, a special value one time in three."""
    def part():
        if rng.random() < 1 / 3:
            return rng.choice(_SPECIALS)
        return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-30, 30)
    return complex(part(), part()) if kind == "complex" else part()


class TestCompiledKernelsKeepBits:
    """Each compiled problem's table equals, by repr, the table of its
    hand-written recurrence: through the written-out kernels, across
    _UNROLL_LIMIT into the loop and, for Robertson, past k = 170 where k!
    leaves the float range; from real, complex-step and special states;
    and for SEIR on both sides of t_c."""

    # (compiled problem, hand-written recurrence, expansion times, state)
    CASES = [
        (dahlquist(-2.0), _hand_dahlquist(-2.0), [0.0], [1.3]),
        (duffing(), _hand_duffing(-3.0, 2.0, -2.0), [0.3], [0.5, 0.25]),
        (duffing(1.0, -0.5, 3.0), _hand_duffing(1.0, -0.5, 3.0), [0.0],
         [-0.9, 1.3]),
        (robertson_modified(), _hand_robertson(), [0.0, 1.2],
         [0.3, 2e-5, 0.7]),
        (van_der_pol(10.0), _hand_van_der_pol(10.0), [0.0], [1.7, -0.4]),
        (van_der_pol(1000.0), _hand_van_der_pol(1000.0), [0.0], [-2.0, 0.3]),
        (seir(), _hand_seir(), [10.0],
         [2.9e6, 4.1e4, 9.5e3, 2.2e4, 5.3e3, 2.2e4]),
        (seir(eta=8.0), _hand_seir(eta=8.0), [65.9, 66.0, 70.0],
         [2.9e6, 4.1e4, 9.5e3, 2.2e4, 5.3e3, 2.2e4]),
    ]
    DEPTHS = [*range(1, 13), _UNROLL_LIMIT - 1, _UNROLL_LIMIT,
              _UNROLL_LIMIT + 1, 171, 175]

    @staticmethod
    def states(y, seed):
        """y, its complex-step points y + ih e_j, and float and complex
        states drawn with special entries."""
        points = [list(y)]
        for j in range(len(y)):
            point = list(map(complex, y))
            point[j] += 1e-30j
            points.append(point)
        rng = random.Random(seed)
        for kind in ("float", "float", "complex", "complex"):
            points.append([_draw(rng, kind) for _ in y])
        points.append([rng.choice(_SPECIALS) for _ in y])
        return points

    @pytest.mark.parametrize("case", range(len(CASES)),
                             ids=["dahlquist", "duffing", "duffing-other",
                                  "robertson", "vdp10", "vdp1000", "seir",
                                  "seir-eta8"])
    def test_table_equals_hand_written(self, case):
        problem, hand, times, y = self.CASES[case]
        for depth in self.DEPTHS:
            for state in self.states(y, depth):
                for t in times:
                    table = [[x] for x in state]
                    problem.recurrence(t, table, depth)
                    expected = _hand_table(hand, t, state, depth)
                    assert repr(table) == repr(expected), (depth, t, state)


_INDICES = [0, 1, _UNROLL_LIMIT - 1, _UNROLL_LIMIT, _UNROLL_LIMIT + 1, 3000]


def _kernel_product(k):
    """The Cauchy product at index k of two lists a and b of k+1 entries as
    a compiled kernel takes it: the written-out expression below
    _UNROLL_LIMIT, the loop's call from it on."""
    term = problems._Product(Series("a"), Series("b"))
    code = compile(term.code(k if k < _UNROLL_LIMIT else None), "<product>",
                   "eval")

    def product(a, b):
        names = {"a": a, "b": b, "_sum_product": problems._sum_product}
        names.update((f"a_{j}", x) for j, x in enumerate(a))
        names.update((f"b_{j}", x) for j, x in enumerate(b))
        return eval(code, names)
    return product


class TestCauchyProducts:
    """A compiled kernel takes each Cauchy product with exactly the
    additions of a left-to-right loop from 0.0 at every k, on any
    interpreter (so does sum(map(mul, a, reversed(b))) on CPython 3.11, but
    not from 3.12 on); kernels are generated only when first asked for, and
    kept."""

    @pytest.fixture()
    def empty_cache(self):
        problems._generate.cache_clear()

    @pytest.mark.parametrize("kind", ["float", "complex"])
    @pytest.mark.parametrize("k", _INDICES)
    def test_entry_matches_left_to_right_loop(self, k, kind):
        product = _kernel_product(k)
        rng = random.Random(k)
        # Products that are all -0.0 first: they add up to 0.0 from 0.0.
        pairs = [([-0.0] * (k + 1), [1.0] * (k + 1))]
        for _ in range(200 if k < 1000 else 20):
            pairs.append(([_draw(rng, kind) for _ in range(k + 1)],
                          [_draw(rng, kind) for _ in range(k + 1)]))
        for a, b in pairs:
            assert _key(product(a, b)) == _key(_left_to_right(a, b))

    def test_depth_3000_is_cheap(self, empty_cache):
        # Straight-line source grows as depth^2, so from _UNROLL_LIMIT on a
        # kernel loops, and every depth past it shares that one kernel.
        # CPU time: a shared machine's other load does not count.
        for name in PROBLEM_NAMES:
            problem = make_problem(name)
            table = [[x] for x in problem.default_initial.tolist()]
            start = time.process_time()
            problem.recurrence(0.5, table, 3000)
            assert time.process_time() - start < 2.0, name
            assert [len(col) for col in table] == [3001] * problem.dim
        assert problems._generate.cache_info().currsize == len(PROBLEM_NAMES)

    def test_extension_keeps_earlier_entries(self, empty_cache):
        # A kernel, once generated, serves every later call at its depth
        # for any parameter value; deeper kernels are added beside it.
        van_der_pol(10.0).recurrence(0.0, [[2.0], [0.0]], 5)
        shallow = problems._generate(problems._van_der_pol_rhs, 5)
        for depth in (20, 200, 300, 5):
            van_der_pol(3.0).recurrence(0.0, [[2.0], [0.0]], depth)
        assert problems._generate(problems._van_der_pol_rhs, 5) is shallow
        # Generated: depths 5, 20 and the one kernel past the limit, which
        # depths 200 and 300 share.
        problems._generate(problems._van_der_pol_rhs, _UNROLL_LIMIT + 1)
        assert problems._generate.cache_info().misses == 3

    def test_concurrent_extension(self, empty_cache, run_threads):
        # Threads generating the same kernels at once each get the
        # hand-written recurrence's table at every depth, whichever kernel
        # ends up stored; half of them make a new problem per call.
        shared, y = van_der_pol(10.0), [1.7, -0.4]
        returned = []  # (depth, table), checked below

        def work(seed):
            depths = list(range(0, 130, 5))
            random.Random(seed).shuffle(depths)
            for depth in depths:
                problem = van_der_pol(10.0) if seed % 2 else shared
                table = [[x] for x in y]
                problem.recurrence(0.0, table, depth)
                returned.append((depth, table))

        run_threads(work)
        assert len(returned) == 6 * len(range(0, 130, 5))
        hand = _hand_van_der_pol(10.0)
        for depth, table in returned:
            assert repr(table) == repr(_hand_table(hand, 0.0, y, depth))

    def test_import_and_factories_generate_nothing(self):
        src = Path(ieldtm.__file__).resolve().parents[1]
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import numpy as np; from ieldtm import nonlinear, problems, stepper; "
                "[problems.make_problem(name) for name in problems.PROBLEM_NAMES]; "
                "problems.linear_system(np.eye(2)); "
                "print(*(f.cache_info().currsize for f in (problems._generate, "
                "problems._generate_tangent, stepper._horner, "
                "nonlinear._lu_kernel)))")
        out = subprocess.run([sys.executable, "-c", code, str(src)],
                             capture_output=True, text=True, check=True, timeout=60)
        assert out.stdout.strip() == "0 0 0 0"


def _outcome(linearize, y):
    """(r, J) of linearize(y) as the bytes of each entry, or the error it
    raised."""
    try:
        r, J = linearize(y)
    except NonFiniteStateError as exc:
        return repr(exc)
    return [struct.pack("<d", v) for v in r + [v for row in J for v in row]]


class TestTangentKernel:
    """A problem's tangent kernel (``recurrence.tangent(order)``) returns
    the implicit step's residual and Jacobian as the complex step of its
    residual function (the oracle ``complex_step``) does, bit for bit, at
    h = 2^-100: a tangent is the imaginary part over h of the same
    operations in the same order, and scaling by a power of two is
    exact."""

    # (expansion time, state) about which the points are drawn.
    POINTS = {
        "dahlquist": (0.3, [1.3]),
        "duffing": (0.2, [0.5, 0.25]),
        "robertson": (0.01, [0.99, 3e-6, 0.01]),
        "vanderpol": (0.0, [2.0, -0.5]),
        "seir": (66.0, [2.9e6, 4.1e4, 9.5e3, 2.2e4, 5.3e3, 2.2e4]),
    }
    ORDERS = [1, 5, 9, problems._TANGENT_UNROLL_LIMIT,
              problems._TANGENT_UNROLL_LIMIT + 1, _UNROLL_LIMIT,
              _UNROLL_LIMIT + 1, 171]

    @pytest.mark.parametrize("theta", [0.3, 0.5, 1.0])
    @pytest.mark.parametrize("name", PROBLEM_NAMES)
    def test_equals_complex_step(self, name, theta):
        # SEIR with a rate jump at t_c = 66, drawn on both sides of it.
        problem = make_problem(name, **({"eta": 8.0} if name == "seir" else {}))
        t, state = self.POINTS[name]
        rng = random.Random(f"{name}-{theta}")
        finite = 0
        for order in self.ORDERS:
            for _ in range(5):
                y, known = ([v * (1.0 + 0.1 * rng.gauss(0.0, 1.0))
                             for v in state] for _ in range(2))
                t_next = t + rng.uniform(-0.5, 0.5) * (name == "seir")
                dt = rng.choice([2.0 ** -5, 0.01, 0.1])
                residual = complex_residual(problem, t_next, known, theta,
                                            order, dt)
                kernel = problem.recurrence.tangent(order)
                expected = _outcome(
                    functools.partial(complex_step, residual), y)
                assert _outcome(functools.partial(
                    kernel, t_next, -theta * dt, known), y) == expected
                finite += not isinstance(expected, str)
        # Robertson's coefficients grow about a hundredfold per index and
        # leave the float range near X(150), so at K = 171 both sides
        # raise the same error at most points.
        assert finite >= 5 * (len(self.ORDERS) - (name == "robertson"))

    def test_non_finite_coefficient_raises(self):
        # Van der Pol at eps = 1000 from a large state overflows its
        # coefficients; the kernel says where, as the tables do.
        kernel = van_der_pol(1000.0).recurrence.tangent(5)
        with pytest.raises(NonFiniteStateError,
                           match=r"^non-finite Taylor coefficient at t = 1\.5$"):
            kernel(1.5, -0.25, [0.0, 0.0], [1e80, -1e80])

    def test_one_kernel_call_and_one_real_recurrence_call(self):
        # A one-iteration implicit step: Newton takes r and J from one
        # kernel call, then one recurrence call gives the next node's
        # table.
        problem = van_der_pol(10.0)
        recurrence, calls = problem.recurrence, []

        @functools.wraps(recurrence)
        def spy(t, table, depth):
            calls.append(("recurrence", type(table[0][0])))
            recurrence(t, table, depth)

        def tangent(order):
            kernel = recurrence.tangent(order)

            def counted(*args):
                calls.append("kernel")
                return kernel(*args)
            return counted

        spy.tangent = tangent
        table = build_coeff_table(problem, 0.0, [2.0, 0.0], 7)
        state, iters, trial = stepper._step(
            dataclasses.replace(problem, recurrence=spy), 0.0, table, 0.5, 5,
            0.01)
        assert iters == 1
        assert calls == ["kernel", ("recurrence", float)]
        assert trial is not None and [col[0] for col in trial] == state


def _rotation(x, y, z):
    return (y, z, x)


class TestProblemDefinition:
    def test_size_is_the_initial_state_length(self):
        prob = ProblemDefinition(name="x", recurrence=declare(_rotation),
                                 default_initial=[1.0, 2.0, 3.0])
        assert prob.dim == 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            prob.dim = 2

    @pytest.mark.parametrize("initial", [[], [[1.0]], 1.0],
                             ids=["empty", "2-D", "scalar"])
    def test_initial_state_not_a_nonempty_sequence_refused(self, initial):
        with pytest.raises(ValueError, match="default_initial must be a "
                                             "non-empty 1-D sequence"):
            ProblemDefinition(name="x", recurrence=declare(_rotation),
                              default_initial=initial)

    @pytest.mark.parametrize("initial", [[1.0], [1.0, 2.0, 3.0, 4.0]],
                             ids=["shorter", "longer"])
    def test_initial_state_not_the_declared_size_refused(self, initial):
        # The kernels unpack one list per declared state.
        with pytest.raises(ValueError, match="default_initial has "
                                             f"{len(initial)} entries for "
                                             "the 3 states"):
            ProblemDefinition(name="x", recurrence=declare(_rotation),
                              default_initial=initial)

    def test_plain_callable_recurrence_refused(self):
        # Newton's Jacobian comes from the tangent kernel a declaration
        # carries, so a hand-written recurrence has no way in.
        def recurrence(t, table, depth):
            for k in range(depth):
                table[0].append(-table[0][k] / (k + 1))

        with pytest.raises(TypeError, match=r"declare\(\)"):
            ProblemDefinition(name="x", recurrence=recurrence,
                              default_initial=[1.0])

    def test_wrapped_recurrence_accepted(self):
        # As perfbench's tracer wraps it: functools.wraps carries the
        # tangent kernel across.
        problem = van_der_pol(10.0)

        @functools.wraps(problem.recurrence)
        def wrapper(t, table, depth):
            return problem.recurrence(t, table, depth)

        wrapped = dataclasses.replace(problem, recurrence=wrapper)
        assert wrapped.recurrence.tangent is problem.recurrence.tangent
        trace = integrate(wrapped, SchemeConfig(0.5, 5, FixedStep(0.1)), 1.0)
        assert trace.node_states == integrate(
            problem, SchemeConfig(0.5, 5, FixedStep(0.1)), 1.0).node_states

    @pytest.mark.parametrize("initial", [[1, 2, 3], [1.0]],
                             ids=["longer", "shorter"])
    def test_linear_system_refuses_another_initial_length(self, initial):
        # zip would silently drop the extra component, or the missing row.
        with pytest.raises(ValueError, match="default_initial must have 2 "
                                             "entries, one per row of A"):
            linear_system(np.eye(2), default_initial=initial)

    @pytest.mark.parametrize("t_d", [math.nan, math.inf, -math.inf, "x", 1j,
                                     True, None],
                             ids=["nan", "inf", "-inf", "str", "complex",
                                  "bool", "None"])
    def test_non_finite_discontinuity_refused(self, t_d):
        with pytest.raises(ValueError, match=r"discontinuities must be finite "
                                             r"real numbers, got "):
            dataclasses.replace(dahlquist(), discontinuities=(1.0, t_d))

    def test_finite_discontinuities_accepted(self):
        prob = dataclasses.replace(dahlquist(),
                                   discontinuities=(0.5, np.float64(0.75), 1))
        trace = integrate(prob, SchemeConfig(0.5, 3, FixedStep(0.2)), 1.0)
        assert trace.status == "completed"
        assert {0.5, 0.75} <= set(trace.node_times)


def _scalar_derivative(x, *, c):
    return (c,)


def _series_named_like_a_state(x):
    return (-(Series("x", x * x) * x),)


def _parameter_named_t(x, *, t):
    return (t * x,)


def _too_few_terms(x, y):
    return (y,)


def _series_name_not_an_identifier(x):
    return (-(Series("not valid", x * x) * x),)


def _series_name_repeated(x, y):
    return (Series("w", x * x) * y, Series("w", y * y) * x)


def _parameter_named_like_a_local(x, *, x_1):
    return (x_1 * x,)


def _scalar_series(x, *, c):
    return (Series("w", c) * x,)


def _infinite_constant(x):
    return (math.inf * x,)


def _series_without_a_term(x):
    return (Series("q") * x,)


class TestDeclare:
    """declare() refuses a declaration whose kernels would be wrong or would
    not compile, and says which state or name is at fault."""

    @pytest.mark.parametrize("rhs, params, error, name", [
        (_scalar_derivative, {"c": 2.0}, TypeError, "derivative of x"),
        (_series_named_like_a_state, {}, ValueError, "'x'"),
        (_parameter_named_t, {"t": 3.0}, ValueError, "'t'"),
        (_too_few_terms, {}, ValueError, "states x, y"),
        (_series_name_not_an_identifier, {}, ValueError, "'not valid'"),
        (_series_name_repeated, {}, ValueError, "'w'"),
        (_parameter_named_like_a_local, {"x_1": 1.0}, ValueError, "'x_1'"),
        (_scalar_series, {"c": 2.0}, TypeError, "'w'"),
        (_infinite_constant, {}, ValueError, "constant must be finite"),
        (_series_without_a_term, {}, ValueError, "'q'"),
        (problems._dahlquist_rhs, {}, TypeError, "(lam)"),
        (problems._dahlquist_rhs, {"lam": math.nan}, ValueError,
         "lam must be finite"),
    ], ids=["scalar-derivative", "series-named-like-a-state",
            "parameter-named-t", "too-few-terms", "not-an-identifier",
            "repeated-name", "local-collision", "scalar-series",
            "infinite-constant", "series-without-a-term", "missing-parameter",
            "nan-parameter"])
    def test_refused(self, rhs, params, error, name):
        with pytest.raises(error, match=re.escape(name)):
            declare(rhs, **params)

    def test_built_in_declarations_accepted(self):
        for rhs in (problems._dahlquist_rhs, problems._duffing_rhs,
                    problems._robertson_rhs, problems._van_der_pol_rhs,
                    problems._seir_rhs, problems._linear_rhs(3)):
            problems._declaration(rhs)
