"""Coefficient-sequence algebra: convolution products and series evaluation."""

import math
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ieldtm.errors import NonFiniteStateError
from ieldtm.problems import dahlquist
from ieldtm.stepper import build_coeff_table
from ieldtm.taylor import cauchy_product, horner_eval


def triple_product(a, b, c, k: int):
    """Nested convolution sum_{l=0}^{k} sum_{n=0}^{l} a(n) b(l-n) c(k-l),
    the transform of a*b*c, with the prefix a*b recomputed on every call.

    The Van der Pol and Duffing recurrences used this before they kept the
    prefix as an auxiliary series; their tables must still equal it bit for
    bit, so it stays here as the oracle."""
    if len(a) <= k or len(b) <= k or len(c) <= k:
        raise IndexError(f"sequences must be defined up to index {k}")
    total = 0.0
    for l in range(k + 1):
        total += sum(map(mul, a[: l + 1], b[l::-1])) * c[k - l]
    return total


def exp_coeffs(n):
    return np.array([1.0 / math.factorial(k) for k in range(n)])


def sequences(min_len=1, max_len=10):
    return st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        min_size=min_len, max_size=max_len,
    ).map(np.array)


class TestCauchyProduct:
    def test_exponential_square(self):
        # coefficient of t^2 in e^(2t) is 2^2/2! = 2
        a = exp_coeffs(4)
        assert cauchy_product(a, a, 2) == pytest.approx(2.0)

    def test_identity_element(self):
        a = np.array([3.0, -1.0, 7.0])
        e = np.array([1.0, 0.0, 0.0])
        assert cauchy_product(a, e, 2) == pytest.approx(a[2])

    def test_zero_annihilator(self):
        z = np.zeros(6)
        b = np.arange(6, dtype=float)
        assert cauchy_product(z, b, 5) == 0.0

    def test_short_sequence_rejected(self):
        with pytest.raises(IndexError):
            cauchy_product(np.ones(2), np.ones(5), 4)

    @given(sequences(min_len=6, max_len=6), sequences(min_len=6, max_len=6))
    def test_commutativity(self, a, b):
        assert cauchy_product(a, b, 5) == pytest.approx(
            cauchy_product(b, a, 5), abs=1e-9)

    @given(sequences(min_len=6, max_len=6), sequences(min_len=6, max_len=6),
           sequences(min_len=6, max_len=6),
           st.floats(min_value=-5, max_value=5, allow_nan=False),
           st.floats(min_value=-5, max_value=5, allow_nan=False))
    def test_bilinearity(self, a, a2, b, alpha, beta):
        lhs = cauchy_product(alpha * a + beta * a2, b, 5)
        rhs = (alpha * cauchy_product(a, b, 5)
               + beta * cauchy_product(a2, b, 5))
        assert lhs == pytest.approx(rhs, abs=1e-8 * (1 + abs(rhs)))


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
    @given(sequences(min_len=9, max_len=9), sequences(min_len=9, max_len=9),
           sequences(min_len=9, max_len=9), st.integers(0, 8))
    def test_matches_nested_convolution(self, a, b, c, k):
        ab = np.array([cauchy_product(a, b, j) for j in range(k + 1)])
        expected = cauchy_product(ab, c, k)
        assert triple_product(a, b, c, k) == pytest.approx(
            expected, abs=1e-7 * (1 + abs(expected)))


class TestBatchAxis:
    """The list products (the triple one being the oracle above), per column,
    against numpy's convolution of the same columns."""

    @pytest.mark.parametrize("k", range(8))
    def test_cauchy_matches_columns(self, k):
        a, b = np.random.default_rng(k).normal(size=(2, 8, 5))
        expected = np.einsum("j...,j...->...", a[: k + 1], b[k::-1])
        columns = [cauchy_product(a[:, j].tolist(), b[:, j].tolist(), k)
                   for j in range(5)]
        np.testing.assert_allclose(columns, expected, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("k", range(8))
    def test_triple_matches_columns(self, k):
        a, b, c = np.random.default_rng(k).normal(size=(3, 8, 5))
        ab = np.array([np.convolve(a[:, j], b[:, j])[: k + 1] for j in range(5)]).T
        expected = np.einsum("j...,j...->...", ab, c[k::-1])
        columns = [triple_product(a[:, j].tolist(), b[:, j].tolist(),
                                  c[:, j].tolist(), k) for j in range(5)]
        np.testing.assert_allclose(columns, expected, rtol=1e-14, atol=1e-14)


class TestCoeffTable:
    """A coefficient table is a list of per-component lists of floats."""

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteStateError,
                           match=r"^non-finite Taylor coefficient at t = 0\.0$"):
            build_coeff_table(dahlquist(1.0), 0.0, [np.nan], 1)

    def test_eval_point_order_capped_by_depth(self):
        table = [[1.0, 1.0, 1.0]]
        with pytest.raises((ValueError, IndexError)):
            horner_eval(table, 0.1, 5)
        with pytest.raises(ValueError):
            horner_eval(table, 0.1, -1)


class TestHornerEval:
    def test_truncated_exponential(self):
        table = [exp_coeffs(3).tolist()]
        value = horner_eval(table, 0.1, 2)
        assert value[0] == pytest.approx(1.105)

    def test_zero_offset_returns_state(self):
        table = [[4.0, 1.0, 9.0]]
        assert horner_eval(table, 0.0, 2)[0] == 4.0

    def test_alternating_series(self):
        # e^(-t) truncated: 1 - 1 + 1/2 at offset 1
        table = [[1.0, -1.0, 0.5]]
        assert horner_eval(table, 1.0, 2)[0] == pytest.approx(0.5)

    @given(st.lists(st.floats(min_value=-3, max_value=3, allow_nan=False),
                    min_size=1, max_size=13),
           st.floats(min_value=-2, max_value=2, allow_nan=False))
    def test_matches_naive_power_sum(self, coeffs, offset):
        table = [coeffs]
        order = len(coeffs) - 1
        naive = sum(c * offset ** k for k, c in enumerate(coeffs))
        value = horner_eval(table, offset, order)[0]
        assert value == pytest.approx(naive, abs=1e-10 * (1 + abs(naive)))
