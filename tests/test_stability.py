"""Stability function, region sampling, certificates and the log-norm."""

import cmath
import math
import re
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from ieldtm.errors import PoleError
from ieldtm.stability import (
    A_STABLE_SLACK,
    MAX_ORDER,
    StabilityGrid,
    _abs_R_array,
    _order_facts,
    _OrderFacts,
    _stable,
    contraction_certificate,
    is_A_stable,
    is_L_stable,
    log_norm_euclid,
    matrix_R,
    sample_region,
    scalar_R,
    unstable_fraction,
)


@pytest.mark.parametrize("order", [0, -1])
@pytest.mark.parametrize("call", [
    lambda order: scalar_R(-1.0, 0.5, order),
    lambda order: sample_region(0.5, order, resolution=3),
    lambda order: is_A_stable(0.5, order),
    lambda order: is_L_stable(1.0, order),
    lambda order: is_L_stable(0.5, order),
    lambda order: matrix_R(0.5, -np.eye(2), order),
], ids=["scalar_R", "sample_region", "is_A_stable", "is_L_stable",
        "is_L_stable-central", "matrix_R"])
def test_order_below_one_rejected(call, order):
    with pytest.raises(ValueError, match="order must be >= 1"):
        call(order)


_CALLS = {
    "scalar_R": lambda theta, order: scalar_R(-1.0, theta, order),
    "sample_region": lambda theta, order: sample_region(theta, order, resolution=3),
    "is_A_stable": is_A_stable,
    "is_L_stable": is_L_stable,
    "matrix_R": lambda theta, order: matrix_R(theta, -np.eye(2), order),
}


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf, -0.1, 1.5])
@pytest.mark.parametrize("name", _CALLS)
def test_theta_outside_unit_interval_rejected(name, theta):
    # A nan theta fails every comparison, so without the check the exact
    # decision would take it for theta > 0.5.
    with pytest.raises(ValueError, match=re.escape("theta must be in [0, 1]")):
        _CALLS[name](theta, 3)


@pytest.mark.parametrize("order", [True, 3.0, 2.5, "3"])
@pytest.mark.parametrize("name", _CALLS)
def test_non_integer_order_rejected(name, order):
    with pytest.raises(ValueError, match="order must be an integer"):
        _CALLS[name](0.5, order)


@pytest.mark.parametrize("order", [MAX_ORDER + 1, 171])
@pytest.mark.parametrize("name", _CALLS)
def test_order_above_max_order_rejected(name, order):
    # Above MAX_ORDER a pole witness need not have |R| > 1, and from 171 on
    # 1 / K! overflows a float.
    with pytest.raises(ValueError, match=f"order must be <= {MAX_ORDER}"):
        _CALLS[name](0.5, order)


def test_numpy_integer_order_accepted():
    assert is_A_stable(0.5, np.int64(3)) == (True, None)


class TestScalarR:
    def test_unity_at_origin(self):
        for theta in (0.0, 0.5, 1.0):
            for order in (1, 3, 6):
                assert scalar_R(0.0, theta, order) == 1.0

    def test_crank_nicolson_zero(self):
        assert scalar_R(-2.0, 0.5, 1) == pytest.approx(0.0, abs=1e-15)

    def test_forward_euler_boundary(self):
        assert scalar_R(-2.0, 0.0, 1) == pytest.approx(-1.0)

    def test_backward_euler(self):
        assert scalar_R(-1.0, 1.0, 1) == pytest.approx(0.5)

    def test_pole_raises(self):
        # theta=1, K=1: denominator 1 - z vanishes at z = 1
        with pytest.raises(PoleError):
            scalar_R(1.0, 1.0, 1)

    def test_pade_consistency_order(self):
        """|R(z) - e^z| shrinks at the scheme order + 1 as z -> 0."""
        for theta, order, q in ((0.5, 3, 4), (0.5, 2, 2), (1.0, 3, 3),
                                (0.0, 2, 2)):
            z = -np.logspace(-2, -0.5, 40)
            err = np.array([abs(scalar_R(zi, theta, order) - cmath.exp(zi))
                            for zi in z])
            keep = err > 1e-14  # below this the error is round-off, not truncation
            slope = np.polyfit(np.log(-z[keep]), np.log(err[keep]), 1)[0]
            assert slope == pytest.approx(q + 1, abs=0.2)


class TestSampleRegion:
    def test_forward_euler_disk(self):
        grid = sample_region(0.0, 1, (-3.0, 1.0), (-2.0, 2.0), (201, 201))
        z = grid.re_values[:, None] + 1j * grid.im_values[None, :]
        inside = np.abs(1.0 + z) <= 1.0
        cell = max(grid.re_values[1] - grid.re_values[0],
                   grid.im_values[1] - grid.im_values[0])
        # Disagreement allowed only within one cell of the circle boundary.
        mismatch = (grid.values <= 1.0) != inside
        assert np.abs(np.abs(1.0 + z[mismatch]) - 1.0).max() <= cell if \
            mismatch.any() else True

    def test_central_k2_left_half_plane(self):
        grid = sample_region(0.5, 2, (-50.0, 0.0), (-50.0, 50.0), (101, 101))
        assert grid.values.max() <= 1.0 + 1e-12

    def test_forward_k4_region_bounded(self):
        grid = sample_region(0.0, 4, (-10.0, 0.0), (-10.0, 10.0), (101, 101))
        assert (grid.values > 1.0).any()

    def test_conjugate_symmetry(self):
        grid = sample_region(0.5, 3, (-5.0, 2.0), (-4.0, 4.0), (41, 41))
        np.testing.assert_allclose(grid.values, grid.values[:, ::-1],
                                   rtol=1e-12)

    def test_resolution_validated(self):
        with pytest.raises(ValueError):
            sample_region(0.5, 2, resolution=1)

    @pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("which", range(4))
    def test_non_finite_bound_rejected(self, which, bound):
        bounds = [-10.0, 5.0, -10.0, 10.0]
        bounds[which] = bound
        name = ("re_range", "im_range")[which // 2] + f"[{which % 2}]"
        with pytest.raises(ValueError, match=re.escape(f"{name} must be finite")):
            sample_region(0.5, 4, bounds[:2], bounds[2:], 5)

    @pytest.mark.parametrize("order", [1, 4, 9, 12])
    @pytest.mark.parametrize("theta", [0.3, 0.5, 0.7, 1.0])
    def test_huge_window_tends_to_far_limit(self, theta, order):
        # T_K overflows at |z| = 1e100 for K >= 4, so the far cells are
        # evaluated in 1/z: |R| -> ((1 - theta) / theta)^K, with no
        # RuntimeWarning (an error in this suite) and no nan.  |R| differs
        # from its limit by O(1/|z|) = 1e-100.
        grid = sample_region(theta, order, (-1e100, 1e100), (-1e100, 1e100), 5)
        limit = ((1.0 - theta) / theta) ** order
        far = np.ones((5, 5), dtype=bool)
        far[2, 2] = False  # z = 0, where |R| = 1
        assert grid.values[2, 2] == 1.0
        np.testing.assert_allclose(grid.values[far], limit, rtol=1e-12,
                                   atol=1e-99)
        assert (unstable_fraction(grid) > 0.0) == (theta < 0.5)

    @pytest.mark.parametrize("shape", [(400, 400), (1000, 37), (3, 20000),
                                       (2, 2), (41, 41)])
    def test_blocks_match_whole_mesh(self, shape):
        # (1000, 37) ends in a short block; a (3, 20000) row exceeds a block.
        for theta in (0.0, 0.3, 0.5, 0.7, 1.0):
            for order in (1, 4, 9, 12):
                grid = sample_region(theta, order, resolution=shape)
                z = grid.re_values[:, None] + 1j * grid.im_values[None, :]
                expected = _abs_R_array(z, theta, order)
                assert grid.values.tobytes() == expected.tobytes()

    def test_peak_memory_is_output_plus_one_block(self):
        sample_region(0.5, 4, resolution=(2, 2))  # caches filled
        tracemalloc.start()
        try:
            grid = sample_region(0.5, 4, resolution=(1000, 1000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= grid.values.nbytes + 4 * 2**20

    def test_unstable_fraction_uses_certificate_slack(self):
        values = np.array([[1.0 + 0.5 * A_STABLE_SLACK, 1.0 + 2.0 * A_STABLE_SLACK]])
        grid = StabilityGrid(0.5, 3, np.array([-1.0]), np.array([0.0, 1.0]), values)
        assert unstable_fraction(grid) == 0.5

    def test_unstable_fraction_quantifies_almost_stability(self):
        stable = sample_region(0.5, 3, (-50.0, 0.0), (-50.0, 50.0), (121, 121))
        almost = sample_region(0.5, 5, (-50.0, 0.0), (-50.0, 50.0), (121, 121))
        assert unstable_fraction(stable) == 0.0
        assert 0.0 < unstable_fraction(almost) < 0.01


def _abs_R(z, theta, order):
    """|R(z)| by numpy's own polynomial evaluation."""
    c = [1.0 / math.factorial(k) for k in range(order, -1, -1)]
    num = np.polyval(np.array(c) * (1.0 - theta) ** np.arange(order, -1, -1), z)
    den = np.polyval(np.array(c) * (-theta) ** np.arange(order, -1, -1), z)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.abs(den) < 1e-300, np.inf, np.abs(num) / np.abs(den))


def _sampled_A_stable(theta, order, slack=1e-10):
    """The sampling certificate the exact test replaced, kept as an oracle:
    left-half-plane poles, then |R| <= 1 + slack on the far negative real
    axis, 10 001 imaginary-axis points and a 121 x 241 interior grid."""
    if theta > 0.0:
        den = [(-theta) ** k / math.factorial(k) for k in range(order, -1, -1)]
        if (np.roots(den).real <= 1e-9).any():
            return False
    y = np.concatenate([[0.0], np.logspace(-6, 6, 5000)])
    re = np.linspace(-50.0, 0.0, 121)
    im = np.linspace(-50.0, 50.0, 241)
    for z in (-np.logspace(0.0, 8.0, 200) + 0.0j,
              1j * np.concatenate([-y[::-1], y]),
              re[:, None] + 1j * im[None, :]):
        if (_abs_R(z, theta, order) > 1.0 + slack).any():
            return False
    return True


_ORACLE_THETAS = np.concatenate([
    np.linspace(0.0, 1.0, 41),
    np.random.default_rng(7).uniform(0.0, 1.0, 10),
])


# theta = 0.5 -+ 10^-k, k = 1..16; every one is a float other than 0.5.
_NEAR_HALF = np.array([0.5 + sign * 10.0 ** -k for k in range(1, 17)
                       for sign in (-1.0, 1.0)])


def _abs_R_mp(z, theta, order):
    """|R(z)| in mpmath at the working precision."""
    z, theta = mpmath.mpc(z), mpmath.mpf(theta)
    def t(w):
        return mpmath.fsum(w ** k / mpmath.factorial(k) for k in range(order + 1))
    return abs(t((1 - theta) * z)) / abs(t(-theta * z))


class TestAStability:
    @pytest.mark.parametrize("theta,order", [(0.5, 1), (0.5, 2), (0.5, 3),
                                             (0.5, 4), (1.0, 1), (1.0, 2)])
    def test_stable_cases(self, theta, order):
        stable, witness = is_A_stable(theta, order)
        assert stable and witness is None

    @pytest.mark.parametrize("order", range(1, 7))
    def test_forward_never_stable(self, order):
        stable, witness = is_A_stable(0.0, order)
        assert not stable
        assert witness is not None
        # The violation shows up on the negative real axis, far from 0.
        assert witness.real < -1.0
        assert abs(scalar_R(witness, 0.0, order)) > 1.0

    def test_higher_order_central_almost_stable(self):
        stable, witness = is_A_stable(0.5, 5)
        assert not stable and witness is not None

    @pytest.mark.parametrize("order", range(1, 13))
    def test_agrees_with_dense_sampling(self, order):
        for theta in _ORACLE_THETAS:
            stable, _ = is_A_stable(theta, order)
            assert stable == _sampled_A_stable(theta, order), theta

    @pytest.mark.parametrize("order", range(1, 13))
    def test_witness_violates(self, order):
        for theta in _ORACLE_THETAS:
            stable, witness = is_A_stable(theta, order)
            if stable:
                assert witness is None
            else:
                assert _abs_R(witness, theta, order) > 1.0 + 1e-10, theta

    @pytest.mark.parametrize("order", range(1, 5))
    def test_witness_violates_just_below_half(self, order):
        # No far real sample gets past the slack this close to 0.5; the
        # witness then comes from the E polynomial on the imaginary axis.
        for k in range(2, 11):
            theta = 0.5 - 10.0 ** -k
            stable, witness = is_A_stable(theta, order)
            assert not stable and witness is not None
            assert _abs_R(witness, theta, order) > 1.0, (theta, witness)

    @pytest.mark.parametrize("order", [3, 4])
    def test_witness_violates_just_above_half(self, order):
        # The violation on iR is O(theta - 0.5), below A_STABLE_SLACK at
        # 1e-10; the witness still has |R| > 1.
        for k in range(2, 11):
            theta = 0.5 + 10.0 ** -k
            stable, witness = is_A_stable(theta, order)
            assert not stable and witness is not None
            assert _abs_R(witness, theta, order) > 1.0, (theta, witness)

    @pytest.mark.parametrize("order", range(1, 13))
    def test_classification_next_to_half(self, order):
        for theta in _NEAR_HALF:
            stable, witness = is_A_stable(theta, order)
            assert stable == (theta > 0.5 and order <= 2), theta
            assert (witness is None) == stable
            assert not is_L_stable(theta, order)

    @pytest.mark.parametrize("order", range(1, 13))
    def test_witness_violates_in_extended_precision(self, order):
        # The witness is found in float64; |R(w)| > 1 is checked at 50 digits
        # with the exact values of the float theta and w.
        with mpmath.workdps(50):
            for theta in np.concatenate([_ORACLE_THETAS, _NEAR_HALF]):
                stable, witness = is_A_stable(theta, order)
                if not stable:
                    assert _abs_R_mp(witness, theta, order) > 1, (theta, witness)

    def test_witness_violates_at_max_order(self):
        # MAX_ORDER is the highest order at which every witness on this grid
        # passes the slack; every 20th is also checked at 50 digits.
        for k, theta in enumerate(np.linspace(0.0, 1.0, 201)):
            stable, witness = is_A_stable(theta, MAX_ORDER)
            assert not stable
            assert _abs_R(witness, theta, MAX_ORDER) > 1.0 + A_STABLE_SLACK, theta
            if k % 20 == 0:
                with mpmath.workdps(50):
                    assert _abs_R_mp(witness, theta, MAX_ORDER) > 1 + A_STABLE_SLACK

    def test_exact_stable_theta_sets(self):
        thetas = np.linspace(0.0, 1.0, 201)
        for order, expected in ((1, thetas >= 0.5), (2, thetas >= 0.5),
                                (3, thetas == 0.5), (4, thetas == 0.5)):
            got = np.array([is_A_stable(t, order)[0] for t in thetas])
            np.testing.assert_array_equal(got, expected)
        for order in range(5, 13):
            assert not any(is_A_stable(t, order)[0] for t in thetas)


def _exact_e(theta, order):
    """E's coefficients in s = y^2, e[m] = b[m] (theta^2m - (1 - theta)^2m),
    from the exact b and the exact value of the float theta."""
    t = Fraction(theta)
    return [bm * (t ** (2 * m) - (1 - t) ** (2 * m))
            for m, bm in enumerate(_order_facts(order).b)]


class TestEPolynomial:
    @pytest.mark.parametrize("theta", [0.0, 0.3, 0.5, 0.8, 1.0])
    def test_first_order_closed_form(self, theta):
        assert _exact_e(theta, 1) == [0, 2 * Fraction(theta) - 1]

    def test_backward_third_order_closed_form(self):
        expected = [0, 0, Fraction(-1, 12), Fraction(1, 36)]
        assert list(_order_facts(3).b) == expected
        assert _exact_e(1.0, 3) == expected

    @pytest.mark.parametrize("order", range(1, 9))
    def test_matches_definition(self, order):
        """E(y) = sum b[m] (theta^2m - (1 - theta)^2m) y^2m equals
        |T_K(-i theta y)|^2 - |T_K(i (1 - theta) y)|^2."""
        c = [1.0 / math.factorial(k) for k in range(order, -1, -1)]
        y = np.linspace(-3.0, 3.0, 13)
        for theta in (0.2, 0.5, 0.75, 1.0):
            direct = (np.abs(np.polyval(c, -1j * theta * y)) ** 2
                      - np.abs(np.polyval(c, 1j * (1.0 - theta) * y)) ** 2)
            e = np.array(_exact_e(theta, order), dtype=float)
            np.testing.assert_allclose(np.polyval(e[::-1], y ** 2), direct,
                                       atol=1e-12 * (1.0 + np.abs(direct).max()))

    def test_central_scheme_vanishes(self):
        for order in range(1, 13):
            assert not any(_exact_e(0.5, order))


class TestOrderFacts:
    @pytest.mark.parametrize("order", range(1, 21))
    def test_hurwitz_by_routh_matches_roots(self, order):
        coeffs = [1.0 / math.factorial(k) for k in range(order, -1, -1)]
        largest = np.roots(coeffs).real.max()
        assert _order_facts(order).hurwitz == (order <= 4) == (largest < 0.0)

    @pytest.mark.parametrize("order", range(1, 13))
    def test_signs_are_those_of_b(self, order):
        facts = _order_facts(order)
        assert facts.signs == tuple((x > 0) - (x < 0) for x in facts.b if x)
        assert facts.b[-1] == Fraction(1, math.factorial(order) ** 2)

    def test_theta_dependent_sign_of_e_is_refused(self):
        # No T_K reaches this: where T_K is Hurwitz (K <= 4) the b[m] are all
        # positive or the lowest is negative.  So the facts are made up.
        facts = _OrderFacts(True, (0, 1, -1, 1), (1, -1, 1), None)
        with pytest.raises(NotImplementedError, match="Sturm"):
            _stable(0.75, facts)

    def test_warm_cache_needs_no_float_roots(self, monkeypatch):
        for order in range(1, 13):
            _order_facts(order)

        def refuse(*args, **kwargs):
            raise AssertionError("float polynomial routine called")
        monkeypatch.setattr(np, "roots", refuse)
        monkeypatch.setattr(np, "polyval", refuse)
        for order in range(1, 13):
            for theta in _ORACLE_THETAS:
                is_A_stable(theta, order)
                is_L_stable(theta, order)


class TestLStability:
    def test_backward_low_orders(self):
        assert is_L_stable(1.0, 1)
        assert is_L_stable(1.0, 2)
        assert abs(scalar_R(-1e6, 1.0, 1)) == pytest.approx(1.0 / (1.0 + 1e6))

    @pytest.mark.parametrize("order", range(1, 5))
    def test_central_never_l_stable(self, order):
        # |R(z)| -> 1 as z -> -inf for the degree-matched central rational.
        assert not is_L_stable(0.5, order)

    @pytest.mark.parametrize("order", range(1, 13))
    def test_l_implies_a(self, order):
        for theta in _ORACLE_THETAS:
            if is_L_stable(theta, order):
                assert is_A_stable(theta, order)[0]

    @pytest.mark.parametrize("theta", [0.25, 0.5, 0.75, 0.9, 1.0])
    @pytest.mark.parametrize("order", [1, 2, 4])
    def test_limit_at_infinity(self, theta, order):
        """|R(inf)| = ((1 - theta) / theta)^K, zero only at theta = 1."""
        expected = ((1.0 - theta) / theta) ** order
        assert abs(scalar_R(-1e7, theta, order)) == pytest.approx(
            expected, rel=1e-5, abs=1e-6)
        assert is_L_stable(theta, order) == (theta == 1.0 and order <= 2)


class TestMatrixR:
    def test_zero_matrix_is_identity(self):
        np.testing.assert_array_equal(matrix_R(0.5, np.zeros((3, 3)), 4),
                                      np.eye(3))

    def test_diagonal_commutes_with_scalar(self):
        dtA = np.diag([-0.5, -2.0])
        R = matrix_R(0.5, dtA, 3)
        expected = np.diag([scalar_R(-0.5, 0.5, 3).real,
                            scalar_R(-2.0, 0.5, 3).real])
        np.testing.assert_allclose(R, expected, atol=1e-13)

    def test_symmetric_eigendecomposition_consistency(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = int(rng.integers(2, 7))
            S = rng.normal(size=(m, m))
            A = (S + S.T) / 2.0
            w, V = np.linalg.eigh(0.2 * A)
            R = matrix_R(0.5, 0.2 * A, 3)
            expected = V @ np.diag([scalar_R(z, 0.5, 3).real for z in w]) @ V.T
            assert np.abs(R - expected).max() <= 1e-10

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            matrix_R(0.5, np.ones((2, 3)), 2)


class TestLogNorm:
    def test_diagonal(self):
        assert log_norm_euclid(np.diag([-1.0, -2.0])) == pytest.approx(-1.0)

    def test_zero(self):
        assert log_norm_euclid(np.zeros((4, 4))) == 0.0

    def test_skew_symmetric(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert log_norm_euclid(A) == pytest.approx(0.0, abs=1e-14)


class TestContractionCertificate:
    def test_stiff_diagonal_contracts(self):
        A = np.diag([-1.0, -1e4])
        assert contraction_certificate(0.5, 2, A, 1.0)
        assert np.linalg.norm(matrix_R(0.5, A, 2), 2) <= 1.0 + 1e-12

    def test_trapezoidal_rotation_preserves_norm(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert contraction_certificate(0.5, 1, A, 0.7)
        assert np.linalg.norm(matrix_R(0.5, 0.7 * A, 1), 2) == pytest.approx(1.0)

    def test_positive_log_norm_denied(self):
        A = np.array([[1.0, 0.0], [0.0, -5.0]])
        assert not contraction_certificate(0.5, 2, A, 0.1)

    def test_unstable_scheme_denied(self):
        assert not contraction_certificate(0.0, 2, np.diag([-1.0, -2.0]), 0.1)
