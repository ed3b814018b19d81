"""Stability toolkit: rational stability function, region sampling,
exact A-/L-stability certificates, matrix stability function and the
logarithmic-norm contraction predicate.

The scalar stability function is the ratio of two truncated exponentials,

    R(z) = T_K((1 - theta) z) / T_K(-theta z),   T_K(w) = sum_{k<=K} w^k / k!,

so R(z) approximates e^z near the origin and the classical theta-method is
recovered at K = 1.

R is A-stable exactly when it has no pole with Re z <= 0 and, for real y,
E(y) = |T_K(-i theta y)|^2 - |T_K(i (1 - theta) y)|^2 >= 0 (Hairer & Wanner,
Solving ODEs II, IV.3), where E = sum_m b[m] (theta^2m - (1 - theta)^2m) y^2m.
The certificates decide this from exact per-K facts by comparisons alone.
T_K is Hurwitz by Routh's table on its coefficients 1/k! (Gantmacher, Theory
of Matrices II, XV) only for K <= 4; otherwise R has a pole with Re z <= 0
for every theta > 0.  Below theta = 0.5, |R(-inf)| = ((1 - theta) / theta)^K
> 1; at 0.5, E = 0; above, E >= 0 when every nonzero b[m] is positive and
E < 0 near 0 when the lowest is negative.  So the A-stable sets are theta in
[0.5, 1] for K <= 2, 0.5 for K = 3, 4 and none for K >= 5; L-stable
(R(-inf) = 0) only at theta = 1, K <= 2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .errors import IeldtmError, PoleError, SingularMatrixError

__all__ = [
    "StabilityGrid",
    "scalar_R",
    "sample_region",
    "unstable_fraction",
    "is_A_stable",
    "is_L_stable",
    "matrix_R",
    "log_norm_euclid",
    "contraction_certificate",
]

_POLE_FLOOR = 1e-300
A_STABLE_SLACK = 1e-10
# The highest order the functions accept.  The pole witness is placed from
# np.roots of T_K, which loses accuracy with the degree: at K = 92 the witness
# has |R| <= 1 + A_STABLE_SLACK at 67 of the 201 thetas 0, 0.005, ..., 1, and
# from K = 171 on 1 / K! overflows a float.  Every K <= 91 passes at all 201.
MAX_ORDER = 91
# Grid points per block of rows in sample_region (256 KiB of complex128).
# Whole-grid temporaries are several MB each, taken as fresh pages whose
# faults cost as much as the arithmetic.  Per 400^2 grid on a 2-vCPU Xeon VM,
# blocks of 8 192 and 16 384 points take no page fault and 3.9-6.0 and
# 3.6-5.5 ms, 4 096 points 4.1-6.7 ms; 32 768 and 65 536 points fault about
# 790 and 2 160 times and take 5.1-7.5 and 7.8-11.5 ms, the whole grid at once
# 2 155 times and 11.3-12.0 ms.
_BLOCK_POINTS = 1 << 14


def _check(theta: float, order: int) -> None:
    """SchemeConfig's rules plus order <= MAX_ORDER (int is tested first: the
    Integral check is slow)."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must be in [0, 1]")
    if isinstance(order, bool) or not isinstance(order, (int, Integral)):
        raise ValueError(f"order must be an integer, got {order!r}")
    if order < 1:
        raise ValueError("order must be >= 1")
    if order > MAX_ORDER:
        raise ValueError(f"order must be <= {MAX_ORDER}")


def _trunc_exp(w, order: int):
    """Horner evaluation of the degree-``order`` Taylor polynomial of e^w;
    works elementwise, in place, on complex arrays (``[()]`` turns a 0-d
    input into a numpy scalar, which is far cheaper than a 0-d array)."""
    acc = np.full_like(np.asarray(w, dtype=complex), 1.0 / math.factorial(order))[()]
    for k in range(order - 1, -1, -1):
        acc *= w
        acc += 1.0 / math.factorial(k)
    return acc


def scalar_R(z: complex, theta: float, order: int) -> complex:
    """Scalar stability function R(z) for one (theta, K)."""
    _check(theta, order)
    num = _trunc_exp((1.0 - theta) * z, order)
    den = _trunc_exp(-theta * z, order)
    if abs(den) < _POLE_FLOOR:
        raise PoleError(f"denominator vanishes at z = {z!r}")
    return complex(num / den)


def _trunc_exp_reversed(a: float, w, order: int):
    """w^K T_K(a / w), the Horner evaluation in w of T_K's coefficients
    a^k / k! in reverse order: T_K(a z) z^-K at w = 1/z, finite where |z| is
    so large that T_K(a z) overflows."""
    acc = np.ones_like(w)
    for k in range(1, order + 1):
        acc *= w
        acc += a ** k / math.factorial(k)
    return acc


def _abs_num_den(z, theta: float, order: int):
    """|T_K((1 - theta) z)| and |T_K(-theta z)|, or where either overflows,
    both times |z|^-K, from the reversed evaluation in 1/z."""
    try:
        # Inputs are finite, so a non-finite value needs an overflow first;
        # raising on it spares a finite array a separate finiteness pass.
        with np.errstate(over="raise", invalid="raise"):
            return (np.abs(_trunc_exp((1.0 - theta) * z, order)),
                    np.abs(_trunc_exp(-theta * z, order)))
    except FloatingPointError:
        pass
    with np.errstate(over="ignore", invalid="ignore"):
        num = np.abs(_trunc_exp((1.0 - theta) * z, order))
        den = np.abs(_trunc_exp(-theta * z, order))
    far = ~(np.isfinite(num) & np.isfinite(den))
    w = 1.0 / z[far]
    num[far] = np.abs(_trunc_exp_reversed(1.0 - theta, w, order))
    den[far] = np.abs(_trunc_exp_reversed(-theta, w, order))
    return num, den


def _abs_R_array(z, theta: float, order: int) -> np.ndarray:
    """|R| over a complex array; poles map to +inf.  Where |z| is so large
    that T_K overflows, |R| comes from the reversed evaluation in 1/z and
    tends to ((1 - theta) / theta)^K, as it should."""
    num, den = _abs_num_den(z, theta, order)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(den < _POLE_FLOOR, np.inf, num / np.maximum(den, _POLE_FLOOR))
    return out


@dataclass(frozen=True)
class StabilityGrid:
    """|R(z)| sampled on a complex-plane rectangle; values[i, j] belongs to
    re_values[i] + 1j * im_values[j]."""

    theta: float
    order: int
    re_values: np.ndarray
    im_values: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.re_values.size, self.im_values.size):
            raise ValueError("values shape must match the axis resolutions")
        if np.nanmin(self.values) < 0:
            raise ValueError("|R| samples must be non-negative")


def sample_region(theta: float, order: int, re_range=(-10.0, 5.0),
                  im_range=(-10.0, 10.0), resolution=(400, 400)) -> StabilityGrid:
    """Sample |R| on a uniform grid for region plotting.

    The grid is evaluated one block of rows at a time, so peak memory is the
    output plus one block.  Every operation is elementwise, so the values do
    not depend on the blocking."""
    _check(theta, order)
    for name, bounds in (("re_range", re_range), ("im_range", im_range)):
        for k, bound in enumerate(bounds):
            if not math.isfinite(bound):
                raise ValueError(f"{name}[{k}] must be finite, got {bound!r}")
    if isinstance(resolution, int):
        resolution = (resolution, resolution)
    n_re, n_im = resolution
    if n_re < 2 or n_im < 2:
        raise ValueError("resolution must be >= 2 per axis")
    re = np.linspace(re_range[0], re_range[1], n_re)
    im = np.linspace(im_range[0], im_range[1], n_im)
    values = np.empty((n_re, n_im))
    rows = max(1, _BLOCK_POINTS // n_im)
    for i in range(0, n_re, rows):
        z = re[i:i + rows, None] + 1j * im[None, :]
        values[i:i + rows] = _abs_R_array(z, theta, order)
    return StabilityGrid(theta, order, re, im, values)


def unstable_fraction(grid: StabilityGrid) -> float:
    """Fraction of left-half-plane grid cells with |R| > 1 + A_STABLE_SLACK.

    Quantifies "almost stable" schemes: high-order central/backward variants
    violate |R| <= 1 only on a small left-half-plane region, and this measures
    how small on the sampled window.
    """
    lhp = grid.re_values < 0.0
    if not lhp.any():
        return 0.0
    return float(np.mean(grid.values[lhp, :] > 1.0 + A_STABLE_SLACK))


class _OrderFacts(NamedTuple):
    hurwitz: bool                 # every root of T_K has Re < 0 (Routh)
    b: tuple                      # exact Fractions b[0..K], b[0] = 0
    signs: Tuple[int, ...]        # signs of the nonzero b[m], m ascending
    pole_root: Optional[complex]  # float root in Re >= 0 nearest iR; pole -root/theta


@functools.lru_cache(maxsize=None)
def _order_facts(order: int) -> _OrderFacts:
    """T_K is Hurwitz iff every first-column entry of Routh's table on its
    coefficients 1/k! is positive.  b[m] = (-1)^m c_2m, c_n = sum_{j+l=n;
    j,l<=K} (-1)^l / (j! l!), so that |T_K(iw)|^2 = 1 + sum_{m>=1} b[m] w^2m."""
    from fractions import Fraction  # imported here: it takes ~3 ms to load
    inv = [Fraction(1, math.factorial(k)) for k in range(order + 1)]
    upper, lower = inv[::-2], inv[-2::-2]  # Routh's first two rows
    while lower and lower[0] > 0:
        ratio = upper[0] / lower[0]
        upper, lower = lower, [u - ratio * v for u, v in zip(upper[1:], lower[1:] + [0])]
    b = tuple((-1) ** m * sum((-1) ** l * inv[2 * m - l] * inv[l]
                              for l in range(2 * m - order, order + 1))
              if 2 * m > order else Fraction(0) for m in range(order + 1))
    roots = np.roots([1.0 / math.factorial(k) for k in range(order, -1, -1)])
    pole_root = min(roots, key=lambda r: (r.real < 0.0, abs(r.real))) if lower else None
    return _OrderFacts(not lower, b, tuple(1 if x > 0 else -1 for x in b if x), pole_root)


def _stable(theta: float, facts: _OrderFacts) -> bool:
    if theta > 0.0 and not facts.hurwitz:
        return False  # R has a pole with Re z <= 0
    if theta <= 0.5:
        return theta == 0.5  # |R(-inf)| > 1 below 0.5; E = 0 at 0.5
    if min(facts.signs) < 0 < facts.signs[0]:
        raise NotImplementedError("E's sign depends on theta: needs Sturm's theorem")
    return facts.signs[0] > 0


def _witness(theta: float, order: int, facts: _OrderFacts) -> complex:
    """A z with |R(z)| > 1: next to a pole, far out on R- (theta < 0.5) or the
    iy, y = 2^j, with the largest -E / |den|^2.  Just above theta = 0.5 that is
    O(theta - 0.5), so |R(w)| > 1 + A_STABLE_SLACK need not hold anywhere."""
    if theta > 0.0 and not facts.hurwitz:
        # |R| blows up next to the pole; report a concrete violating point.
        pole, step = complex(-facts.pole_root / theta), 1e-6
        while (step <= 1.0
               and abs(scalar_R(pole - step, theta, order)) <= 1.0 + A_STABLE_SLACK):
            step *= 10.0
        return pole - step
    # |R(-inf)| > 1; just below 0.5 no x passes the slack, but E(y) < 0 far out.
    for x in (-10.0 ** k for k in range(1, 9) if theta < 0.5):
        if abs(scalar_R(x, theta, order)) > 1.0 + A_STABLE_SLACK:
            return complex(x)
    # |R(iy)|^2 - 1 = -E(y) / |T_K(-i theta y)|^2, both sums over b[m] y^2m.
    y, m, b = 2.0 ** np.arange(-10, 21), np.arange(order + 1), np.array(facts.b, float)
    powers = (y[:, None] ** 2) ** m
    e = powers @ (b * (theta ** (2 * m) - (1.0 - theta) ** (2 * m)))
    return 1j * float(y[np.argmax(-e / (1.0 + powers @ (b * theta ** (2 * m))))])


def is_A_stable(theta: float, order: int) -> Tuple[bool, Optional[complex]]:
    """Exact A-stability certificate (see the module docstring).  Returns
    (stable, witness); an unstable witness is a z with |R(z)| > 1."""
    _check(theta, order)
    facts = _order_facts(order)
    stable = _stable(theta, facts)
    return stable, None if stable else _witness(theta, order, facts)


def is_L_stable(theta: float, order: int) -> bool:
    """A-stability plus R(-inf) = 0.  |R(inf)| = ((1 - theta) / theta)^K
    vanishes only at theta = 1."""
    _check(theta, order)
    return theta == 1.0 and _stable(1.0, _order_facts(order))


def matrix_R(theta: float, dtA, order: int) -> np.ndarray:
    """Matrix stability function: the implicit-step propagator of a linear
    homogeneous system x' = A x over one step (dtA = dt * A)."""
    _check(theta, order)
    dtA = np.asarray(dtA, dtype=float)
    m = dtA.shape[0]
    if dtA.shape != (m, m):
        raise ValueError("dtA must be square")
    eye = np.eye(m)

    def matrix_trunc_exp(W):
        acc = eye / math.factorial(order)
        for k in range(order - 1, -1, -1):
            acc = acc @ W + eye / math.factorial(k)
        return acc

    num = matrix_trunc_exp((1.0 - theta) * dtA)
    den = matrix_trunc_exp(-theta * dtA)
    try:
        return np.linalg.solve(den, num)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("stability denominator is singular") from exc


def log_norm_euclid(A) -> float:
    """Logarithmic norm in the Euclidean inner product: the largest
    eigenvalue of the symmetric part (A + A^T)/2."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    sym = 0.5 * (A + A.T)
    return float(np.linalg.eigvalsh(sym)[-1])


def contraction_certificate(theta: float, order: int, A, dt: float) -> bool:
    """True when the linear flow is contractive (log-norm <= 0) and the
    scheme is A-stable; then the one-step propagator is verified to be
    non-expansive in the 2-norm."""
    if log_norm_euclid(A) > 0.0:
        return False
    stable, _ = is_A_stable(theta, order)
    if not stable:
        return False
    A = np.asarray(A, dtype=float)
    norm = float(np.linalg.norm(matrix_R(theta, dt * A, order), 2))
    if norm > 1.0 + 1e-8:
        raise IeldtmError(
            f"contraction hypothesis held but ||R||_2 = {norm!r} > 1"
        )
    return True
