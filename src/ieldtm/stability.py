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

import cmath
import functools
import math
from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .errors import IeldtmError, PoleError, SingularMatrixError
from .stepper import check_theta_order

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
# Grid points per block of rows in sample_region (256 KiB of complex128 per
# argument buffer).  Whole-grid temporaries are several MB each, taken as
# fresh pages whose faults cost as much as the arithmetic.  Per 400^2 grid at
# K = 4 on a 2-vCPU Xeon VM (10th-90th percentile of 30 runs): at
# theta = 0.5, where both factors are evaluated, blocks of 8 192 and 16 384
# points take no page fault and 3.1-4.2 and 3.0-3.8 ms, 4 096 points
# 4.7-5.1 ms; 32 768 and 65 536 points fault about 790 and 990 times and take
# 4.4-5.0 and 5.2-6.1 ms, the whole grid at once 2 470 times and 10.3-13.0 ms.
# At theta = 0 and 1, where one factor is evaluated, 16 384 and 32 768 points
# take 1.4-1.5 and 1.5-1.7 ms, no block of up to 65 536 points faults, and the
# whole grid faults about 1 530 times and takes 5.0-6.5 ms.
_BLOCK_POINTS = 1 << 14


def _check(theta: float, order: int) -> None:
    """SchemeConfig's (theta, K) rule plus order <= MAX_ORDER."""
    check_theta_order(theta, order)
    if order > MAX_ORDER:
        raise ValueError(f"order must be <= {MAX_ORDER}")


def _trunc_exp(w, order: int):
    """Horner evaluation of the degree-``order`` Taylor polynomial of e^w,
    elementwise on complex arrays.  The first step, w times 1/K!, makes the
    accumulator; every later step works in place on it.  ``[()]`` turns a
    0-d input into a numpy scalar, which is far cheaper than a 0-d array."""
    w = np.asarray(w, dtype=complex)[()]
    acc = w * (1.0 / math.factorial(order))
    for k in range(order - 1, 0, -1):
        acc += 1.0 / math.factorial(k)
        acc *= w
    acc += 1.0
    return acc


def scalar_R(z: complex, theta: float, order: int) -> complex:
    """Scalar stability function R(z) for one (theta, K); the quotient of
    _reversed_factors where T_K overflows.  PoleError where the denominator
    vanishes, OverflowError where R may leave the float range."""
    _check(theta, order)
    # At |z| <= 700 every Horner partial sum of T_K(w) is at most e^700 ~ 1e304:
    # no factor overflows, nor a quotient by |den| >= 1e-3.
    near = abs(z) <= 700.0
    if near:
        num, den = _trunc_exp((1.0 - theta) * z, order), _trunc_exp(-theta * z, order)
    elif not cmath.isfinite(z):
        raise ValueError(f"z must be finite, got {z!r}")
    else:
        try:
            with np.errstate(over="raise", invalid="raise"):
                num, den = _trunc_exp((1.0 - theta) * z, order), _trunc_exp(-theta * z, order)
        except FloatingPointError:
            num, den = _reversed_factors(z, theta, order)
    d = abs(den)
    if not (near and d >= 1e-3):
        if near and d < _POLE_FLOOR:
            raise PoleError(f"denominator vanishes at z = {z!r}")
        # Far out, a den below the floor is z^-K underflowing in the reversed
        # one (theta = 0, R = T_K(z)); past |R| = 1e300 num / den may overflow.
        if d < _POLE_FLOOR or abs(num) * _POLE_FLOOR >= d:
            raise OverflowError(f"R overflows at z = {z!r}")
    return complex(num / den)


def _reversed_factors(z, theta: float, order: int):
    """T_K((1 - theta) z) z^-K and T_K(-theta z) z^-K by Horner in w = 1/z on
    the coefficients a^k / k! of T_K(a z) in reverse order: finite where T_K
    overflows, with quotient R -> ((theta - 1) / theta)^K.  The one far-field
    rule of scalar_R and sample_region."""
    w = 1.0 / z
    return [np.polyval([a ** k / math.factorial(k) for k in range(order + 1)], w)
            for a in (1.0 - theta, -theta)]


def _abs_R_block(out: np.ndarray, args, re: np.ndarray, im: np.ndarray,
                 theta: float, order: int) -> None:
    """Write |R| on the rows re x im into out, poles (den below _POLE_FLOOR)
    at +inf.  args are the numerator's and the denominator's arguments of
    T_K, None for a factor T_K(0 z) = 1.  The factors are evaluated raising
    on overflow: inputs are finite, so a non-finite value needs an overflow
    first, and raising spares a finite block a finiteness pass.  A block that
    overflows is evaluated once more, and the cells where a factor is not
    finite take both factors from _reversed_factors."""
    def abs_factors():
        return [1.0 if w is None else np.abs(_trunc_exp(w, order)) for w in args]
    try:
        with np.errstate(over="raise", invalid="raise"):
            num, den = abs_factors()
    except FloatingPointError:
        with np.errstate(over="ignore", invalid="ignore"):
            num, den = (np.ones(out.shape) if isinstance(f, float) else f
                        for f in abs_factors())
        far = ~(np.isfinite(num) & np.isfinite(den))
        r, c = np.nonzero(far)
        num[far], den[far] = map(np.abs, _reversed_factors(re[r] + 1j * im[c], theta, order))
    if isinstance(den, float):  # num / 1.0 is num, and 1.0 is no pole
        out[...] = num
        return
    # A quotient by den below the floor may divide by zero or overflow; the
    # pole mask overwrites it.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide(num, den, out=out)
    out[den < _POLE_FLOOR] = np.inf


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
    pair = (resolution, resolution) if isinstance(resolution, Integral) else resolution
    if not (isinstance(pair, (tuple, list)) and len(pair) == 2 and all(
            isinstance(n, Integral) and not isinstance(n, bool) for n in pair)):
        raise ValueError("resolution must be an integer or a pair of integers, "
                         f"got {resolution!r}")
    n_re, n_im = int(pair[0]), int(pair[1])  # an int8 would overflow in rows below
    if n_re < 2 or n_im < 2:
        raise ValueError("resolution must be >= 2 per axis")
    re = np.linspace(re_range[0], re_range[1], n_re)
    im = np.linspace(im_range[0], im_range[1], n_im)
    values = np.empty((n_re, n_im))
    rows = min(n_re, max(1, _BLOCK_POINTS // n_im))
    # One argument buffer a z per evaluated factor, its imaginary parts a im
    # written once and its real parts a re per block.  numpy takes a z as
    # (a x - 0 y) + i (a y + 0 x), so the buffer holds its bits up to the
    # sign of an exact zero, which |T_K| does not see.  The numerator's scale
    # is 1 - theta and the denominator's -theta; None marks a factor that is
    # T_K(0 z) = 1 for every finite z (at theta = 1 and 0), not evaluated.
    scales = (1.0 - theta if theta < 1.0 else None, -theta if theta > 0.0 else None)
    args = [None if a is None else np.empty((rows, n_im), dtype=complex) for a in scales]
    for a, w in zip(scales, args):
        if w is not None:
            w.imag = a * im
    for i in range(0, n_re, rows):
        n = min(rows, n_re - i)
        for a, w in zip(scales, args):
            if w is not None:
                w.real[:n] = (a * re[i:i + n])[:, None]
        # num and den die with this call: held into the next block, they
        # made the heap trim and refault about 590 pages per 400^2 grid.
        _abs_R_block(values[i:i + n], [None if w is None else w[:n] for w in args],
                     re[i:i + n], im, theta, order)
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
    """A z with |R(z)| > 1 or R overflowing: next to a pole, far out on R-
    (theta < 0.5) or the iy, y = 2^j, with the largest -E / |den|^2.  Just above
    0.5 that is O(theta - 0.5), so |R(w)| > 1 + A_STABLE_SLACK need not hold."""
    def violates(z):
        try:
            return abs(scalar_R(z, theta, order)) > 1.0 + A_STABLE_SLACK
        except OverflowError:
            return True
    # Below theta = |root| 1e-300 the pole is past 1e300; R- has a witness.
    if not facts.hurwitz and abs(facts.pole_root) < 1e300 * theta:
        # |R| blows up next to the pole; report a concrete violating point.
        pole, step = complex(-facts.pole_root / theta), 1e-6
        while step <= 1.0 and not violates(pole - step):
            step *= 10.0
        return pole - step
    # |R(-inf)| > 1; just below 0.5 no x passes the slack, but E(y) < 0 far out.
    for x in (-10.0 ** k for k in range(1, 9) if theta < 0.5):
        if violates(x):
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
    if not np.isfinite(dtA).all():
        raise ValueError("dtA must be finite")
    eye = np.eye(m)

    def matrix_trunc_exp(W):
        acc = eye / math.factorial(order)
        for k in range(order - 1, -1, -1):
            acc = acc @ W + eye / math.factorial(k)
        return acc

    with np.errstate(over="ignore", invalid="ignore"):
        num = matrix_trunc_exp((1.0 - theta) * dtA)
        den = matrix_trunc_exp(-theta * dtA)
    if not (np.isfinite(num).all() and np.isfinite(den).all()):
        raise OverflowError("T_K(dtA) overflows")
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
    if not np.isfinite(A).all():
        raise ValueError("A must be finite")
    sym = 0.5 * (A + A.T)
    return float(np.linalg.eigvalsh(sym)[-1])


def contraction_certificate(theta: float, order: int, A, dt: float) -> bool:
    """True when the linear flow is contractive (log-norm <= 0) and the
    scheme is A-stable; then the one-step propagator is verified to be
    non-expansive in the 2-norm."""
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
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
