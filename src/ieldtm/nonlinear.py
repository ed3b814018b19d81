"""Dense Newton solver with complex-step Jacobian and partial-pivot LU.

Systems here are tiny (m <= 6), so the Jacobian is rebuilt every iteration
and factored densely.  It is the complex-step derivative, exact to rounding:
column j comes from one residual call at the iterate perturbed by ih along
e_j, so each iteration's Jacobian costs m complex residual calls and the
residual must be complex-analytic.  The real part of such a call is the
residual at the iterate itself, so the first residual comes from the first
iteration's column 0: no real call precedes the first update.  Points,
residuals, the Jacobian and the LU are Python lists of floats: at m <= 6 a
numpy call per residual, column, pivot, swap or row update costs more than
the arithmetic it does.

``lu_solve`` has unrolled paths for n = 2 (Van der Pol, Duffing) and n = 3
(Robertson).  There the bookkeeping of the general loop (row copies, column
maxima, row scales, pivot search) costs several times the elimination
itself.  Per lu_solve call on a 2-vCPU Xeon VM (fastest of 9 interleaved
runs), the unrolled paths take 1.4 us at n = 2 and 4.6 us at n = 3, the
general loop 7.8 and 15.1 us.  An unrolled path makes the same pivot choice,
singularity tests and operations, so it returns the same bits and raises the
same errors.  Back-substitution at n = 3 keeps one np.dot of length 2, for
row 0, a third of that path's time (1.6 us): a BLAS dot may fuse its
multiply-adds, which a Python expression would not reproduce.  Larger systems
(SEIR, m = 6) keep the general loop.
"""

from __future__ import annotations

import math
import sys
from operator import add, truediv

import numpy as np

from .errors import NewtonFailureError, SingularMatrixError

__all__ = ["newton_solve", "lu_solve"]

_PIVOT_REL_TOL = 1e-14
_COMPLEX_STEP = 1e-30  # nothing is subtracted, so it can be far below 1
_MAX_HALVINGS = 8  # of the Newton update while the residual grows
_ABS_TOL = 1e-12  # residual inf-norm threshold
_STEP_TOL = 1e-13  # update inf-norm threshold, relative to the state scale
_MAX_ITERS = 25
_SHAPE_MESSAGE = "A must be n x n and b length n"


def lu_solve(A, b) -> list:
    """Solve A x = b by partial-pivot LU elimination.

    A is a sequence of n rows of length n, b one of length n; lists and
    arrays both work and neither is modified.  Returns x as a list of n
    floats.  Raises SingularMatrixError when a pivot falls below 1e-14 times
    the inf-norm of its row, both measured with each column scaled to a
    largest entry of 1, so a badly scaled but well-conditioned matrix passes.

    A 2 x 2 or 3 x 3 system takes ``_lu_solve_2`` or ``_lu_solve_3``, the
    same elimination unrolled: at n <= 3 the general loop's bookkeeping costs
    several times its arithmetic.
    """
    b = list(map(float, b))
    n = len(b)
    if n == 2 and len(A) == 2:
        try:
            (a00, a01), (a10, a11) = A
        except ValueError:  # a row of another length
            raise ValueError(_SHAPE_MESSAGE) from None
        return _lu_solve_2(float(a00), float(a01), float(a10), float(a11), *b)
    if n == 3 and len(A) == 3:
        try:
            (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = A
        except ValueError:
            raise ValueError(_SHAPE_MESSAGE) from None
        return _lu_solve_3(float(a00), float(a01), float(a02), float(a10),
                           float(a11), float(a12), float(a20), float(a21),
                           float(a22), *b)
    a = [list(map(float, row)) for row in A]
    if len(a) != n or any(len(row) != n for row in a):
        raise ValueError(_SHAPE_MESSAGE)
    return _lu_solve_n(a, b)


def _lu_solve_n(a: list, b: list) -> list:
    """The elimination of lu_solve on n rows of n floats and n floats, both
    lists it may overwrite."""
    n = len(b)
    col_max = [max(map(abs, col)) or 1.0 for col in zip(*a)]
    row_scale = [sum(map(truediv, map(abs, row), col_max)) for row in a]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda i: abs(a[i][col]))
        pivot = a[pivot_row][col]
        if abs(pivot) <= _PIVOT_REL_TOL * row_scale[pivot_row] * col_max[col]:
            raise SingularMatrixError(f"pivot underflow in column {col}")
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            b[col], b[pivot_row] = b[pivot_row], b[col]
            row_scale[col], row_scale[pivot_row] = row_scale[pivot_row], row_scale[col]
        upper = a[col]
        for i in range(col + 1, n):
            row = a[i]
            f = row[col] / pivot
            for j in range(col + 1, n):
                row[j] -= f * upper[j]
            b[i] -= f * b[col]
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        # A dot of length 1 is one rounded product and an empty one leaves
        # b[i], in Python as in numpy.  Longer ones stay np.dot, not a Python
        # sum: a BLAS dot may fuse its multiply-adds, and the solution keeps
        # the bits of the all-numpy elimination.
        s = b[i]
        if i == n - 2:
            s -= a[i][n - 1] * x[n - 1]
        elif i < n - 2:
            s -= float(np.dot(a[i][i + 1:], x[i + 1:]))
        x[i] = s / a[i][i]
    return x


def _lu_solve_2(a00: float, a01: float, a10: float, a11: float,
                b0: float, b1: float) -> list:
    """``_lu_solve_n`` for n = 2, unrolled: every float operation, comparison
    and error of the general loop, in its order.  A row scale of two terms is
    their plain sum: the general loop's ``sum`` adds them to the int 0, and
    both are >= +0.0 or nan (a compensated sum, Python >= 3.12, adds back
    the exact rounding error of one addition, which leaves it unchanged)."""
    c0 = abs(a10) if abs(a10) > abs(a00) else abs(a00)
    c1 = abs(a11) if abs(a11) > abs(a01) else abs(a01)
    c0 = c0 or 1.0
    c1 = c1 or 1.0
    s0 = abs(a00) / c0 + abs(a01) / c1
    s1 = abs(a10) / c0 + abs(a11) / c1
    if abs(a10) > abs(a00):  # max() keeps the first of equal candidates
        a00, a01, b0, s0, a10, a11, b1, s1 = a10, a11, b1, s1, a00, a01, b0, s0
    if abs(a00) <= _PIVOT_REL_TOL * s0 * c0:
        raise SingularMatrixError("pivot underflow in column 0")
    f = a10 / a00
    a11 -= f * a01
    b1 -= f * b0
    if abs(a11) <= _PIVOT_REL_TOL * s1 * c1:
        raise SingularMatrixError("pivot underflow in column 1")
    x1 = b1 / a11
    return [(b0 - a01 * x1) / a00, x1]


def _lu_solve_3(a00: float, a01: float, a02: float, a10: float, a11: float,
                a12: float, a20: float, a21: float, a22: float,
                b0: float, b1: float, b2: float) -> list:
    """``_lu_solve_n`` for n = 3, unrolled: every float operation, comparison
    and error of the general loop, in its order.  A row scale of three terms
    stays ``sum`` of a tuple: a compensated sum (Python >= 3.12) carries the
    rounding error of the first addition into the second, so t0 + t1 + t2
    can differ from it in the last bit.  Row 0's back-substitution keeps the
    general loop's np.dot, as a BLAS dot may fuse its multiply-adds."""
    e00, e01, e02 = abs(a00), abs(a01), abs(a02)
    e10, e11, e12 = abs(a10), abs(a11), abs(a12)
    e20, e21, e22 = abs(a20), abs(a21), abs(a22)
    # max() keeps the first of equal candidates, and a leading nan.
    top = e10 if e10 > e00 else e00
    c0 = (e20 if e20 > top else top) or 1.0
    c1 = e11 if e11 > e01 else e01
    c1 = (e21 if e21 > c1 else c1) or 1.0
    c2 = e12 if e12 > e02 else e02
    c2 = (e22 if e22 > c2 else c2) or 1.0
    s0 = sum((e00 / c0, e01 / c1, e02 / c2))
    s1 = sum((e10 / c0, e11 / c1, e12 / c2))
    s2 = sum((e20 / c0, e21 / c1, e22 / c2))
    if e20 > top:
        a00, a01, a02, b0, s0, a20, a21, a22, b2, s2 = \
            a20, a21, a22, b2, s2, a00, a01, a02, b0, s0
    elif e10 > e00:
        a00, a01, a02, b0, s0, a10, a11, a12, b1, s1 = \
            a10, a11, a12, b1, s1, a00, a01, a02, b0, s0
    if abs(a00) <= _PIVOT_REL_TOL * s0 * c0:
        raise SingularMatrixError("pivot underflow in column 0")
    f = a10 / a00
    a11 -= f * a01
    a12 -= f * a02
    b1 -= f * b0
    f = a20 / a00
    a21 -= f * a01
    a22 -= f * a02
    b2 -= f * b0
    if abs(a21) > abs(a11):
        a11, a12, b1, s1, a21, a22, b2, s2 = a21, a22, b2, s2, a11, a12, b1, s1
    if abs(a11) <= _PIVOT_REL_TOL * s1 * c1:
        raise SingularMatrixError("pivot underflow in column 1")
    f = a21 / a11
    a22 -= f * a12
    b2 -= f * b1
    if abs(a22) <= _PIVOT_REL_TOL * s2 * c2:
        raise SingularMatrixError("pivot underflow in column 2")
    x2 = b2 / a22
    x1 = (b1 - a12 * x2) / a11
    return [(b0 - float(np.dot([a01, a02], [x1, x2]))) / a00, x1, x2]


def _perturbed(residual, y: list, j: int) -> list:
    """residual(y + ih e_j) at the real point y, as complex values."""
    point = list(map(complex, y))
    point[j] += 1j * _COMPLEX_STEP
    return residual(point)


def _jacobian(residual, y: list, first=None) -> list:
    """The exact Jacobian of residual at the real point y, as a list of
    rows: column j is Im residual(y + ih e_j) / h, to rounding (Squire &
    Trapp, SIAM Rev. 1998; Martins, Sturdza & Alonso, ACM TOMS 2003).
    ``first``, when given, is residual(y + ih e_0), already evaluated."""
    values = [first if first is not None else _perturbed(residual, y, 0)]
    values += [_perturbed(residual, y, j) for j in range(1, len(y))]
    return [[col[i].imag / _COMPLEX_STEP for col in values]
            for i in range(len(y))]


def _inf_norm(v: list) -> float:
    """max_i |v_i|, and nan when any entry is nan, as numpy's max: the
    builtin max keeps a nan only in first place."""
    if any(map(math.isnan, v)):
        return math.nan
    return max(map(abs, v))


def newton_solve(residual, guess):
    """Root-find residual(y) = 0 starting from guess.

    ``residual`` maps a list of n floats to the list of its n residuals, and
    a list of complex numbers (a Jacobian column's point) to complex values.

    The first residual is the real part of residual(guess + ih e_0), which
    equals residual(guess) bit for bit: an imaginary-by-imaginary product
    term is about h^2 = 1e-60 relative to its real-by-real term, far below
    half an ulp.  That call's imaginary part is column 0 of the first
    Jacobian, so no real call precedes the first LU solve.

    Returns (root as a list, iterations).  Converges when the residual
    inf-norm drops below _ABS_TOL or the update inf-norm drops below
    _STEP_TOL * max(1, |y|); after the last of _MAX_ITERS iterations, a
    residual at or below _ABS_TOL is accepted.
    An infinite iterate raises NewtonFailureError, as does a singular
    Jacobian after the first iteration, where it raises SingularMatrixError.
    """
    y = list(map(float, guess))
    first = _perturbed(residual, y, 0)
    r = [v.real for v in first]
    # Accept at _ABS_TOL only once quadratic progress has stalled: while the
    # residual is still collapsing by orders of magnitude per step, one more
    # (cheap) iteration buys the round-off floor instead of an O(_ABS_TOL)
    # defect frozen into the returned state.
    floor = 100.0 * sys.float_info.epsilon * max(1.0, max(map(abs, y)))
    prev_norm = math.inf
    r_norm = _inf_norm(r)  # each residual's norm is taken once, when it is made
    for it in range(1, _MAX_ITERS + 1):
        if r_norm <= floor:
            return y, it - 1
        if r_norm <= _ABS_TOL and r_norm > 0.25 * prev_norm:
            return y, it - 1
        prev_norm = r_norm
        try:
            delta = lu_solve(_jacobian(residual, y, first), [-v for v in r])
        except SingularMatrixError as exc:
            if it == 1:
                raise
            raise NewtonFailureError(
                f"singular Jacobian at iteration {it} ({exc})") from exc
        first = None
        alpha = 1.0
        y_new = list(map(add, y, delta))
        r_new = residual(y_new)
        new_norm = _inf_norm(r_new)
        for _ in range(_MAX_HALVINGS):
            # An inf or nan entry makes the norm inf or nan, so a non-finite
            # residual counts as growth, also against an inf r_norm.
            if math.isfinite(new_norm) and new_norm <= r_norm:
                break
            alpha *= 0.5
            y_new = [a + alpha * d for a, d in zip(y, delta)]
            r_new = residual(y_new)
            new_norm = _inf_norm(r_new)
        y, r, r_norm = y_new, r_new, new_norm
        scale = max(1.0, max(map(abs, y)))
        if scale == math.inf:  # else inf <= inf would accept it as a root
            raise NewtonFailureError(f"non-finite iterate at iteration {it}")
        if alpha * max(map(abs, delta)) <= _STEP_TOL * scale:
            return y, it
    if r_norm <= _ABS_TOL:
        return y, _MAX_ITERS
    raise NewtonFailureError(
        f"no convergence in {_MAX_ITERS} iterations "
        f"(last residual inf-norm {r_norm:.3e})"
    )
