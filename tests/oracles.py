"""Oracles the library's generated code is compared with.

The complex-step Jacobian is the oracle of the tangent kernels and of
Newton's iteration counts.  The library takes every Jacobian from a tangent
kernel and builds no complex table; these build theirs by calling a
problem's table kernel on complex entries, which it evaluates with the
float operations written out.

The implicit step as it was composed before it became one generated kernel
(``stepper._implicit_step``) is the oracle of that kernel's bits: the
residual function of the step, the Newton loop written by hand, and the
composition of the two, each kept verbatim but for reading Newton's
constants from ``ieldtm.stepper`` when it runs.  Its LU is the general
elimination loop, the oracle of the kernel's written-out elimination
(``stepper._lu_lines``)."""

import cmath
import math
import sys
from functools import partial
from itertools import chain
from operator import add

from ieldtm import stepper
from ieldtm.errors import (
    NewtonFailureError,
    NonFiniteStateError,
    SingularMatrixError,
)

COMPLEX_STEP = 2.0 ** -100  # a power of two: scaling by it is exact


def complex_step(residual, y: list):
    """(r, J) of residual at the real point y by the complex step: column j
    of J is Im residual(y + ih e_j) / h, exact to rounding (Squire & Trapp,
    SIAM Rev. 1998; Martins, Sturdza & Alonso, ACM TOMS 2003), and r is the
    real part of column 0's call, which equals residual(y) bit for bit: an
    imaginary-by-imaginary product term is about h^2 = 2^-200 relative to
    its real-by-real term, far below half an ulp.  m complex calls, and
    residual must be complex-analytic."""
    columns = []
    for j in range(len(y)):
        point = list(map(complex, y))
        point[j] += 1j * COMPLEX_STEP
        columns.append(residual(point))
    return ([v.real for v in columns[0]],
            [[col[i].imag / COMPLEX_STEP for col in columns]
             for i in range(len(y))])


def complex_residual(problem, t_next, known, theta, order, dt):
    """The implicit step's residual as the complex step takes it: the
    problem's table of a real or complex y about t_next through ``order``,
    by ``stepper._horner(order)`` at -theta dt, minus known.  A non-finite
    entry through ``order`` raises the stepper's NonFiniteStateError."""
    h, offset = stepper._horner(order), -theta * dt

    def residual(y):
        table = problem.recurrence(t_next, y, order)
        if not all(map(cmath.isfinite, chain.from_iterable(
                col[:order + 1] for col in table))):
            raise NonFiniteStateError(
                f"non-finite Taylor coefficient at t = {t_next!r}")
        return [h(col, offset) - k for col, k in zip(table, known)]

    return residual


def residual_function(problem, t_next, known_value, theta, order, dt, depth):
    """The continuity defect of one implicit step as a function of the
    trial state, and the [trial state, trial table] pair of its last call.

    ``residual(y)`` expands the list y of ``dim`` floats about t_next, tests
    the table's finiteness through ``order`` and returns h(col, -theta dt) -
    known for each column and each entry of ``known_value``, h =
    ``_horner(order)``.  Each y is a candidate next node, so its table runs
    through ``depth``, the index the node's readers need."""
    recurrence = problem.recurrence
    offset = -theta * dt
    h = stepper._horner(order)
    last = [None, None]

    def residual(y):
        table = recurrence(t_next, y, depth)
        stepper._check_finite(table, t_next, order)
        r = [h(col, offset) - k for col, k in zip(table, known_value)]
        last[0], last[1] = y, table
        return r

    return residual, last


def lu_solve_n(a: list, b: list) -> list:
    """The elimination of the step's LU on n rows of n floats and n floats,
    both lists it may overwrite, as a loop: partial pivoting on the first
    largest |a_ic|, the pivot test against _PIVOT_REL_TOL times the row
    scale (the sum of |a_ij| / max_i |a_ij|) and column maximum, and
    back-substitution adding each row's products from the left."""
    n = len(b)
    col_max = [max(map(abs, col)) or 1.0 for col in zip(*a)]
    row_scale = []
    for row in a:
        scale = 0.0
        for x, c in zip(row, col_max):
            scale = scale + abs(x) / c
        row_scale.append(scale)
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda i: abs(a[i][col]))
        pivot = a[pivot_row][col]
        if (abs(pivot) <= stepper._PIVOT_REL_TOL * row_scale[pivot_row]
                * col_max[col]):
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
        # The row's products added from the left, one plain addition at a
        # time, and subtracted from b[i] at once; the last row is b[i] alone.
        if i == n - 1:
            x[i] = b[i] / a[i][i]
            continue
        s = a[i][i + 1] * x[i + 1]
        for j in range(i + 2, n):
            s = s + a[i][j] * x[j]
        x[i] = (b[i] - s) / a[i][i]
    return x


def _inf_norm(v: list) -> float:
    if any(map(math.isnan, v)):
        return math.nan
    return max(map(abs, v))


def newton_solve(residual, guess, linearize):
    """Newton's loop as it was written by hand: (root as a list,
    iterations), raising as the step kernel's Newton does.  Each iteration's
    Jacobian comes from one linearize call, the first one's residual
    included, and is factored by ``lu_solve_n``."""
    y = list(map(float, guess))
    r, J = linearize(y)
    floor = 100.0 * sys.float_info.epsilon * max(1.0, max(map(abs, y)))
    prev_norm = math.inf
    r_norm = _inf_norm(r)
    for it in range(1, stepper._MAX_ITERS + 1):
        if r_norm <= floor:
            return y, it - 1
        if r_norm <= stepper._ABS_TOL and r_norm > 0.25 * prev_norm:
            return y, it - 1
        prev_norm = r_norm
        if J is None:
            J = linearize(y)[1]
        try:
            delta = lu_solve_n(J, [-v for v in r])
        except SingularMatrixError as exc:
            if it == 1:
                raise
            raise NewtonFailureError(
                f"singular Jacobian at iteration {it} ({exc})") from exc
        alpha = 1.0
        y_new = list(map(add, y, delta))
        r_new = residual(y_new)
        new_norm = _inf_norm(r_new)
        for _ in range(stepper._MAX_HALVINGS):
            if math.isfinite(new_norm) and new_norm <= r_norm:
                break
            alpha *= 0.5
            y_new = [a + alpha * d for a, d in zip(y, delta)]
            r_new = residual(y_new)
            new_norm = _inf_norm(r_new)
        y, r, r_norm, J = y_new, r_new, new_norm, None
        scale = max(1.0, max(map(abs, y)))
        if scale == math.inf:
            raise NewtonFailureError(f"non-finite iterate at iteration {it}")
        if alpha * max(map(abs, delta)) <= stepper._STEP_TOL * scale:
            return y, it
    if r_norm <= stepper._ABS_TOL:
        return y, stepper._MAX_ITERS
    raise NewtonFailureError(
        f"no convergence in {stepper._MAX_ITERS} iterations "
        f"(last residual inf-norm {r_norm:.3e})"
    )


def implicit_step(problem, t_i, node_table, theta, order, dt):
    """One implicit step as ``stepper._step`` composed it: (state,
    iterations, the table of the last residual call when it is the state's,
    else None)."""
    h = stepper._horner(order)
    predictor = [h(col, dt) for col in node_table]
    known_value = [h(col, (1.0 - theta) * dt) for col in node_table]
    residual, last = residual_function(problem, t_i + dt, known_value, theta,
                                       order, dt, len(node_table[0]) - 1)
    state, iters = newton_solve(residual, predictor, partial(
        problem.recurrence.tangent(order), t_i + dt, -theta * dt, known_value))
    return state, iters, last[1] if state is last[0] else None
