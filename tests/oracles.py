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
constants and ``lu_solve`` from ``ieldtm.nonlinear`` when it runs."""

import cmath
import math
import sys
from functools import partial
from itertools import chain
from operator import add

from ieldtm import nonlinear, stepper
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


def _inf_norm(v: list) -> float:
    if any(map(math.isnan, v)):
        return math.nan
    return max(map(abs, v))


def newton_solve(residual, guess, linearize):
    """Newton's loop as it was written by hand: (root as a list,
    iterations), raising as ``nonlinear.newton_solve`` does."""
    y = list(map(float, guess))
    r, J = linearize(y)
    floor = 100.0 * sys.float_info.epsilon * max(1.0, max(map(abs, y)))
    prev_norm = math.inf
    r_norm = _inf_norm(r)
    for it in range(1, nonlinear._MAX_ITERS + 1):
        if r_norm <= floor:
            return y, it - 1
        if r_norm <= nonlinear._ABS_TOL and r_norm > 0.25 * prev_norm:
            return y, it - 1
        prev_norm = r_norm
        if J is None:
            J = linearize(y)[1]
        try:
            delta = nonlinear.lu_solve(J, [-v for v in r])
        except SingularMatrixError as exc:
            if it == 1:
                raise
            raise NewtonFailureError(
                f"singular Jacobian at iteration {it} ({exc})") from exc
        alpha = 1.0
        y_new = list(map(add, y, delta))
        r_new = residual(y_new)
        new_norm = _inf_norm(r_new)
        for _ in range(nonlinear._MAX_HALVINGS):
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
        if alpha * max(map(abs, delta)) <= nonlinear._STEP_TOL * scale:
            return y, it
    if r_norm <= nonlinear._ABS_TOL:
        return y, nonlinear._MAX_ITERS
    raise NewtonFailureError(
        f"no convergence in {nonlinear._MAX_ITERS} iterations "
        f"(last residual inf-norm {r_norm:.3e})"
    )


def implicit_step(problem, t_i, node_table, theta, order, dt,
                  newton=newton_solve):
    """One implicit step as ``stepper._step`` composed it: (state,
    iterations, the table of the last residual call when it is the state's,
    else None), Newton being ``newton``."""
    h = stepper._horner(order)
    predictor = [h(col, dt) for col in node_table]
    known_value = [h(col, (1.0 - theta) * dt) for col in node_table]
    residual, last = residual_function(problem, t_i + dt, known_value, theta,
                                       order, dt, len(node_table[0]) - 1)
    state, iters = newton(residual, predictor, partial(
        problem.recurrence.tangent(order), t_i + dt, -theta * dt, known_value))
    return state, iters, last[1] if state is last[0] else None
