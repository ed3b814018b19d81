"""The complex-step Jacobian, kept as the tests' oracle for the tangent
kernels and Newton's iteration counts.  The library takes every Jacobian
from a tangent kernel and builds no complex table; these build theirs by
calling a problem's value kernel on complex entries, which it evaluates
with the float operations written out."""

import cmath
from itertools import chain

from ieldtm import stepper
from ieldtm.errors import NonFiniteStateError

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
        table = [[x] for x in y]
        problem.recurrence(t_next, table, order)
        if not all(map(cmath.isfinite, chain.from_iterable(
                col[:order + 1] for col in table))):
            raise NonFiniteStateError(
                f"non-finite Taylor coefficient at t = {t_next!r}")
        return [h(col, offset) - k for col, k in zip(table, known)]

    return residual
