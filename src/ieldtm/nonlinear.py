"""Dense Newton solver with partial-pivot LU.

Systems here are tiny (m <= 6), so the Jacobian is rebuilt every iteration
and factored densely.  The caller hands Newton a ``linearize(y)`` that
returns the residual and its exact Jacobian in one call: for an implicit
step it is the problem's tangent kernel (``recurrence.tangent``, which
``problems._generate`` writes).  Points, residuals, the Jacobian and the
LU are Python lists of floats: at m <= 6 a numpy call per residual,
column, pivot, swap or row update costs more than the arithmetic it does.

``lu_solve`` runs one straight-line kernel per n, generated on first use
and cached (``_lu_kernel``): the general elimination written out with a
local name per entry, so no row copy, index or loop is left, only the
float operations, comparisons and errors of the elimination, in its order.
Per call on random well-conditioned systems (2-vCPU Xeon VM, CPython 3.11,
best of 7 in each of two runs), it takes 1.7-1.9 us at n = 2, 2.2-3.2 us
at n = 3 and 8.6-10.7 us at n = 6.
"""

from __future__ import annotations

import math
import sys
from functools import cache
from operator import add

from .errors import NewtonFailureError, SingularMatrixError

__all__ = ["newton_solve", "lu_solve"]

_PIVOT_REL_TOL = 1e-14
_MAX_HALVINGS = 8  # of the Newton update while the residual grows
_ABS_TOL = 1e-12  # residual inf-norm threshold
_STEP_TOL = 1e-13  # update inf-norm threshold, relative to the state scale
_MAX_ITERS = 25
_SHAPE_MESSAGE = "A must be n x n and b length n"


def lu_solve(A, b) -> list:
    """Solve A x = b by partial-pivot LU elimination.

    A is a sequence of n rows of length n, b one of length n; lists and
    arrays both work and neither is modified.  Returns x as a list of n
    floats.  Raises ValueError when A is not n x n for n = len(b), and
    SingularMatrixError when a pivot falls below 1e-14 times the inf-norm
    of its row, both measured with each column scaled to a largest entry of
    1, so a badly scaled but well-conditioned matrix passes.  The
    elimination is the straight-line kernel ``_lu_kernel(n)``.
    """
    return _lu_kernel(len(b))(A, b)


@cache
def _lu_kernel(n: int):
    """The elimination of ``lu_solve`` on n x n systems as one straight-line
    function lu(A, b), a local name per entry.  Its source grows as n^3;
    the systems here have n <= 6.

    lu unpacks A's n rows of n entries and b's n entries, any other shape
    raising the shape ValueError, and converts each with float(), b first.
    Column maxima keep the first of equal |a_ij| and a leading nan, each
    ``or 1.0``.  A row scale adds its terms |a_ij| / c_j from the left with
    ``+``, so it does not depend on the interpreter (``sum()`` compensates
    from Python 3.12 on); on 3.11 it equals ``sum()`` of the terms, which
    are never -0.0.  Column c's
    pivot is the first largest |a_ic| in row order, whose row trades its
    remaining entries, b entry and row scale with row c's before the pivot
    test.  Back-substitution subtracts from b_i the sum of its row's
    products a_ij x_j, j > i, added from the left with ``+``: no BLAS dot,
    whose kernel may fuse multiply-adds depending on the CPU.
    """
    N, join = range(n), ", ".join
    a = [[f"a{i}_{j}" for j in N] for i in N]
    e = [[f"e{i}_{j}" for j in N] for i in N]
    lines = ["def lu(A, b):", "    try:",
             f"        [{join(f'[{join(row)}]' for row in a)}] = A",
             f"        [{join(f'b{i}' for i in N)}] = b",
             "    except (TypeError, ValueError):",
             "        raise ValueError(_SHAPE_MESSAGE) from None"]
    lines += [f"    b{i} = float(b{i})" for i in N]
    lines += [f"    {v} = float({v})" for row in a for v in row]
    lines += [f"    {e[i][j]} = abs({a[i][j]})" for i in N for j in N]
    for j in N:
        lines.append(f"    c{j} = {e[0][j]}")
        lines += [f"    if {e[i][j]} > c{j}: c{j} = {e[i][j]}" for i in N[1:]]
        lines.append(f"    c{j} = c{j} or 1.0")
    for i in N:
        terms = [f"{e[i][j]} / c{j}" for j in N]
        lines.append(f"    s{i} = {' + '.join(terms)}")
    for c in N:
        lines += [f"    q = abs(a{c}_{c})", f"    p = {c}"]
        for i in range(c + 1, n):
            lines += [f"    m = abs(a{i}_{c})", f"    if m > q: q, p = m, {i}"]
        for i in range(c + 1, n):
            row_c, row_i = (a[k][c:] + [f"b{k}", f"s{k}"] for k in (c, i))
            lines += [f"    if p == {i}:",
                      f"        {join(row_c + row_i)} = {join(row_i + row_c)}"]
        lines += [f"    if q <= _PIVOT_REL_TOL * s{c} * c{c}:",
                  "        raise SingularMatrixError("
                  f"'pivot underflow in column {c}')"]
        for i in range(c + 1, n):
            lines.append(f"    f = a{i}_{c} / a{c}_{c}")
            lines += [f"    a{i}_{j} -= f * a{c}_{j}" for j in range(c + 1, n)]
            lines.append(f"    b{i} -= f * b{c}")
    for i in reversed(N):
        products = " + ".join(f"a{i}_{j} * x{j}" for j in range(i + 1, n))
        s = f"(b{i} - ({products}))" if products else f"b{i}"
        lines.append(f"    x{i} = {s} / a{i}_{i}")
    lines.append(f"    return [{join(f'x{i}' for i in N)}]")
    namespace = {}
    exec("\n".join(lines) + "\n", globals(), namespace)
    return namespace["lu"]


def _inf_norm(v: list) -> float:
    """max_i |v_i|, and nan when any entry is nan, as numpy's max: the
    builtin max keeps a nan only in first place."""
    if any(map(math.isnan, v)):
        return math.nan
    return max(map(abs, v))


def newton_solve(residual, guess, linearize):
    """Root-find residual(y) = 0 starting from guess.

    ``residual`` maps a list of n floats to the list of its n residuals.
    ``linearize(y)`` returns (residual(y), its Jacobian as a list of rows)
    in one call.  Each iteration's Jacobian is taken at the iterate by one
    linearize call, the first one's residual included; the residual after
    each update comes from a residual call.

    Returns (root as a list, iterations).  Converges when the residual
    inf-norm drops below _ABS_TOL or the update inf-norm drops below
    _STEP_TOL * max(1, |y|); after the last of _MAX_ITERS iterations, a
    residual at or below _ABS_TOL is accepted.
    An infinite iterate raises NewtonFailureError, as does a singular
    Jacobian after the first iteration, where it raises SingularMatrixError.
    """
    y = list(map(float, guess))
    r, J = linearize(y)
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
        if J is None:  # the iterate has moved since the last linearize call
            J = linearize(y)[1]
        try:
            delta = lu_solve(J, [-v for v in r])
        except SingularMatrixError as exc:
            if it == 1:
                raise
            raise NewtonFailureError(
                f"singular Jacobian at iteration {it} ({exc})") from exc
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
        y, r, r_norm, J = y_new, r_new, new_norm, None
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
