"""Dense Newton solver with partial-pivot LU.

Systems here are tiny (m <= 6), so the Jacobian is rebuilt every iteration
and factored densely.  Newton takes the residual and its exact Jacobian
from one ``linearize(y)`` call: for an implicit step it is the problem's
tangent kernel (``recurrence.tangent``, which ``problems._generate``
writes).  Points, residuals, the Jacobian and the LU are Python lists of
floats or, in generated code, one local per entry: at m <= 6 a numpy call
per residual, column, pivot, swap or row update costs more than the
arithmetic it does.

Newton's iteration is written once, as the source template ``_NEWTON``:
the round-off floor, the acceptance at _ABS_TOL once progress stalls, the
_MAX_HALVINGS halvings of a growing update, the _STEP_TOL and _MAX_ITERS
limits and every error message.  ``_newton_function`` fills its slots and
compiles it, twice over:

- ``newton_solve(residual, guess, linearize)`` keeps lists, and its slots
  are the calls ``linearize(y)``, ``residual(y)`` and ``lu_solve``;
- ``stepper._implicit_step(m, K)`` writes one implicit step per (m, K) out
  straight-line (the predictor, the residual's Horner sums, its finiteness
  test, the inf-norms and the LU elimination) and calls only the problem's
  tangent kernel and recurrence.

Both read Newton's constants from this module's globals when they run.
``lu_solve`` runs one straight-line kernel per n, generated on first use
and cached (``_lu_kernel``); the elimination's lines come from
``_lu_lines``, which the step kernels inline.
"""

from __future__ import annotations

import math
import re
import sys
from functools import cache
from math import inf, isfinite
from textwrap import indent

from .errors import NewtonFailureError, SingularMatrixError

__all__ = ["newton_solve", "lu_solve"]

_PIVOT_REL_TOL = 1e-14
_MAX_HALVINGS = 8  # of the Newton update while the residual grows
_ABS_TOL = 1e-12  # residual inf-norm threshold
_STEP_TOL = 1e-13  # update inf-norm threshold, relative to the state scale
_MAX_ITERS = 25
_EPSILON = sys.float_info.epsilon
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
    function lu(A, b): it unpacks A's n rows of n entries and b's n entries,
    any other shape raising the shape ValueError, and runs ``_lu_lines(n)``.
    """
    N, join = range(n), ", ".join
    a = [[f"a{i}_{j}" for j in N] for i in N]
    lines = ["def lu(A, b):", "    try:",
             f"        [{join(f'[{join(row)}]' for row in a)}] = A",
             f"        [{join(f'b{i}' for i in N)}] = b",
             "    except (TypeError, ValueError):",
             "        raise ValueError(_SHAPE_MESSAGE) from None"]
    lines += [f"    {line}" for line in _lu_lines(n)]
    lines.append(f"    return [{join(f'x{i}' for i in N)}]")
    namespace = {}
    exec("\n".join(lines) + "\n", globals(), namespace)
    return namespace["lu"]


def _lu_lines(n: int) -> list:
    """The source lines of the elimination, written out with a local name
    per entry, so no row copy, index or loop is left, only the float
    operations, comparisons and errors of the elimination, in its order.
    It reads A's entries from the locals a{i}_{j} and b's from b{i}, leaves
    the solution in x0, ..., x{n-1} and binds e{i}_{j}, c{j}, s{i}, q, p, m
    and f on the way.  Its source grows as n^3; the systems here have
    n <= 6.

    It converts each entry with float(), b first.  Column maxima keep the
    first of equal |a_ij| and a leading nan, each ``or 1.0``.  A row scale
    adds its terms |a_ij| / c_j from the left with ``+``, so it does not
    depend on the interpreter (``sum()`` compensates from Python 3.12 on);
    on 3.11 it equals ``sum()`` of the terms, which are never -0.0.  Column
    c's pivot is the first largest |a_ic| in row order, whose row trades its
    remaining entries, b entry and row scale with row c's before the pivot
    test.  Back-substitution subtracts from b_i the sum of its row's
    products a_ij x_j, j > i, added from the left with ``+``: no BLAS dot,
    whose kernel may fuse multiply-adds depending on the CPU.
    """
    N, join = range(n), ", ".join
    a = [[f"a{i}_{j}" for j in N] for i in N]
    e = [[f"e{i}_{j}" for j in N] for i in N]
    lines = [f"b{i} = float(b{i})" for i in N]
    lines += [f"{v} = float({v})" for row in a for v in row]
    lines += [f"{e[i][j]} = abs({a[i][j]})" for i in N for j in N]
    for j in N:
        lines.append(f"c{j} = {e[0][j]}")
        lines += [f"if {e[i][j]} > c{j}: c{j} = {e[i][j]}" for i in N[1:]]
        lines.append(f"c{j} = c{j} or 1.0")
    for i in N:
        terms = [f"{e[i][j]} / c{j}" for j in N]
        lines.append(f"s{i} = {' + '.join(terms)}")
    for c in N:
        lines += [f"q = abs(a{c}_{c})", f"p = {c}"]
        for i in range(c + 1, n):
            lines += [f"m = abs(a{i}_{c})", f"if m > q: q, p = m, {i}"]
        for i in range(c + 1, n):
            row_c, row_i = (a[k][c:] + [f"b{k}", f"s{k}"] for k in (c, i))
            lines += [f"if p == {i}:",
                      f"    {join(row_c + row_i)} = {join(row_i + row_c)}"]
        lines += [f"if q <= _PIVOT_REL_TOL * s{c} * c{c}:",
                  "    raise SingularMatrixError("
                  f"'pivot underflow in column {c}')"]
        for i in range(c + 1, n):
            lines.append(f"f = a{i}_{c} / a{c}_{c}")
            lines += [f"a{i}_{j} -= f * a{c}_{j}" for j in range(c + 1, n)]
            lines.append(f"b{i} -= f * b{c}")
    for i in reversed(N):
        products = " + ".join(f"a{i}_{j} * x{j}" for j in range(i + 1, n))
        s = f"(b{i} - ({products}))" if products else f"b{i}"
        lines.append(f"x{i} = {s} / a{i}_{i}")
    return lines


def _inf_norm(v: list) -> float:
    """max_i |v_i|, and nan when any entry is nan, as numpy's max: the
    builtin max keeps a nan only in first place."""
    if any(map(math.isnan, v)):
        return math.nan
    return max(map(abs, v))


# Newton's iteration, the one copy of its rules, which _newton_function
# turns into a function.  A slot alone on its line ($start, $jacobian,
# $solve, $trial, $residual, $accept, $finish) takes a block of lines, any
# other ($name, $args, $scale, $step) an expression.  The blocks keep the
# iterate y, its residual r, r_norm and the Jacobian J in whatever form
# the instance chooses: $solve solves J delta = -r, $trial makes the trial
# y + alpha delta, $residual its residual and that residual's inf-norm
# new_norm (nan when an entry is nan), and $accept makes the trial the
# iterate.  $scale is max(1, |y|_inf) and $step |delta|_inf.
_NEWTON = """\
def $name($args):
    $start
    # Accept at _ABS_TOL only once quadratic progress has stalled: while the
    # residual is still collapsing by orders of magnitude per step, one more
    # (cheap) iteration buys the round-off floor instead of an O(_ABS_TOL)
    # defect frozen into the returned state.
    floor = 100.0 * _EPSILON * $scale
    prev_norm = inf
    for it in range(1, _MAX_ITERS + 1):
        if r_norm <= floor or (r_norm <= _ABS_TOL
                               and r_norm > 0.25 * prev_norm):
            iters = it - 1
            break
        prev_norm = r_norm
        if J is None:  # the iterate has moved since the last linearize call
            $jacobian
        try:
            $solve
        except SingularMatrixError as exc:
            if it == 1:
                raise
            raise NewtonFailureError(
                f"singular Jacobian at iteration {it} ({exc})") from exc
        # The full update first (alpha * delta is then delta exactly), then
        # up to _MAX_HALVINGS halvings of it while the residual grows.
        alpha = 1.0
        for halving in range(_MAX_HALVINGS + 1):
            if halving:
                alpha *= 0.5
            $trial
            $residual
            # An inf or nan entry makes the norm inf or nan, so a non-finite
            # residual counts as growth, also against an inf r_norm.
            if isfinite(new_norm) and new_norm <= r_norm:
                break
        $accept
        r_norm, J = new_norm, None
        scale = $scale
        if scale == inf:  # else inf <= inf would accept it as a root
            raise NewtonFailureError(f"non-finite iterate at iteration {it}")
        if alpha * $step <= _STEP_TOL * scale:
            iters = it
            break
    else:
        # After the last iteration a residual at or below _ABS_TOL is
        # accepted.
        if not r_norm <= _ABS_TOL:
            raise NewtonFailureError(
                f"no convergence in {_MAX_ITERS} iterations "
                f"(last residual inf-norm {r_norm:.3e})")
        iters = _MAX_ITERS
    $finish
"""


def _newton_function(name: str, args: str, env: dict, **hooks):
    """The function ``name(args)`` that ``_NEWTON`` writes with its slots
    filled from ``hooks``, a list of lines for a block and a string for an
    expression.  The names in ``env`` are bound to its values in the
    function's closure; its globals are this module's, so it reads Newton's
    constants when it runs, as they are then."""
    hooks.update(name=name, args=args)
    lines = []
    for line in _NEWTON.splitlines():
        indentation, _, slot = line.partition("$")
        if isinstance(hooks.get(slot), list):  # a block slot
            lines += [indentation + block for block in hooks[slot]]
        else:
            lines.append(re.sub(r"\$(\w+)", lambda m: hooks[m[1]], line))
    source = (f"def _bind({', '.join(env)}):\n"
              + indent("\n".join(lines), "    ") + f"\n    return {name}\n")
    namespace = {}
    exec(source, globals(), namespace)
    return namespace["_bind"](**env)


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
    residual at or below _ABS_TOL is accepted.  An infinite iterate raises
    NewtonFailureError.  A singular Jacobian raises SingularMatrixError at
    the first iteration and NewtonFailureError at a later one.
    """
    return _newton()(residual, guess, linearize)


@cache
def _newton():
    """newton_solve's instance of ``_NEWTON``, generated on first use: the
    iterate, residual and update are lists, and its hooks are the calls
    linearize(y), residual(y) and lu_solve."""
    return _newton_function(
        "newton_solve", "residual, guess, linearize", {},
        start=["y = list(map(float, guess))", "r, J = linearize(y)",
               "r_norm = _inf_norm(r)"],
        scale="max(1.0, max(map(abs, y)))",
        jacobian=["J = linearize(y)[1]"],
        solve=["delta = lu_solve(J, [-v for v in r])"],
        trial=["y_new = [a + alpha * d for a, d in zip(y, delta)]"],
        residual=["r_new = residual(y_new)", "new_norm = _inf_norm(r_new)"],
        accept=["y, r = y_new, r_new"],
        step="max(map(abs, delta))",
        finish=["return y, iters"])
