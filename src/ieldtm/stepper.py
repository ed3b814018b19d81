"""The integration driver and the one step it takes.

The direction parameter theta places the matching point of two neighbouring
local Taylor expansions: theta = 0 is the explicit forward scheme, theta = 1
the implicit backward scheme and theta = 0.5 the implicit central scheme
(order K+1 for odd K, order K otherwise).  The explicit step is the
predictor of the implicit one.

An implicit step is a dense Newton solve of the matching defect.  Systems
here are tiny (m <= 6), so the Jacobian is rebuilt every iteration and
factored densely by partial-pivot LU.  Newton takes the residual and its
exact Jacobian from one call of the problem's tangent kernel
(``recurrence.tangent``, which ``problems._generate`` writes).  Newton's
iteration is written once, as the source template ``_NEWTON``: the
round-off floor, the acceptance at _ABS_TOL once progress stalls, the
_MAX_HALVINGS halvings of a growing update, the _STEP_TOL and _MAX_ITERS
limits and every error message.  ``_implicit_step(m, K)`` fills its slots
and writes one step per (m, K) out straight-line, with one local per entry
(the predictor, the residual's Horner sums, its finiteness test, the
inf-norms and the LU elimination of ``_lu_lines``): at m <= 6 a numpy call
per residual, column, pivot, swap or row update costs more than the
arithmetic it does.  The step reads Newton's constants from this module's
globals when it runs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache
from itertools import chain
from math import inf, isfinite  # read by the generated step kernels
from numbers import Integral
from typing import List, Union

import numpy as np

from .errors import NewtonFailureError, NonFiniteStateError, SingularMatrixError
from .problems import ProblemDefinition, _horner, _horner_lines

__all__ = [
    "FixedStep",
    "AdaptiveStep",
    "SchemeConfig",
    "SolutionTrace",
    "SAFETY",
    "build_coeff_table",
    "integrate",
    "theoretical_order",
]

_ADAPTIVE_THETAS = (0.0, 0.5, 1.0)

# The adaptive controller's safety factor: each proposal is SAFETY times the
# step that would meet tol exactly.  Fixed, as scipy's solve_ivp fixes it.
SAFETY = 0.9

# Step failures the driver reports as a trace status instead of raising.
_FAILURE_STATUS = {
    NewtonFailureError: "newton-failure",
    NonFiniteStateError: "non-finite-state",
    SingularMatrixError: "singular-matrix",
}


@dataclass(frozen=True)
class FixedStep:
    dt: float

    def __post_init__(self):
        if not self.dt > 0:  # also refuses nan
            raise ValueError("dt must be positive")


@dataclass(frozen=True)
class AdaptiveStep:
    tol: float
    dt_min: float = 1e-12

    def __post_init__(self):
        if not self.tol > 0:  # also refuses nan
            raise ValueError("tol must be positive")
        if not self.dt_min > 0:  # also refuses nan
            raise ValueError("dt_min must be positive")


def check_theta_order(theta: float, order: int) -> None:
    """The rule every (theta, K) keeps: theta in [0, 1] and K an integer
    >= 1 (int is tested first: the Integral check is slow)."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must be in [0, 1]")
    if isinstance(order, bool) or not isinstance(order, (int, Integral)):
        raise ValueError(f"order must be an integer, got {order!r}")
    if order < 1:
        raise ValueError("order must be >= 1")


@dataclass(frozen=True)
class SchemeConfig:
    theta: float
    order: int
    step_mode: Union[FixedStep, AdaptiveStep]

    def __post_init__(self):
        check_theta_order(self.theta, self.order)
        object.__setattr__(self, "order", int(self.order))
        if not isinstance(self.step_mode, (FixedStep, AdaptiveStep)):
            raise ValueError("step_mode must be a FixedStep or an AdaptiveStep")
        if (isinstance(self.step_mode, AdaptiveStep)
                and self.theta not in _ADAPTIVE_THETAS):
            raise ValueError("adaptive mode supports theta in {0, 0.5, 1} only")


@dataclass
class SolutionTrace:
    """One run's nodes, kept as columns with one entry per node; node 0 is
    the initial state, with dt, iterations and estimate 0.

    ``times``, ``states`` and ``final_state`` are built from the columns on
    each access, as fresh arrays: a trace shares no array with its problem
    or its caller.  It keeps no copy of its inputs: the caller holds the
    problem and the configuration it ran.
    """

    node_times: List[float]
    node_states: List[list]  # lists of floats
    dts_used: List[float]
    newton_iters: List[int]
    error_estimates: List[float]
    # completed | min-step-underflow | newton-failure | non-finite-state |
    # singular-matrix; the nodes run up to the failure.
    status: str
    # Empty when completed; else the failing step's t, its dt and the reason.
    failure: str = ""

    @property
    def steps(self) -> int:
        return len(self.node_times) - 1

    @property
    def times(self) -> np.ndarray:
        return np.array(self.node_times)

    @property
    def states(self) -> np.ndarray:
        return np.array(self.node_states)

    @property
    def final_state(self) -> np.ndarray:
        return np.array(self.node_states[-1])

    def max_error(self, exact) -> float:
        """Max inf-norm deviation from a callable reference over all nodes."""
        return max(
            float(np.abs(np.array(x) - exact(t)).max())
            for t, x in zip(self.node_times, self.node_states)
        )


def build_coeff_table(problem: ProblemDefinition, t_i: float, state: list,
                      depth: int) -> list:
    """The coefficient table of the list of ``dim`` numbers ``state`` about
    t_i through ``depth``.

    The table is the ``dim`` state series, ``table[j][k]`` = X_j(k) =
    x_j^(k)(t_i)/k!, always built whole by one recurrence call.  It does
    not store t_i.  Entries are Python floats: at m <= 6 and K <= 11 a
    numpy call costs more than its arithmetic.
    """
    if len(state) != problem.dim:
        raise ValueError(f"state must have {problem.dim} entries")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    table = problem.recurrence(t_i, state, depth)
    _check_finite(table, t_i, depth)
    return table


def _check_finite(table, t_i, depth: int) -> None:
    """Raise NonFiniteStateError unless every entry X(0), ..., X(depth) of
    the table about t_i is finite; entries past depth may be anything."""
    # One sum first: a nan or infinite entry makes the running sum nan or
    # infinite, and adding anything to it leaves it so.  Python >= 3.12
    # compensates float sums, but adds the compensation to that plain
    # running sum at the end, so this still holds.  A finite table can
    # overflow the sum, and an entry past depth can be non-finite; only then
    # is each entry through depth tested.
    if (not math.isfinite(sum(chain.from_iterable(table)))
            and not all(map(math.isfinite, chain.from_iterable(
                col[:depth + 1] for col in table)))):
        raise NonFiniteStateError(
            f"non-finite Taylor coefficient at t = {t_i!r}")


def _step(problem, t_i, node_table, theta, order, dt):
    """One step of dt from the node table about t_i.  Returns (state as a
    list of floats, iterations, table of the state or None).

    The explicit step (theta = 0) is the predictor, the local series at
    t_i + dt, read by the kernel ``_horner(order)``.  An implicit step is
    the generated kernel ``_implicit_step(m, order)``: the Newton solve,
    started from the predictor, of the defect between the trial state's
    expansion about t_i + dt and the node's, both at the matching point
    t_i + (1 - theta) dt.
    """
    if theta == 0.0:
        h = _horner(order)
        return [h(col, dt) for col in node_table], 0, None
    return _implicit_step(len(node_table), order)(problem.recurrence, t_i,
                                                  node_table, theta, dt)


_PIVOT_REL_TOL = 1e-14
_MAX_HALVINGS = 8  # of the Newton update while the residual grows
_ABS_TOL = 1e-12  # residual inf-norm threshold
_STEP_TOL = 1e-13  # update inf-norm threshold, relative to the state scale
_MAX_ITERS = 25
_EPSILON = sys.float_info.epsilon


# Newton's iteration, the one copy of its rules, which _implicit_step
# turns into the step function.  It fills each slot alone on its line with
# a block of lines and $scale and $step with an expression, all with one
# local per entry: $start binds the predictor y0, y1, ..., its residual r0,
# r1, ..., their inf-norm r_norm and the Jacobian J (the rows of a list);
# $jacobian rebinds J at the iterate; $solve leaves the solution delta of
# J delta = -r in x0, x1, ...; $trial makes the trial y + alpha delta in
# y0_new, ...; $residual binds its residual r0_new, ... and their inf-norm
# new_norm (nan when an entry is nan); $accept makes the trial the iterate;
# $finish returns.  $scale is max(1, |y|_inf) and $step |delta|_inf.
_NEWTON = """\
def step(recurrence, t_i, node_table, theta, dt):
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
        if J is None:  # the iterate has moved since the last tangent call
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
        # The iterate is finite: an infinite trial is X(0) of its own table,
        # so its residual is not finite and its finiteness test raises.
        scale = $scale
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


@cache
def _implicit_step(m: int, order: int):
    """The implicit step of an m-state problem at order K = ``order`` as
    one function step(recurrence, t_i, node_table, theta, dt), generated on
    first use from Newton's template ``_NEWTON`` with one local per entry:
    the Horner sums of the predictor, of the known side and of each
    residual (``problems._horner_lines``, the statements of ``_horner``),
    the residual's finiteness test, the inf-norms and the LU elimination
    (``_lu_lines``) are written out, in the order of Newton's loop on lists
    of floats applied to the step's residual function, so every bit is that
    composition's.  It returns what ``_step`` does.

    It calls the problem in two ways only.  The tangent kernel
    ``recurrence.tangent(order)`` gives the residual and its exact Jacobian
    at the predictor and each iteration's Jacobian, and builds no table.
    After each update ``recurrence(t_i + dt, y, depth)`` expands the trial
    state y as deep as the node table, ``depth = len(node_table[0]) - 1``,
    the index the next node's readers need; a residual is the table's state
    series through K by Horner at -theta dt minus the known side, and a
    table with a non-finite entry through K raises ``_check_finite``'s
    error.  The table of the last such call is returned when the solve took
    at least one iteration: its state is then the returned one, and the
    table is the next node's.  A solve that accepts the predictor at 0
    iterations makes no recurrence call, and the next node is built
    afresh; a one-iteration step makes one kernel call and one recurrence
    call.
    """
    M, join = range(m), ", ".join

    def names(form):
        return [form.format(i) for i in M]

    def largest(v):  # max(map(abs, v))
        return (f"max({join(f'abs({x})' for x in v)})" if m > 1
                else f"abs({v[0]})")

    def norm(v):  # max(map(abs, v)), but nan when any entry is nan
        return (f"math.nan if {' or '.join(f'{x} != {x}' for x in v)} "
                f"else {largest(v)}")

    y, r, x, node, known, col = (names(f) for f in (
        "y{}", "r{}", "x{}", "_n{}", "_k{}", "_c{}"))
    y_new, r_new = names("y{}_new"), names("r{}_new")
    start = [f"{join(node)}, = node_table"]
    for i in M:  # the predictor, Newton's guess
        start += _horner_lines(y[i], node[i], "dt", order)
        start.append(f"{y[i]} = float({y[i]})")
    start.append("_s = (1.0 - theta) * dt")
    for i in M:
        start += _horner_lines(known[i], node[i], "_s", order)
    start += [f"_known = [{join(known)}]", "_t_next = t_i + dt",
              "_offset = -theta * dt", "_depth = len(_n0) - 1",
              f"_tangent = recurrence.tangent({order})", "_table = None",
              f"[{join(r)}], J = _tangent(_t_next, _offset, _known, "
              f"[{join(y)}])", f"r_norm = {norm(r)}"]
    rows = (f"[{join(f'a{i}_{j}' for j in M)}]" for i in M)
    solve = [f"[{join(rows)}] = J"]
    solve += [f"b{i} = -{r[i]}" for i in M] + _lu_lines(m)
    residual = [f"_table = recurrence(_t_next, [{join(y_new)}], _depth)",
                f"{join(col)}, = _table"]
    for i in M:
        residual += _horner_lines(r_new[i], col[i], "_offset", order)
        residual.append(f"{r_new[i]} = {r_new[i]} - {known[i]}")
    # A non-finite coefficient through K makes its Horner sum, and so the
    # sum of the residuals, non-finite: a finite sum clears the table, and
    # only otherwise are its coefficients tested.
    residual += [f"if not isfinite({' + '.join(r_new)}):",
                 f"    _check_finite(_table, _t_next, {order})",
                 f"new_norm = {norm(r_new)}"]
    blocks = {
        "start": start,
        "jacobian": [f"J = _tangent(_t_next, _offset, _known, [{join(y)}])[1]"],
        "solve": solve,
        "trial": [f"{y_new[i]} = {y[i]} + alpha * {x[i]}" for i in M],
        "residual": residual,
        "accept": [f"{join(y + r)} = {join(y_new + r_new)}"],
        "finish": [f"return [{join(y)}], iters, _table"]}
    lines = []
    for line in (_NEWTON.replace("$scale", f"max(1.0, {largest(y)})")
                 .replace("$step", largest(x)).splitlines()):
        indentation, _, slot = line.partition("$")
        lines += [indentation + b for b in blocks[slot]] if slot else [line]
    namespace = {}
    exec("\n".join(lines) + "\n", globals(), namespace)
    return namespace["step"]


def theoretical_order(theta: float, order: int) -> int:
    """Order rule: K+1 for the central scheme with odd K, K otherwise."""
    if theta == 0.5 and order % 2 == 1:
        return order + 1
    return order


def _error_rule(theta: float, order: int):
    """(power, estimate_weight, controller_weight) of a run's local error
    rule, fixed by (theta, K).

    The local truncation error is estimate_weight ||X(power)||_inf dt^power
    with power = theoretical_order + 1 and weight
    |(1-theta)^(K+1) - (-theta)^(K+1)|; the central scheme with odd K
    cancels that term and gains an order, weight (1/2)^(K+1) (K+1).  The
    controller proposes SAFETY (tol / lead)^(1/(power-1)) from the lead
    controller_weight ||X(power)||_inf.  Case 2, the central scheme with odd
    K, steers by the estimate's weight; case 1, every other scheme, by 1.
    At theta in {0, 1} that is the estimate's weight too, but at theta = 0.5
    with even K the estimate's weight is 0.5^K: there the controller steers
    by a lead 2^K times the estimate's.
    """
    power = theoretical_order(theta, order) + 1
    if power == order + 2:
        weight = 0.5 ** (order + 1) * (order + 1)
        return power, weight, weight
    return power, abs((1.0 - theta) ** power - (-theta) ** power), 1.0


def _clip_to_events(t: float, dt: float, t_final: float, discontinuities):
    """The step from t as (dt, t_next): dt shortened so the mesh lands on
    t_final and on each declared discontinuity t_d, where the expansion
    must restart.  A step that would pass t_d, or end short of it by at
    most 1e-12 |t_d| (rounding drift of the accumulated t), is made to end
    exactly on t_d, so no step starts a hair before t_d and runs past it at
    the pre-switch rate.  The window is relative, so it holds on any time
    scale: an absolute floor would swallow a t_d near 1e-12."""
    dt = min(dt, t_final - t)
    t_next = t + dt
    for t_d in discontinuities:
        eps = 1e-12 * abs(t_d)
        # A step already ending on t_d keeps its dt: t_d - t may differ
        # from it in the last bit.
        if t < t_d - eps and t_next > t_d - eps and t_next != t_d:
            dt, t_next = t_d - t, t_d
    return dt, t_next


def _failure_context(t: float, dt, reason) -> str:
    """Where and why a trace stopped; dt is None before the step has one."""
    where = f"t = {t!r}" if dt is None else f"t = {t!r}, dt = {dt!r}"
    return f"step at {where}: {reason}"


def integrate(problem: ProblemDefinition, config: SchemeConfig,
              t_final: float, initial=None) -> SolutionTrace:
    """March from t = 0 to t_final: the one way to take a step, for every
    theta and both step modes.

    Only the choice of each node's dt depends on the mode.  ``FixedStep``
    takes its dt.  ``AdaptiveStep`` proposes dt once per node from the node's
    coefficients by the run's error rule (``_error_rule``); it supports theta
    in {0, 0.5, 1}, has no reject/retry loop yet, and a proposal below dt_min
    ends the trace with ``min-step-underflow``.  Every step is shortened to
    land on t_final, and ends exactly on each of the problem's
    discontinuities that it would pass or nearly reach (``_clip_to_events``).

    Each node needs one coefficient table expanded about the loop's t,
    through the index of the leading error term, theoretical_order + 1: the
    one coefficient the error estimate and the controller read.  After
    an implicit step the Newton solve has already built the accepted state's
    table through that index (the table of its last residual
    evaluation), so that table is the node table, tested for finiteness
    through that index here; a node gets a fresh build only at t = 0, after
    an explicit step and after a solve that accepted the predictor at 0
    iterations.  A failed trace says where and why in
    ``SolutionTrace.failure``; a non-finite state fails as
    ``non-finite-state`` at the node that holds it, the last node included.

    Each accepted node appends its t, state (a list of floats), dt,
    iterations and error estimate to the trace's columns; no per-step
    object or array is made.
    """
    if not 0 < t_final < math.inf:  # also refuses nan
        raise ValueError("t_final must be positive and finite")
    mode, theta, order = config.step_mode, config.theta, config.order
    adaptive = isinstance(mode, AdaptiveStep)
    power, est_weight, ctrl_weight = _error_rule(theta, order)

    x = np.asarray(problem.default_initial if initial is None else initial,
                   dtype=float)
    if x.shape != (problem.dim,):
        raise ValueError(f"initial state must have shape ({problem.dim},)")
    state = x.tolist()  # a copy: the trace never aliases the caller's array
    times, states, dts, iterations, estimates = [0.0], [state], [0.0], [0], [0.0]
    t, status, failure = 0.0, "completed", ""
    trial = None  # the accepted state's table from the last Newton solve
    # Relative, like the event window: a run to t_final <= 1e-12 steps too.
    eps_end = 1e-12 * t_final
    # Overflow surfaces as NonFiniteStateError from the coefficient table,
    # so numpy's warnings about it would only repeat the status.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            while t < t_final - eps_end:
                dt = None
                if trial is None:
                    table = build_coeff_table(problem, t, state, power)
                else:
                    table = trial
                    _check_finite(table, t, power)
                # The controller and the estimate read the same coefficient,
                # X(power): its norm is taken once per node.
                peak = max(abs(col[power]) for col in table)
                if adaptive:
                    lead = ctrl_weight * peak
                    dt = (math.inf if lead == 0.0 else
                          SAFETY * (mode.tol / lead) ** (1 / (power - 1)))
                    if dt < mode.dt_min:
                        status = "min-step-underflow"
                        failure = _failure_context(
                            t, dt, f"proposed dt below dt_min = {mode.dt_min!r}")
                        break
                else:
                    dt = mode.dt
                dt, t_next = _clip_to_events(t, dt, t_final,
                                             problem.discontinuities)
                lead = est_weight * peak
                try:
                    est = lead * dt ** power if lead else 0.0
                except OverflowError:  # a float power raises where a product gives inf
                    est = math.inf
                state, iters, trial = _step(problem, t, table, theta, order, dt)
                t = t_next
                times.append(t)
                states.append(state)
                dts.append(dt)
                iterations.append(iters)
                estimates.append(est)
            # Every other node's state is tested in its own table; the last
            # node is never expanded, so its state is tested here.
            dt = None
            if not all(map(math.isfinite, state)):
                raise NonFiniteStateError(f"non-finite state at t = {t!r}")
        except tuple(_FAILURE_STATUS) as exc:
            status = _FAILURE_STATUS[type(exc)]
            failure = _failure_context(t, dt, exc)
    return SolutionTrace(times, states, dts, iterations, estimates, status,
                         failure)
