"""The integration driver and the one step it takes.

The direction parameter theta places the matching point of two neighbouring
local Taylor expansions: theta = 0 is the explicit forward scheme, theta = 1
the implicit backward scheme and theta = 0.5 the implicit central scheme
(order K+1 for odd K, order K otherwise).  The explicit step is the
predictor of the implicit one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import chain
from numbers import Integral
from typing import List, Union

import numpy as np

from .errors import NewtonFailureError, NonFiniteStateError, SingularMatrixError
from .nonlinear import newton_solve
from .problems import ProblemDefinition

__all__ = [
    "FixedStep",
    "AdaptiveStep",
    "SchemeConfig",
    "SolutionTrace",
    "build_coeff_table",
    "integrate",
    "theoretical_order",
]

_ADAPTIVE_THETAS = (0.0, 0.5, 1.0)

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
    safety: float = 0.9

    def __post_init__(self):
        if not self.tol > 0:  # also refuses nan
            raise ValueError("tol must be positive")
        if not self.dt_min > 0:  # also refuses nan
            raise ValueError("dt_min must be positive")
        if not 0 < self.safety <= 1:
            raise ValueError("safety must be in (0, 1]")


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
    or its caller.
    """

    problem_name: str
    config: SchemeConfig
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
    x_j^(k)(t_i)/k!, always built whole by one recurrence call from one-entry
    lists.  It does not store t_i.  Entries are Python floats, or complex
    numbers for the complex-step Jacobian: at m <= 6 and K <= 11 a numpy call
    costs more than its arithmetic.
    """
    if len(state) != problem.dim:
        raise ValueError(f"state must have {problem.dim} entries")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    table = [[x] for x in state]
    problem.recurrence(t_i, table, depth)
    _check_finite(table, t_i, depth)
    return table


def _check_finite(table, t_i, depth: int) -> None:
    """Raise NonFiniteStateError unless every entry X(0), ..., X(depth) of
    the table about t_i is finite; entries past depth may be anything."""
    # One sum first: a nan or infinite entry makes the running sum nan or
    # infinite, per component for complex entries, and adding anything to
    # it leaves it so.  Python >= 3.12 compensates float sums, but adds the
    # compensation to that plain running sum at the end, so this still
    # holds.  A finite table can overflow the sum, and an entry past depth
    # can be non-finite; only then is each entry through depth tested.
    if (not cmath.isfinite(sum(chain.from_iterable(table)))
            and not all(map(cmath.isfinite, chain.from_iterable(
                col[:depth + 1] for col in table)))):
        raise NonFiniteStateError(
            f"non-finite Taylor coefficient at t = {t_i!r}")


# The Horner kernel of every order generated so far, by order; see _horner.
_kernels = {}


def _horner(order: int):
    """The Horner kernel of ``order``: h(col, s) takes a = col[order], then
    a = a * s + col[k] for k = order-1, ..., 0, and returns a, the series
    through ``order`` at s in the type of its inputs.

    The kernel is written out one statement per k (a nested expression
    would pass CPython's limit of 200 nested parentheses at order 200).  It
    is generated on first use and cached; replacing an entry concurrently
    stores an equal kernel.
    """
    kernel = _kernels.get(order)
    if kernel is None:
        lines = [f"    a = col[{order}]\n"]
        lines += [f"    a = a * s + col[{k}]\n" for k in range(order - 1, -1, -1)]
        namespace = {}
        exec("def horner(col, s):\n" + "".join(lines) + "    return a\n",
             namespace)
        kernel = _kernels[order] = namespace["horner"]
    return kernel


def _residual_function(problem, t_next, known_value, theta, order, dt,
                       depth):
    """The continuity defect of one implicit step as a function of the
    trial state, and the [trial state, trial table] pair of its last call.

    ``residual(y)`` expands the list y of ``dim`` numbers about t_next, tests
    the table's finiteness through ``order`` and returns h(col, -theta dt) -
    known for each column and each entry of ``known_value``, h =
    ``_horner(order)``.  A real y is a candidate next node, so its table runs
    through ``depth``, the index the node's readers need; a complex-step
    point's table stops at ``order``, all that Horner reads.  Everything
    fixed for the step is bound here once; y is not validated.
    """
    recurrence = problem.recurrence
    offset = -theta * dt
    h = _horner(order)
    last = [None, None]

    def residual(y):
        table = [[x] for x in y]
        recurrence(t_next, table, order if type(y[0]) is complex else depth)
        _check_finite(table, t_next, order)
        r = [h(col, offset) - k for col, k in zip(table, known_value)]
        last[0], last[1] = y, table
        return r

    return residual, last


def _step(problem, t_i, node_table, theta, order, dt):
    """One step of dt from the node table about t_i.  Returns (state as a
    list of floats, iterations, table of the state or None).

    The explicit step (theta = 0) is the predictor, the local series at
    t_i + dt.  An implicit step is the Newton solve started from it, on the
    one residual function ``_residual_function`` builds for the step: the
    defect between the trial state's expansion about t_i + dt and the
    node's, both at the matching point t_i + (1 - theta) dt.  Both of the
    node's series values are read by the kernel ``_horner(order)``.  The
    real residual calls build their tables as deep as the node table,
    ``len(node_table[0]) - 1``.  The table returned is the one the last
    residual evaluation built, returned only when Newton returned that very
    list: it is then the next node's table.  Newton's complex-step points
    are lists of their own, so a complex table is never handed on: a solve
    that accepts the predictor at 0 iterations has made only its first
    complex call, and the next node is built afresh.  A one-iteration step
    makes m complex residual calls and one real one.
    """
    h = _horner(order)
    predictor = [h(col, dt) for col in node_table]
    if theta == 0.0:
        # Plain floats, also from a recurrence that appends numpy scalars.
        return list(map(float, predictor)), 0, None
    # The known side is fixed for the whole step.
    known_value = [h(col, (1.0 - theta) * dt) for col in node_table]
    residual, last = _residual_function(problem, t_i + dt, known_value, theta,
                                        order, dt, len(node_table[0]) - 1)
    state, iters = newton_solve(residual, predictor)
    return state, iters, last[1] if state is last[0] else None


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
    controller proposes safety (tol / lead)^(1/(power-1)) from the lead
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
    most 1e-12 max(1, t_d) (rounding drift of the accumulated t), is made
    to end exactly on t_d, so no step starts a hair before t_d and runs
    past it at the pre-switch rate."""
    dt = min(dt, t_final - t)
    t_next = t + dt
    for t_d in discontinuities:
        eps = 1e-12 * max(1.0, t_d)
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
    table through that index (the table of its last real residual
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
    eps_end = 1e-12 * max(1.0, t_final)
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
                          mode.safety * (mode.tol / lead) ** (1 / (power - 1)))
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
    return SolutionTrace(problem.name, config, times, states, dts, iterations,
                         estimates, status, failure)
