"""One-step advancement and integration drivers.

The direction parameter theta places the matching point of two neighbouring
local Taylor expansions: theta = 0 is the explicit forward scheme, theta = 1
the implicit backward scheme and theta = 0.5 the implicit central scheme
(order K+1 for odd K, order K otherwise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from .errors import (
    InvalidConfigurationError,
    NewtonFailureError,
    NonFiniteStateError,
    SingularMatrixError,
)
from .nonlinear import NewtonConfig, newton_solve
from .problems import ProblemDefinition
from .taylor import CoeffTable, horner_eval

__all__ = [
    "FixedStep",
    "AdaptiveStep",
    "SchemeConfig",
    "StepRecord",
    "SolutionTrace",
    "build_coeff_table",
    "explicit_step",
    "implicit_residual",
    "implicit_step",
    "adaptive_dt_case1",
    "adaptive_dt_case2",
    "integrate_fixed",
    "integrate_adaptive",
    "integrate",
]

# Two coefficients beyond the scheme order are always generated: the central
# adaptive controller reads X(K+2) and the others X(K+1).
EXTRA_DEPTH = 2

_ADAPTIVE_THETAS = (0.0, 0.5, 1.0)

# Step failures the drivers report as a trace status instead of raising.
_FAILURE_STATUS = {
    NewtonFailureError: "newton-failure",
    NonFiniteStateError: "non-finite-state",
    SingularMatrixError: "singular-matrix",
}


@dataclass(frozen=True)
class FixedStep:
    dt: float

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")


@dataclass(frozen=True)
class AdaptiveStep:
    tol: float
    dt_min: float = 1e-12
    dt_max: Optional[float] = None  # None -> t_final
    safety: float = 0.9

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.dt_min <= 0 or (self.dt_max is not None and self.dt_max < self.dt_min):
            raise ValueError("need 0 < dt_min <= dt_max")
        if not 0 < self.safety <= 1:
            raise ValueError("safety must be in (0, 1]")


@dataclass(frozen=True)
class SchemeConfig:
    theta: float
    order: int
    step_mode: Union[FixedStep, AdaptiveStep]
    newton: NewtonConfig = field(default_factory=NewtonConfig)

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must be in [0, 1]")
        if self.order < 1:
            raise ValueError("order must be >= 1")


@dataclass(frozen=True)
class StepRecord:
    t: float
    state: np.ndarray
    dt_used: float  # 0 for the initial record
    newton_iters: int
    local_error_estimate: float


@dataclass
class SolutionTrace:
    problem_name: str
    config: SchemeConfig
    records: List[StepRecord]
    # completed | min-step-underflow | newton-failure | non-finite-state |
    # singular-matrix; records run up to the failure.
    status: str

    @property
    def steps(self) -> int:
        return len(self.records) - 1

    @property
    def times(self) -> np.ndarray:
        return np.array([r.t for r in self.records])

    @property
    def states(self) -> np.ndarray:
        return np.array([r.state for r in self.records])

    @property
    def final_state(self) -> np.ndarray:
        return self.records[-1].state

    def max_error(self, exact) -> float:
        """Max inf-norm deviation from a callable reference over all nodes."""
        return max(
            float(np.abs(r.state - exact(r.t)).max()) for r in self.records
        )


def build_coeff_table(problem: ProblemDefinition, t_i: float, state,
                      depth: int) -> CoeffTable:
    """Run the problem recurrence ``depth`` times starting from the state.

    ``state`` is one state of shape ``(dim,)`` or a batch of B states of
    shape ``(dim, B)``; the table takes its shape from it.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    state = np.asarray(state, dtype=float)
    if state.ndim not in (1, 2) or state.shape[0] != problem.dim:
        raise ValueError(
            f"state must have shape ({problem.dim},) or ({problem.dim}, B)")
    coeffs = np.empty((depth + 1,) + state.shape)
    coeffs[0] = state
    for k in range(depth):
        coeffs[k + 1] = problem.recurrence(t_i, coeffs[: k + 1], k)
    return CoeffTable(t_i, coeffs)


def explicit_step(problem: ProblemDefinition, t_i: float, state, order: int,
                  dt: float) -> np.ndarray:
    """Forward (theta = 0) step: evaluate the local series at t_i + dt."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    table = build_coeff_table(problem, t_i, state, order)
    return horner_eval(table, dt, order)


def implicit_residual(problem: ProblemDefinition, known_table: CoeffTable,
                      trial_state, theta: float, order: int,
                      dt: float) -> np.ndarray:
    """Continuity defect of the two expansions at the matching point
    t_i + (1 - theta) dt; its root is the accepted next state.

    A ``(dim, B)`` stack of trial states gives the ``(dim, B)`` defects from
    one batched table build.
    """
    t_next = known_table.base_time + dt
    trial_table = build_coeff_table(problem, t_next, trial_state, order)
    lhs = horner_eval(trial_table, -theta * dt, order)
    rhs = horner_eval(known_table, (1.0 - theta) * dt, order)
    return lhs - rhs.reshape(rhs.shape + (1,) * (lhs.ndim - rhs.ndim))


def implicit_step(problem: ProblemDefinition, t_i: float, state, theta: float,
                  order: int, dt: float,
                  newton_config: NewtonConfig | None = None,
                  known_table: CoeffTable | None = None):
    """Implicit (theta > 0) step solved by Newton iteration; the predictor is
    the explicit step of the same order.  Returns (state, iterations)."""
    if theta <= 0:
        raise InvalidConfigurationError("implicit_step requires theta > 0")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if known_table is None or known_table.depth < order:
        known_table = build_coeff_table(problem, t_i, state, order)
    predictor = horner_eval(known_table, dt, order)

    def residual(y):
        return implicit_residual(problem, known_table, y, theta, order, dt)

    return newton_solve(residual, predictor, newton_config)


def adaptive_dt_case1(table: CoeffTable, order: int, tol: float,
                      safety: float = 1.0, dt_min: float = 0.0,
                      dt_max: float = math.inf) -> float:
    """Step proposal for the forward/backward controllers, driven by
    ||X(K+1)||_inf; a vanishing coefficient yields dt_max."""
    if table.depth < order + 1:
        raise IndexError("table must hold coefficients through K+1")
    lead = float(np.abs(table.coeffs[order + 1]).max())
    if lead == 0.0:
        return dt_max
    dt = safety * (tol / lead) ** (1.0 / order)
    return min(max(dt, dt_min), dt_max)


def adaptive_dt_case2(table: CoeffTable, order: int, tol: float,
                      safety: float = 1.0, dt_min: float = 0.0,
                      dt_max: float = math.inf) -> float:
    """Step proposal for the central scheme with odd K, driven by the scaled
    coefficient (1/2)^(K+1) (K+1) X(K+2)."""
    if order % 2 == 0:
        raise InvalidConfigurationError("case-2 controller requires odd order")
    if table.depth < order + 2:
        raise IndexError("table must hold coefficients through K+2")
    factor = 0.5 ** (order + 1) * (order + 1)
    lead = factor * float(np.abs(table.coeffs[order + 2]).max())
    if lead == 0.0:
        return dt_max
    dt = safety * (tol / lead) ** (1.0 / (order + 1))
    return min(max(dt, dt_min), dt_max)


def _local_error_estimate(table: CoeffTable, theta: float, order: int,
                          dt: float) -> float:
    """Leading local-truncation-error magnitude from the node coefficients."""
    central_odd = theta == 0.5 and order % 2 == 1
    if central_odd:
        factor = 0.5 ** (order + 1) * (order + 1)
        lead = float(np.abs(table.coeffs[order + 2]).max())
        return factor * lead * dt ** (order + 2)
    factor = abs((1.0 - theta) ** (order + 1) - (-theta) ** (order + 1))
    lead = float(np.abs(table.coeffs[order + 1]).max())
    return factor * lead * dt ** (order + 1)


def _clip_to_events(t: float, dt: float, t_final: float,
                    discontinuities) -> float:
    """Shorten dt so the mesh lands exactly on t_final and on any declared
    discontinuity (the expansion must restart there)."""
    dt = min(dt, t_final - t)
    for t_d in discontinuities:
        if t < t_d - 1e-12 and t + dt > t_d:
            dt = t_d - t
    return dt


def _advance(problem, table, theta, order, dt, newton_cfg):
    """One accepted step from a prebuilt node table; returns (state, iters)."""
    if theta == 0.0:
        return horner_eval(table, dt, order), 0
    return implicit_step(problem, table.base_time, table.state, theta, order,
                         dt, newton_cfg, known_table=table)


def integrate_fixed(problem: ProblemDefinition, config: SchemeConfig,
                    t_final: float, initial=None) -> SolutionTrace:
    """March with a constant step; the last step is truncated to land exactly
    on t_final."""
    if not isinstance(config.step_mode, FixedStep):
        raise InvalidConfigurationError("integrate_fixed needs a FixedStep mode")
    if t_final <= 0:
        raise ValueError("t_final must be positive")
    theta, order = config.theta, config.order
    x = np.asarray(problem.default_initial if initial is None else initial,
                   dtype=float)
    records = [StepRecord(0.0, x, 0.0, 0, 0.0)]
    t, status = 0.0, "completed"
    eps_end = 1e-12 * max(1.0, t_final)
    # Overflow surfaces as NonFiniteStateError from the coefficient table,
    # so numpy's warnings about it would only repeat the status.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            while t < t_final - eps_end:
                dt = _clip_to_events(t, config.step_mode.dt, t_final,
                                     problem.discontinuities)
                table = build_coeff_table(problem, t, x, order + EXTRA_DEPTH)
                est = _local_error_estimate(table, theta, order, dt)
                x, iters = _advance(problem, table, theta, order, dt, config.newton)
                t += dt
                records.append(StepRecord(t, x, dt, iters, est))
        except tuple(_FAILURE_STATUS) as exc:
            status = _FAILURE_STATUS[type(exc)]
    return SolutionTrace(problem.name, config, records, status)


def integrate_adaptive(problem: ProblemDefinition, config: SchemeConfig,
                       t_final: float, initial=None) -> SolutionTrace:
    """Adaptive march: the step is chosen once per node from the local
    coefficients (proportional controller, no reject/retry loop).

    Supported directions are theta in {0, 0.5, 1}; the central scheme with
    even order falls back to the order-K controller.
    """
    if not isinstance(config.step_mode, AdaptiveStep):
        raise InvalidConfigurationError("integrate_adaptive needs an AdaptiveStep mode")
    if t_final <= 0:
        raise ValueError("t_final must be positive")
    theta, order = config.theta, config.order
    if theta not in _ADAPTIVE_THETAS:
        raise InvalidConfigurationError(
            "adaptive mode supports theta in {0, 0.5, 1} only"
        )
    mode = config.step_mode
    dt_max = mode.dt_max if mode.dt_max is not None else t_final
    central_odd = theta == 0.5 and order % 2 == 1

    x = np.asarray(problem.default_initial if initial is None else initial,
                   dtype=float)
    records = [StepRecord(0.0, x, 0.0, 0, 0.0)]
    t, status = 0.0, "completed"
    eps_end = 1e-12 * max(1.0, t_final)
    with np.errstate(over="ignore", invalid="ignore"):  # as in integrate_fixed
        try:
            while t < t_final - eps_end:
                table = build_coeff_table(problem, t, x, order + EXTRA_DEPTH)
                if central_odd:
                    dt = adaptive_dt_case2(table, order, mode.tol, mode.safety,
                                           dt_max=dt_max)
                else:
                    dt = adaptive_dt_case1(table, order, mode.tol, mode.safety,
                                           dt_max=dt_max)
                if dt < mode.dt_min:
                    status = "min-step-underflow"
                    break
                dt = _clip_to_events(t, dt, t_final, problem.discontinuities)
                est = _local_error_estimate(table, theta, order, dt)
                x, iters = _advance(problem, table, theta, order, dt, config.newton)
                t += dt
                records.append(StepRecord(t, x, dt, iters, est))
        except tuple(_FAILURE_STATUS) as exc:
            status = _FAILURE_STATUS[type(exc)]
    return SolutionTrace(problem.name, config, records, status)


def integrate(problem: ProblemDefinition, config: SchemeConfig,
              t_final: float, initial=None) -> SolutionTrace:
    """Dispatch on the configured step mode."""
    if isinstance(config.step_mode, FixedStep):
        return integrate_fixed(problem, config, t_final, initial)
    return integrate_adaptive(problem, config, t_final, initial)
