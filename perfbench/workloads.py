"""The benchmark's workloads: seeded inputs, the timed calls and the output
checks.

``build(seed)`` makes the list of items (one solve or one stability cell
each); it is all that the fresh interpreter of ``setup_s`` runs after
``import ieldtm``.  ``run(items)`` makes the timed calls (run.py times each
item on its own); it calls into the package through module attributes only,
so the traced run can wrap them.  ``prepare(items)`` computes, once per run
and outside every timed region, the independent reference that
``check(items, outputs, ref)`` judges each pass against; ``check`` returns
one ``Outcome`` per item.  ``compare`` is the traced run's scipy comparator.

This module imports numpy and ieldtm only; scipy stays in ``reference``.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ieldtm import stability, stepper
from ieldtm.bench import ERROR_FACTOR, REFERENCE_TABLE5, STEP_FACTOR, check_table4
from ieldtm.problems import ProblemDefinition, duffing, robertson_modified, van_der_pol
from ieldtm.stepper import AdaptiveStep, FixedStep, SchemeConfig

# The seed that reproduces the paper's inputs exactly (Van der Pol from [2, 0]).
PAPER_SEED = 0


@dataclass(frozen=True)
class Solve:
    label: str
    problem: ProblemDefinition
    config: SchemeConfig
    t_final: float
    initial: np.ndarray
    shift: float = 0.0  # time shift of the exact solution (duffing-explicit)


@dataclass(frozen=True)
class Cell:
    theta: float
    order: int
    canonical: bool  # classification known from the paper

    @property
    def sampled(self) -> bool:
        return self.canonical and self.order == REGION_ORDER


@dataclass(frozen=True)
class Outcome:
    ok: bool
    work: int  # accepted steps, or stability calls made
    error: Optional[float] = None  # worst error against the reference
    note: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], list]
    run: Callable[[list], list]
    check: Callable[[list, list, object], list]
    prepare: Callable[[list], object] = lambda items: None
    # Traced run only: a scipy comparator, neither a metric nor a gate.
    compare: Optional[Callable[[list, object], dict]] = None


def _failed(output) -> Optional[Outcome]:
    """Outcome for a solve that raised or did not complete, else None."""
    if isinstance(output, Exception):
        return Outcome(False, 0, note=f"raised {type(output).__name__}: {output}")
    if output.status != "completed":
        return Outcome(False, output.steps, note=f"status {output.status}")
    return None


def run_solves(items: list) -> list:
    """Timed pass of the solver workloads; an exception is kept as the output
    of its solve and judged by ``check``."""
    outputs = []
    for s in items:
        try:
            outputs.append(stepper.integrate(s.problem, s.config, s.t_final, s.initial))
        except Exception as exc:  # a failed solve must not end the benchmark
            outputs.append(exc)
    return outputs


# ---------------------------------------------------------------------------
# vdp-stiff: the ROADMAP baseline row (Van der Pol eps = 10, T = 100, K = 5).
# Newton with its FD Jacobian takes about half the time (7 table builds per
# step) and the triple_product recurrence most of the rest, so Jacobian reuse
# and the coefficient layer both show here.  The seed perturbs U(0).
# ---------------------------------------------------------------------------

VDP_EPSILON = 10.0
VDP_T_FINAL = 100.0
VDP_ORDER = 5
VDP_TOL = 1e-10
VDP_PERTURBATION = 0.02
# Worst nodal error against the DOP853 reference: about 5e-6 today, at the
# fast transitions (the error at t = 100 is about 4e-9).  The bound allows the
# repository's usual factor of ten.
VDP_ERROR_BOUND = ERROR_FACTOR * 5e-6
VDP_STEP_BOUND = STEP_FACTOR * REFERENCE_TABLE5[(VDP_EPSILON, VDP_T_FINAL)][VDP_ORDER]


def build_vdp(seed: int) -> list:
    u0 = np.array([2.0, 0.0])
    if seed != PAPER_SEED:
        u0 += np.random.default_rng(seed).uniform(-VDP_PERTURBATION, VDP_PERTURBATION, 2)
    config = SchemeConfig(0.5, VDP_ORDER, AdaptiveStep(VDP_TOL))
    return [Solve(f"vdp eps={VDP_EPSILON:g} K={VDP_ORDER}", van_der_pol(VDP_EPSILON),
                  config, VDP_T_FINAL, u0)]


def prepare_vdp(items: list) -> list:
    import reference  # keeps scipy out of setup_s

    return [reference.vdp_dense(VDP_EPSILON, s.t_final, s.initial) for s in items]


def check_vdp(items: list, outputs: list, ref: list) -> list:
    outcomes = []
    for s, out, dense in zip(items, outputs, ref):
        failed = _failed(out)
        if failed:
            outcomes.append(failed)
            continue
        err = float(np.abs(out.states - dense(out.times).T).max())
        notes = []
        if out.steps > VDP_STEP_BOUND:
            notes.append(f"{out.steps} steps > {VDP_STEP_BOUND:g}")
        if not err <= VDP_ERROR_BOUND:
            notes.append(f"error {err:.3e} > {VDP_ERROR_BOUND:g}")
        outcomes.append(Outcome(not notes, out.steps, err, "; ".join(notes)))
    return outcomes


def _compare(solve: Solve, exact_final, rhs, jac) -> dict:
    """One IELDTM solve against scipy Radau at matched final error."""
    import reference

    start = time.perf_counter()
    out = stepper.integrate(solve.problem, solve.config, solve.t_final, solve.initial)
    wall = time.perf_counter() - start
    err = float(np.abs(out.final_state - exact_final).max())
    return {"case": solve.label,
            "ieldtm": {"final_error": err, "steps": out.steps, "wall_s": wall},
            "radau": reference.radau_matched(rhs, jac, solve.initial, solve.t_final,
                                             exact_final, err)}


def compare_vdp(items: list, ref: list) -> dict:
    import reference

    return _compare(items[0], ref[0](items[0].t_final), *reference.vdp_rhs(VDP_EPSILON))


# ---------------------------------------------------------------------------
# robertson-fixed: the table4 grid (theta = 0.5, fixed dt = 2^-5 .. 2^-8,
# K = 3, 4, 5, T = 4).  No controller, m = 3 and 1.5 Newton iterations per
# step over the grid (4.9 on the K = 5, dt = 2^-5 cell), so a cheaper Newton
# that converges more slowly costs here while it looks like a pure win on
# vdp-stiff.  The closed form fixes the inputs: the seed changes nothing.
# ---------------------------------------------------------------------------

ROBERTSON_ORDERS = (3, 4, 5)
ROBERTSON_DT_EXPONENTS = (5, 6, 7, 8)
ROBERTSON_T_FINAL = 4.0
# The cell put against Radau in the traced run: highest order, largest step.
ROBERTSON_COMPARED = "robertson K=5 dt=2^-5"


def build_robertson(seed: int) -> list:
    problem = robertson_modified()
    return [
        Solve(f"robertson K={order} dt=2^-{expo}", problem,
              SchemeConfig(0.5, order, FixedStep(2.0 ** -expo)),
              ROBERTSON_T_FINAL, problem.default_initial)
        for order in ROBERTSON_ORDERS for expo in ROBERTSON_DT_EXPONENTS
    ]


def compare_robertson(items: list, ref) -> dict:
    import reference

    solve = next(s for s in items if s.label == ROBERTSON_COMPARED)
    return _compare(solve, solve.problem.exact_solution(solve.t_final),
                    *reference.robertson_rhs())


def check_robertson(items: list, outputs: list, ref) -> list:
    outcomes = []
    for s, out in zip(items, outputs):
        failed = _failed(out)
        if failed:
            outcomes.append(failed)
            continue
        err = out.max_error(s.problem.exact_solution)
        row = {"K": s.config.order, "dt_exponent": round(-math.log2(s.config.step_mode.dt)),
               "status": out.status, "max_error": err}
        violations = check_table4([row])
        outcomes.append(Outcome(not violations, out.steps, err, "; ".join(violations)))
    return outcomes


# ---------------------------------------------------------------------------
# duffing-explicit: theta = 0, K = 9, fixed dt = 0.1, T = 4 over time-shifted
# logistic solutions of the cubic oscillator (autonomous, so every shift keeps
# the exact solution).  Newton does no work: this is the bypass workload for
# every nonlinear change, and the purest coefficient-layer load (one table
# build per step, triple_product most of the time).  The seed draws the
# shifts; the first solve is always the paper's start [0.5, 0.25].
# ---------------------------------------------------------------------------

DUFFING_SOLVES = 100
DUFFING_SHIFT_RANGE = 2.0
DUFFING_ORDER = 9
DUFFING_DT = 0.1
DUFFING_T_FINAL = 4.0
# Truncation-dominated worst error, about 9e-9 today; factor of ten as above.
DUFFING_ERROR_BOUND = ERROR_FACTOR * 1e-8


def _logistic(t):
    x = 1.0 / (1.0 + np.exp(-t))
    return np.stack([x, x * (1.0 - x)], axis=-1)


def build_duffing(seed: int) -> list:
    rng = np.random.default_rng(seed)
    shifts = rng.uniform(-DUFFING_SHIFT_RANGE, DUFFING_SHIFT_RANGE, DUFFING_SOLVES)
    shifts[0] = 0.0
    problem = duffing()
    config = SchemeConfig(0.0, DUFFING_ORDER, FixedStep(DUFFING_DT))
    return [Solve(f"duffing shift={s:+.6f}", problem, config, DUFFING_T_FINAL,
                  _logistic(s), shift=float(s))
            for s in shifts]


def check_duffing(items: list, outputs: list, ref) -> list:
    outcomes = []
    for s, out in zip(items, outputs):
        failed = _failed(out)
        if failed:
            outcomes.append(failed)
            continue
        err = float(np.abs(out.states - _logistic(out.times + s.shift)).max())
        ok = err <= DUFFING_ERROR_BOUND
        outcomes.append(Outcome(ok, out.steps, err,
                                "" if ok else f"error {err:.3e} > {DUFFING_ERROR_BOUND:g}"))
    return outcomes


# ---------------------------------------------------------------------------
# stability-map: A- and L-stability certificates on theta in {0, 0.5, 1} x
# K = 1..12, plus two seeded extra theta values per K, one on each side of the
# central scheme (the certificate's cost depends on that side, so the pass
# costs the same for every seed).  The region is sampled at its default
# 400 x 400 grid for the three canonical theta at K = 4, the highest order at
# which the central scheme is A-stable; the certificates keep most of the
# time.  The only workload that touches the stability module.
# ---------------------------------------------------------------------------

CANONICAL_THETAS = (0.0, 0.5, 1.0)
STABILITY_ORDERS = tuple(range(1, 13))
REGION_ORDER = 4
# The paper's classification of the canonical cells.
EXPECTED_A_STABLE = {(0.5, k) for k in range(1, 5)} | {(1.0, k) for k in range(1, 3)}
EXPECTED_L_STABLE = {(1.0, k) for k in range(1, 3)}
# Sampled |R| against the extended-precision reference, relative to
# max(1, |R|); float64 round-off gives about 5e-13 at K = 4.
REGION_ERROR_BOUND = 1e-9
# The default sample_region grid: 400 x 400 on [-10, 5] x [-10, 10].
REGION_RE = np.linspace(-10.0, 5.0, 400)
REGION_IM = np.linspace(-10.0, 10.0, 400)


def build_stability(seed: int) -> list:
    rng = np.random.default_rng(seed)
    cells = [Cell(theta, order, True)
             for theta in CANONICAL_THETAS for order in STABILITY_ORDERS]
    extra = rng.uniform(0.0, 0.5, (len(STABILITY_ORDERS), 2)) + [0.0, 0.5]
    cells += [Cell(float(theta), order, False)
              for order, thetas in zip(STABILITY_ORDERS, extra) for theta in thetas]
    return cells


def run_stability(items: list) -> list:
    outputs = []
    for c in items:
        try:
            a_stable = stability.is_A_stable(c.theta, c.order)
            l_stable = stability.is_L_stable(c.theta, c.order)
            grid = stability.sample_region(c.theta, c.order) if c.sampled else None
            outputs.append((a_stable, l_stable, grid))
        except Exception as exc:  # a failed certificate must not end the benchmark
            outputs.append(exc)
    return outputs


def abs_R_reference(z, theta: float, order: int) -> np.ndarray:
    """|R(z)| summed term by term in extended precision, independent of the
    float64 Horner scheme in ieldtm.stability."""
    z = np.asarray(z, dtype=np.clongdouble)
    num = np.zeros_like(z)
    den = np.zeros_like(z)
    power = np.ones_like(z)
    for k in range(order + 1):
        fact = np.longdouble(math.factorial(k))
        num += power * (np.longdouble(1.0 - theta) ** k / fact)
        den += power * (np.longdouble(-theta) ** k / fact)
        power *= z
    with np.errstate(divide="ignore", invalid="ignore"):
        return (np.abs(num) / np.abs(den)).astype(float)


def prepare_stability(items: list) -> dict:
    """Reference |R| on the default sample_region grid of every sampled
    cell, keyed (theta, K)."""
    z = REGION_RE[:, None] + 1j * REGION_IM[None, :]
    return {(c.theta, c.order): abs_R_reference(z, c.theta, c.order)
            for c in items if c.sampled}


def check_stability(items: list, outputs: list, ref: dict) -> list:
    outcomes = []
    for c, out in zip(items, outputs):
        calls = 3 if c.sampled else 2
        if isinstance(out, Exception):
            outcomes.append(Outcome(False, calls, note=f"raised {type(out).__name__}: {out}"))
            continue
        (a_stable, witness), l_stable, grid = out
        cell = f"theta={c.theta:.6f} K={c.order}"
        notes = []
        if a_stable != (witness is None):
            notes.append(f"{cell}: A-stable={a_stable} with witness {witness}")
        if l_stable and not a_stable:
            notes.append(f"{cell}: L-stable but not A-stable")
        err = None
        if c.canonical:
            key = (c.theta, c.order)
            if a_stable != (key in EXPECTED_A_STABLE):
                notes.append(f"{cell}: A-stable={a_stable}, paper says {not a_stable}")
            if l_stable != (key in EXPECTED_L_STABLE):
                notes.append(f"{cell}: L-stable={l_stable}, paper says {not l_stable}")
        if c.sampled:
            expected = ref[(c.theta, c.order)]
            if not (np.array_equal(grid.re_values, REGION_RE)
                    and np.array_equal(grid.im_values, REGION_IM)):
                notes.append(f"{cell}: region not sampled on the default grid")
            else:
                finite = np.isfinite(expected)
                err = float((np.abs(grid.values[finite] - expected[finite])
                             / np.maximum(1.0, expected[finite])).max())
                if not err <= REGION_ERROR_BOUND:
                    notes.append(f"{cell}: sampled |R| off by {err:.3e}")
            if a_stable and stability.unstable_fraction(grid) > 0.0:
                notes.append(f"{cell}: certified A-stable but the sampled region is not")
        outcomes.append(Outcome(not notes, calls, err, "; ".join(notes)))
    return outcomes


def traced_items(items: list, wrap_problem: Callable) -> list:
    """The items with every problem passed through ``wrap_problem``, which
    the traced run uses to wrap each recurrence."""
    return [dataclasses.replace(item, problem=wrap_problem(item.problem))
            if isinstance(item, Solve) else item for item in items]


WORKLOADS = {
    w.name: w for w in (
        Workload("vdp-stiff", build_vdp, run_solves, check_vdp, prepare_vdp,
                 compare_vdp),
        Workload("robertson-fixed", build_robertson, run_solves, check_robertson,
                 compare=compare_robertson),
        Workload("duffing-explicit", build_duffing, run_solves, check_duffing),
        Workload("stability-map", build_stability, run_stability, check_stability,
                 prepare_stability),
    )
}
