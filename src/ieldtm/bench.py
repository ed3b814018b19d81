"""Benchmark experiment runners: trajectories, error tables, convergence
sweeps, step-count comparisons and stability grids, with CSV/JSON output.

Every emitted file embeds the full experiment specification in comment lines
so any table can be regenerated from its own header.  The pipeline contains
no randomness: identical specifications produce identical CSV bodies.
"""

from __future__ import annotations

import csv
import inspect
import io
import time

import numpy as np

from . import __version__
from .problems import ProblemDefinition, make_problem, seir
from .stability import is_A_stable, is_L_stable, sample_region
from .stepper import (
    SAFETY,
    AdaptiveStep,
    FixedStep,
    SchemeConfig,
    SolutionTrace,
    integrate,
    theoretical_order,
)

__all__ = [
    "reference_oracle",
    "run_solve",
    "order_sweep_rows",
    "table3_rows",
    "table4_rows",
    "table5_rows",
    "seir_sweep_rows",
    "write_csv",
    "write_trace_csv",
    "write_grid_csv",
    "check_table3",
    "check_table4",
    "check_table5",
    "check_seir_sweep",
    "REFERENCE_TABLE3",
    "REFERENCE_TABLE4",
    "REFERENCE_TABLE5",
]

# Published reference values used by --check mode (steps, max error).
REFERENCE_TABLE3 = {
    (1.0, 3): (51, 7.93e-11),
    (1.0, 5): (9, 2.38e-10),
    (2.0, 3): (92, 4.62e-09),
    (2.0, 5): (16, 8.45e-09),
    (4.0, 3): (152, 1.01e-05),
    (4.0, 5): (27, 1.49e-05),
}
REFERENCE_TABLE4 = {
    (3, 5): 2.69e-10, (4, 5): 4.89e-11, (5, 5): 3.89e-13,
    (3, 6): 4.97e-11, (4, 6): 5.86e-12, (5, 6): 3.79e-13,
    (3, 7): 4.97e-12, (4, 7): 5.94e-13, (5, 7): 1.33e-15,
    (3, 8): 4.76e-13, (4, 8): 5.62e-14, (5, 8): 8.88e-16,
}  # keyed (K, -log2 dt)
REFERENCE_TABLE5 = {
    (0.1, 1.0): {3: 1788, 5: 254, 7: 95, 9: 53},
    (1.0, 10.0): {3: 3827, 5: 520, 7: 193, 9: 108},
    (10.0, 100.0): {3: 45607, 5: 5339, 7: 1888, 9: 1068},
    (100.0, 1000.0): {3: 173179, 5: 19012, 7: 15282, 9: 10820},
}

STEP_FACTOR = 2.0   # accept step counts within x2 of the published value
ERROR_FACTOR = 10.0  # accept max errors within x10 of the published value


def reference_oracle(problem: ProblemDefinition, config: SchemeConfig,
                     t_final: float):
    """Reference solution used for error reporting: the closed form when one
    exists, otherwise a refined self-reference run (central scheme, order
    K+4, tolerance / 1e4) with its own two-resolution consistency error.

    Returns (description, self_error, error_fn); self_error is None for the
    closed form, and error_fn(trace) -> max error or None.  The refined
    reference is compared at t_final only (no dense output).  A reference
    run that does not complete measures nothing: the description then names
    it (tol, status, t), self_error is None and error_fn returns None.
    """
    if problem.exact_solution is not None:
        return (f"closed-form solution of {problem.name}", None,
                lambda trace: trace.max_error(problem.exact_solution))

    ref_order = config.order + 4
    if isinstance(config.step_mode, AdaptiveStep):
        ref_tol = config.step_mode.tol / 1e4
    else:
        ref_tol = 1e-10
    description = (f"central IELDTM self-reference, K={ref_order}, "
                   f"tol={ref_tol:g}, compared at t_final only")
    traces = []
    for tol in (ref_tol, ref_tol / 2.0):
        cfg = SchemeConfig(0.5, ref_order, AdaptiveStep(tol))
        traces.append(integrate(problem, cfg, t_final))
        if traces[-1].status != "completed":
            return (f"{description}; the reference run at tol={tol:g} ended "
                    f"{traces[-1].status} at t = {traces[-1].node_times[-1]!r}",
                    None, lambda trace: None)
    fine = traces[1]
    self_err = float(np.abs(traces[0].final_state - fine.final_state).max())

    def error_fn(trace):
        if trace.status != "completed":
            return None
        return float(np.abs(trace.final_state - fine.final_state).max())

    return description, self_err, error_fn


def run_solve(problem: ProblemDefinition, config: SchemeConfig,
              t_final: float, initial=None, with_oracle: bool = True):
    """Integrate once and assemble the summary mapping."""
    start = time.perf_counter()
    trace = integrate(problem, config, t_final, initial)
    wall_ms = 1000.0 * (time.perf_counter() - start)
    oracle_desc, max_error, self_err = "none", None, None
    if with_oracle:
        oracle_desc, self_err, error_fn = reference_oracle(problem, config,
                                                           t_final)
        max_error = error_fn(trace)
    mode = "fixed" if isinstance(config.step_mode, FixedStep) else "adaptive"
    summary = {
        "problem": problem.name,
        "theta": config.theta,
        "K": config.order,
        "mode": mode,
        "steps": trace.steps,
        "max_error": max_error,
        "oracle": oracle_desc,
        "wall_ms": wall_ms,
        "status": trace.status,
        "failure": trace.failure,
    }
    if with_oracle and problem.exact_solution is None:
        summary["oracle_self_error"] = self_err
    return trace, summary


def order_sweep_rows(thetas=(0.0, 0.5, 1.0), orders=range(1, 7),
                     dt: float = 0.05, t_final: float = 1.0):
    """Observed convergence orders on the cubic oscillator from paired
    fixed-step runs at dt, dt/2.  A cell whose run fails keeps its row with
    status ``failed: <trace status>``; an exact run leaves no order to read,
    so ``observed`` is None where either error is 0.  ValueError unless
    t_final is a whole number n >= 1 of steps dt, within integrate's end
    window 1e-12 t_final: otherwise the last step of each run is clipped to
    t_final, the dt/2 run does not halve every step of the dt run, and the
    ratio of their errors is no order.

    Returns (spec, rows), as every paper table does: the spec names the
    runs' settings, and each row is keyed in CSV column order."""
    steps = round(t_final / dt, 0)  # a float: inf for a subnormal dt
    if not (steps >= 1 and abs(steps * dt - t_final) <= 1e-12 * t_final):
        raise ValueError(f"t_final = {t_final!r} must be a whole number of "
                         f"steps dt = {dt!r}, or the last step is clipped and "
                         "the dt/2 run does not halve every step")
    problem = make_problem("duffing")
    spec = {"command": "order-sweep", "problem": problem.name, "dt": dt,
            "tf": t_final, "oracle": "closed-form logistic solution"}
    rows = []
    for theta in thetas:
        for order in orders:
            row = {"theta": theta, "K": order, "dt": dt, "err_dt": None,
                   "err_half": None, "observed": None,
                   "theory": theoretical_order(theta, order), "status": "ok"}
            errs = []
            for step in (dt, dt / 2.0):
                trace = integrate(problem, SchemeConfig(theta, order, FixedStep(step)),
                                  t_final)
                if trace.status != "completed":
                    row["status"] = f"failed: {trace.status}"
                    break
                errs.append(trace.max_error(problem.exact_solution))
            else:
                row["err_dt"], row["err_half"] = errs
                if errs[0] and errs[1]:
                    row["observed"] = float(np.log2(errs[0] / errs[1]))
            rows.append(row)
    return spec, rows


def table3_rows(t_finals=(1.0, 2.0, 4.0), orders=(3, 5), tol: float = 1e-10):
    """Adaptive central runs on the cubic oscillator with the exact logistic
    solution: step counts and max errors, as (spec, rows)."""
    problem, theta = make_problem("duffing"), 0.5
    spec = {"command": "table3", "problem": problem.name, "theta": theta,
            "tol": tol, "safety": SAFETY,
            "oracle": "closed-form logistic solution"}
    rows = []
    for t_final in t_finals:
        for order in orders:
            cfg = SchemeConfig(theta, order, AdaptiveStep(tol))
            trace = integrate(problem, cfg, t_final)
            err = (trace.max_error(problem.exact_solution)
                   if trace.status == "completed" else None)
            rows.append({"t_final": t_final, "K": order, "tol": tol,
                         "steps": trace.steps, "max_error": err,
                         "status": trace.status})
    return spec, rows


def table4_rows(orders=(3, 4, 5), dt_exponents=(5, 6, 7, 8)):
    """Fixed-step central runs on the Robertson system: max errors at t = 4,
    as (spec, rows)."""
    problem, theta, t_final = make_problem("robertson"), 0.5, 4.0
    spec = {"command": "table4", "problem": problem.name, "theta": theta,
            "tf": t_final, "oracle": "closed-form exponential solution"}
    rows = []
    for order in orders:
        for expo in dt_exponents:
            dt = 2.0 ** -expo
            cfg = SchemeConfig(theta, order, FixedStep(dt))
            trace = integrate(problem, cfg, t_final)
            err = (trace.max_error(problem.exact_solution)
                   if trace.status == "completed" else None)
            rows.append({"K": order, "dt_exponent": expo, "dt": dt,
                         "max_error": err, "status": trace.status})
    return spec, rows


def table5_rows(cases=((0.1, 1.0), (1.0, 10.0), (10.0, 100.0), (100.0, 1000.0)),
                orders=(3, 5, 7, 9), tol: float = 1e-10, quick: bool = False):
    """Adaptive central step counts for the Van der Pol oscillator across
    stiffness values (epsilon, t_final), as (spec, rows).  ``quick`` drops
    the last case, by default epsilon = 100 to T = 1000, which runs for
    minutes."""
    theta = 0.5
    spec = {"command": "table5", "problem": "vanderpol", "theta": theta,
            "tol": tol, "safety": SAFETY, "oracle": "none (step counts only)"}
    rows = []
    for eps, t_final in cases[:-1] if quick else cases:
        problem = make_problem(spec["problem"], epsilon=eps)
        for order in orders:
            cfg = SchemeConfig(theta, order, AdaptiveStep(tol))
            trace = integrate(problem, cfg, t_final)
            rows.append({"epsilon": eps, "t_final": t_final, "K": order,
                         "tol": tol, "steps": trace.steps,
                         "status": trace.status})
    return spec, rows


def seir_sweep_rows(etas=tuple(range(1, 13)), orders=(6, 8), tol: float = 1e-5,
                    t_c: float = inspect.signature(seir).parameters["t_c"].default,
                    t_final: float = 300.0):
    """Step counts of the central adaptive scheme on the epidemic system as
    the stiffness scaling eta grows, as (spec, rows).

    ``t_c`` defaults to the ``seir`` factory's.  The population drift of a
    run is measured against its initial total.  The horizon must cover the
    whole epidemic wave for every eta; truncating mid-wave under-counts the
    slow (eta = 1) case and inflates the spread of the step counts.
    """
    theta = 0.5
    spec = {"command": "seir-sweep", "problem": "seir", "theta": theta,
            "tol": tol, "t_c": t_c, "tf": t_final, "safety": SAFETY,
            "oracle": "population conservation only"}
    rows = []
    for order in orders:
        for eta in etas:
            problem = make_problem(spec["problem"], eta=float(eta), t_c=t_c)
            cfg = SchemeConfig(theta, order, AdaptiveStep(tol))
            trace = integrate(problem, cfg, t_final)
            drift = float(np.abs(trace.states.sum(axis=1)
                                 - problem.default_initial.sum()).max())
            rows.append({"K": order, "eta": float(eta), "tol": tol,
                         "t_c": t_c, "t_final": t_final,
                         "steps": trace.steps, "population_drift": drift,
                         "status": trace.status})
    return spec, rows


# ---------------------------------------------------------------------------
# acceptance checks for --check mode
# ---------------------------------------------------------------------------

def check_table3(rows):
    violations = []
    for row in rows:
        ref = REFERENCE_TABLE3.get((row["t_final"], row["K"]))
        if ref is None:
            continue
        steps_ref, err_ref = ref
        if row["status"] != "completed":
            violations.append(f"table3 {row['t_final']}/{row['K']}: {row['status']}")
            continue
        if row["steps"] > STEP_FACTOR * steps_ref:
            violations.append(
                f"table3 t_f={row['t_final']} K={row['K']}: "
                f"{row['steps']} steps > {STEP_FACTOR} x {steps_ref}")
        if row["max_error"] > ERROR_FACTOR * err_ref:
            violations.append(
                f"table3 t_f={row['t_final']} K={row['K']}: "
                f"error {row['max_error']:.3e} > {ERROR_FACTOR} x {err_ref:.3e}")
    return violations


def check_table4(rows):
    violations = []
    floor = 1e-12  # round-off floor: never require better than this
    for row in rows:
        ref = REFERENCE_TABLE4.get((row["K"], row["dt_exponent"]))
        if ref is None:
            continue
        if row["status"] != "completed":
            violations.append(f"table4 K={row['K']} dt=2^-{row['dt_exponent']}: "
                              f"{row['status']}")
            continue
        bound = max(ERROR_FACTOR * ref, floor)
        if row["max_error"] > bound:
            violations.append(
                f"table4 K={row['K']} dt=2^-{row['dt_exponent']}: "
                f"error {row['max_error']:.3e} > {bound:.3e}")
    return violations


def check_table5(rows):
    violations = []
    by_case = {}
    for row in rows:
        key = (row["epsilon"], row["t_final"])
        by_case.setdefault(key, {})[row["K"]] = row
        ref = REFERENCE_TABLE5.get(key, {}).get(row["K"])
        if row["status"] != "completed":
            violations.append(f"table5 {key} K={row['K']}: {row['status']}")
        elif ref is not None and row["steps"] > STEP_FACTOR * ref:
            violations.append(
                f"table5 eps={key[0]} T={key[1]} K={row['K']}: "
                f"{row['steps']} steps > {STEP_FACTOR} x {ref}")
    for key, per_k in by_case.items():
        orders = sorted(per_k)
        counts = [per_k[k]["steps"] for k in orders]
        if any(b > a for a, b in zip(counts, counts[1:])):
            violations.append(
                f"table5 eps={key[0]} T={key[1]}: step counts {counts} "
                f"not non-increasing in K {orders}")
    return violations


def check_seir_sweep(rows, max_ratio: float = 1.5, checked_orders=(8,)):
    """Every run must complete; the stiffness-insensitivity ratio bound is
    asserted for the orders in ``checked_orders`` (lower orders are reported
    for context but spread slightly wider)."""
    violations = []
    by_order = {}
    for row in rows:
        if row["status"] != "completed":
            violations.append(f"seir-sweep K={row['K']} eta={row['eta']}: "
                              f"{row['status']}")
            continue
        by_order.setdefault(row["K"], []).append(row["steps"])
    for order, counts in by_order.items():
        if order not in checked_orders:
            continue
        ratio = max(counts) / min(counts)
        if ratio > max_ratio:
            violations.append(
                f"seir-sweep K={order}: step-count ratio {ratio:.2f} "
                f"exceeds {max_ratio} across eta")
    return violations


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _meta_lines(meta: dict):
    yield f"# ieldtm {__version__}"
    for key, value in meta.items():
        yield f"# {key}={value}"


def write_csv(stream, meta: dict, header, rows):
    """Comment-prefixed metadata block followed by a regular CSV table."""
    for line in _meta_lines(meta):
        stream.write(line + "\n")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else v for v in row])


def rows_to_csv(meta: dict, dict_rows) -> str:
    """A paper table's CSV: its rows' keys are the header, in order."""
    buf = io.StringIO()
    write_csv(buf, meta, list(dict_rows[0]) if dict_rows else [],
              (row.values() for row in dict_rows))
    return buf.getvalue()


def write_trace_csv(stream, trace: SolutionTrace, meta: dict):
    """One row per node: t, the state entries, dt, iterations, estimate."""
    dim = len(trace.node_states[0])
    header = ["t"] + [f"x{j + 1}" for j in range(dim)] + [
        "dt", "newton_iters", "local_err_est"]
    rows = (
        [t, *(f"{v:.17g}" for v in x), dt, iters, est]
        for t, x, dt, iters, est in zip(
            trace.node_times, trace.node_states, trace.dts_used,
            trace.newton_iters, trace.error_estimates)
    )
    write_csv(stream, meta, header, rows)


def write_grid_csv(stream, theta: float, order: int, re_range, im_range,
                   resolution):
    grid = sample_region(theta, order, re_range, im_range, resolution)
    a_stable, witness = is_A_stable(theta, order)
    meta = {"theta": theta, "K": order,
            "re_range": f"{re_range[0]},{re_range[1]}",
            "im_range": f"{im_range[0]},{im_range[1]}",
            "resolution": f"{resolution[0]}x{resolution[1]}",
            "a_stable": a_stable, "witness": witness,
            "l_stable": is_L_stable(theta, order)}
    rows = (
        [grid.re_values[i], grid.im_values[j], f"{grid.values[i, j]:.17g}"]
        for i in range(grid.re_values.size)
        for j in range(grid.im_values.size)
    )
    write_csv(stream, meta, ["re", "im", "absR"], rows)
    return grid

