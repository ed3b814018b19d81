"""Outside-in layer tracing for the traced run.

The benchmark wraps the public functions each ieldtm layer exposes, as module
attributes, and each problem's recurrence.  Every call becomes one span (name,
start, end, parent) kept in flat arrays in memory; per-layer metrics are
derived from them after the pass and the spans are written out at the end.
Untraced runs never install the wrappers.

A layer's self time is its span's duration minus the time its child spans
cover.  An attribute that a later version of ieldtm removes or renames is
reported as absent and its counts read 0.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import time
from array import array
from pathlib import Path

import numpy as np

# (module, attribute, span name).  The stepper's imports are wrapped where the
# stepper looks them up, and the convolutions where the recurrences do.
WRAPPED = (
    ("ieldtm.stepper", "integrate", "stepper.march"),
    ("ieldtm.stepper", "build_coeff_table", "stepper.table_build"),
    ("ieldtm.stepper", "implicit_residual", "stepper.residual"),
    ("ieldtm.stepper", "adaptive_dt_case1", "stepper.controller"),
    ("ieldtm.stepper", "adaptive_dt_case2", "stepper.controller"),
    ("ieldtm.stepper", "horner_eval", "taylor.horner"),
    ("ieldtm.stepper", "newton_solve", "nonlinear.newton"),
    ("ieldtm.nonlinear", "lu_solve", "nonlinear.lu"),
    ("ieldtm.problems", "cauchy_product", "taylor.conv"),
    ("ieldtm.problems", "triple_product", "taylor.conv"),
    ("ieldtm.stability", "is_A_stable", "stability.a_cert"),
    ("ieldtm.stability", "is_L_stable", "stability.l_cert"),
    ("ieldtm.stability", "sample_region", "stability.region"),
)
RECURRENCE = "problems.recurrence"
SPAN_NAMES = tuple(dict.fromkeys([name for _, _, name in WRAPPED] + [RECURRENCE]))

# Per-step time metrics: (metric prefix, span, inclusive or self time).
STEP_TIMES = (
    ("nonlinear.lu", "nonlinear.lu", "incl"),
    ("nonlinear.newton_self", "nonlinear.newton", "self"),
    ("taylor.conv", "taylor.conv", "incl"),
    ("problems.recurrence_self", RECURRENCE, "self"),
    ("taylor.horner", "taylor.horner", "incl"),
    ("stepper.table_build_self", "stepper.table_build", "self"),
    ("stepper.residual_self", "stepper.residual", "self"),
    ("stepper.controller", "stepper.controller", "incl"),
    ("stepper.march_self", "stepper.march", "self"),
)
# Mean time per call of the stability functions (inclusive).
CALL_TIMES = (
    ("stability.a_cert", "stability.a_cert"),
    ("stability.l_cert", "stability.l_cert"),
    ("stability.region", "stability.region"),
)


class Recorder:
    """Span store shared by every wrapper of one traced run."""

    def __init__(self):
        self.name_id = array("B")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.newton_iters = 0
        self.absent = []

    def reset(self):
        for arr in (self.name_id, self.parent, self.start, self.end):
            del arr[:]
        self.stack[1:] = []
        self.newton_iters = 0

    def wrap(self, fn, name: str, on_result=None):
        nid = SPAN_NAMES.index(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_newton(self, result):
        # newton_solve returns (root, iterations).
        try:
            self.newton_iters += int(result[1])
        except (TypeError, IndexError, ValueError):
            pass

    def wrap_problem(self, problem):
        """The problem with its recurrence wrapped, or unchanged (and the
        recurrence reported absent) when it has no such field."""
        try:
            return dataclasses.replace(
                problem, recurrence=self.wrap(problem.recurrence, RECURRENCE))
        except (AttributeError, TypeError):
            self._mark_absent(f"{type(problem).__name__}.recurrence")
            return problem

    def _mark_absent(self, name: str):
        if name not in self.absent:
            self.absent.append(name)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every attribute of WRAPPED for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name in WRAPPED:
                try:
                    module = importlib.import_module(module_name)
                    fn = getattr(module, attr)
                except (ImportError, AttributeError):
                    self._mark_absent(f"{module_name}.{attr}")
                    continue
                hook = self._count_newton if name == "nonlinear.newton" else None
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(fn, name, hook))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def spans(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.uint8).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def table(self) -> dict:
        """Per span name: calls, inclusive and self seconds."""
        s = self.spans()
        n_names = len(SPAN_NAMES)
        dur = s["end"] - s["start"]
        nested = s["parent"] >= 0
        child = np.bincount(s["parent"][nested], weights=dur[nested], minlength=dur.size)
        own = dur - child
        calls = np.bincount(s["name_id"], minlength=n_names)
        incl = np.bincount(s["name_id"], weights=dur, minlength=n_names)
        self_t = np.bincount(s["name_id"], weights=own, minlength=n_names)
        return {name: {"calls": int(calls[i]), "incl_s": float(incl[i]),
                       "self_s": float(self_t[i])}
                for i, name in enumerate(SPAN_NAMES)}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(SPAN_NAMES), **self.spans())


def layer_metrics(table: dict, newton_iters: int, steps: int, wall_s: float) -> dict:
    """The per-layer metrics of one traced pass; ``steps`` is its accepted
    steps (0 on stability-map) and ``wall_s`` its traced wall time."""

    def per_step(x):
        return x / steps if steps else 0.0

    def calls(name):
        return table[name]["calls"]

    residuals = calls("stepper.residual")
    metrics = {
        "stepper.table_builds_per_step": per_step(calls("stepper.table_build")),
        "stepper.residual_evals_per_step": per_step(residuals),
        "nonlinear.useful_eval_ratio":
            (newton_iters + calls("nonlinear.newton")) / residuals if residuals else 0.0,
        "nonlinear.newton_iters_per_step": per_step(newton_iters),
        "nonlinear.lu_solves_per_step": per_step(calls("nonlinear.lu")),
        "taylor.conv_calls_per_step": per_step(calls("taylor.conv")),
        "problems.recurrence_calls_per_step": per_step(calls(RECURRENCE)),
        "taylor.horner_calls_per_step": per_step(calls("taylor.horner")),
    }
    for prefix, span, kind in STEP_TIMES:
        seconds = table[span][f"{kind}_s"]
        metrics[f"{prefix}_us_per_step"] = per_step(1e6 * seconds)
        metrics[f"{prefix}_share"] = seconds / wall_s
    for prefix, span in CALL_TIMES:
        seconds = table[span]["incl_s"]
        n = calls(span)
        metrics[f"{prefix}_us"] = 1e6 * seconds / n if n else 0.0
        metrics[f"{prefix}_share"] = seconds / wall_s
    metrics["stability.cert_calls"] = calls("stability.a_cert") + calls("stability.l_cert")
    return metrics


def unit(metric: str) -> str:
    if metric.endswith("_us") or metric.endswith("_us_per_step"):
        return "us"
    if metric.endswith("_share") or metric.endswith("_ratio") or metric.endswith("_frac"):
        return "ratio"
    return "count"
