"""Command-line harness reproducing the benchmark experiments.

All commands emit plot-ready CSV (with the experiment specification embedded
in leading comment lines) or JSON; no images are rendered.
"""

from __future__ import annotations

import json
import math
import sys

import click

from . import __version__
from .bench import (
    check_seir_sweep,
    check_table3,
    check_table4,
    check_table5,
    order_sweep_rows,
    rows_to_csv,
    run_solve,
    seir_sweep_rows,
    table3_rows,
    table4_rows,
    table5_rows,
    write_grid_csv,
    write_trace_csv,
)
from .errors import IeldtmError
from .problems import PROBLEM_NAMES, make_problem
from .stability import MAX_ORDER
from .stepper import AdaptiveStep, FixedStep, SchemeConfig


class _FloatRange(click.FloatRange):
    """A FloatRange that also refuses nan, which compares false with any
    bound."""

    def convert(self, value, param, ctx):
        rv = super().convert(value, param, ctx)
        if math.isnan(rv):
            self.fail(f"{value!r} is not a number.", param, ctx)
        return rv


# The ranges of the options every command shares; the open infinite bounds
# refuse inf and -inf.
_POSITIVE = _FloatRange(0.0, math.inf, min_open=True, max_open=True)
_FINITE = _FloatRange(-math.inf, math.inf, min_open=True, max_open=True)
_THETA = _FloatRange(0.0, 1.0)
_SAFETY = _FloatRange(0.0, 1.0, min_open=True)
_ORDER = click.IntRange(min=1)


def _scheme_options(func):
    func = click.option("--theta", type=_THETA, default=0.5, show_default=True,
                        help="Direction parameter in [0, 1].")(func)
    func = click.option("--K", "order", type=_ORDER, default=3, show_default=True,
                        help="Transformation order (K >= 1).")(func)
    func = click.option("--dt", type=_POSITIVE, default=None,
                        help="Fixed step size (mutually exclusive with --tol).")(func)
    func = click.option("--tol", type=_POSITIVE, default=None,
                        help="Adaptive tolerance (mutually exclusive with --dt).")(func)
    func = click.option("--safety", type=_SAFETY, default=0.9, show_default=True,
                        help="Adaptive controller safety factor in (0, 1].")(func)
    return func


def _problem_options(func):
    func = click.option("--problem", type=click.Choice(PROBLEM_NAMES),
                        default="duffing", show_default=True)(func)
    # Each option is named after a parameter of the problem factories in
    # problems.py, which hold the defaults; solve forwards the given ones.
    for flag, name, help_text in (
        ("--lambda", "lam", "Dahlquist rate."),
        ("--epsilon", "epsilon", "Van der Pol stiffness."),
        ("--beta", "beta", "Duffing linear coefficient, or SEIR daily "
                           "transmission rate."),
        ("--mu", "mu", "SEIR transmission reduction factor."),
        ("--alpha", "alpha", "Duffing damping, or SEIR pre-symptomatic ratio."),
        ("--d1", "d1", "SEIR mean latency period (days)."),
        ("--d2", "d2", "SEIR mean pre-symptomatic period (days)."),
        ("--d3", "d3", "SEIR mean asymptomatic period (days)."),
        ("--hosp-period", "p", "SEIR mean hospitalization period (days)."),
        ("--population", "N", "SEIR total population."),
        ("--eta", "eta", "SEIR transmission scaling after t_c."),
        ("--tc", "t_c", "SEIR transmission switch time (days)."),
    ):
        func = click.option(flag, name, type=_FINITE, default=None,
                            help=help_text)(func)
    return func


def _build_config(theta, order, dt, tol, safety):
    if (dt is None) == (tol is None):
        raise click.UsageError("exactly one of --dt or --tol is required")
    mode = FixedStep(dt) if dt is not None else AdaptiveStep(tol, safety=safety)
    return SchemeConfig(theta, order, mode)


def _emit_rows(rows, header, meta, out, fmt):
    if fmt == "json":
        text = json.dumps({"spec": dict(meta, version=__version__),
                           "rows": rows}, indent=2)
    else:
        text = rows_to_csv(meta, header, rows)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _finish_check(violations):
    for line in violations:
        click.echo(f"CHECK FAIL: {line}", err=True)
    if violations:
        sys.exit(1)
    click.echo("CHECK OK", err=True)


@click.group()
@click.version_option(__version__)
def main():
    """Stiff IVP solver benchmarks (implicit-explicit local differential
    transform method)."""


@main.command()
@_problem_options
@_scheme_options
@click.option("--tf", type=_POSITIVE, default=1.0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the per-step trace CSV here.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@click.option("--no-oracle", is_flag=True,
              help="Skip the reference-solution error estimate.")
def solve(problem, theta, order, dt, tol, safety, tf, out, fmt, no_oracle,
          **params):
    """Integrate one problem and report a JSON summary.

    The problem options given pass to the chosen problem's factory, whose
    defaults fill the rest; an option that problem does not take is a usage
    error."""
    try:
        given = {name: value for name, value in params.items()
                 if value is not None}
        prob = make_problem(problem, **given)
        config = _build_config(theta, order, dt, tol, safety)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    try:
        trace, summary = run_solve(prob, config, tf, with_oracle=not no_oracle)
    except IeldtmError as exc:
        raise click.ClickException(str(exc))
    meta = {"command": "solve", "problem": prob.name, "theta": theta,
            "K": order, "mode": summary["mode"],
            "dt" if dt is not None else "tol": dt if dt is not None else tol,
            "safety": safety, "tf": tf, "oracle": summary["oracle"]}
    if out:
        with open(out, "w") as fh:
            if fmt == "json":
                fh.write(json.dumps(summary, indent=2) + "\n")
            else:
                write_trace_csv(fh, trace, meta)
    click.echo(json.dumps(summary, indent=2))
    if trace.status != "completed":
        sys.exit(1)


@main.command(name="order-sweep")
@click.option("--dt", type=_POSITIVE, default=0.05, show_default=True)
@click.option("--tf", type=_POSITIVE, default=1.0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
def order_sweep(dt, tf, out, fmt):
    """Observed vs theoretical convergence orders on the cubic oscillator."""
    try:
        rows = order_sweep_rows(dt=dt, t_final=tf)
    except ValueError as exc:  # dt / 2 not below tf
        raise click.UsageError(str(exc))
    header = ["theta", "K", "dt", "err_dt", "err_half", "observed", "theory",
              "status"]
    meta = {"command": "order-sweep", "problem": "duffing", "dt": dt, "tf": tf,
            "oracle": "closed-form logistic solution"}
    _emit_rows(rows, header, meta, out, fmt)
    failed = [r for r in rows if r["status"] != "ok"]
    if failed:
        sys.exit(1)


main.add_command(order_sweep, name="table2")


@main.command(name="table3")
@click.option("--tol", type=_POSITIVE, default=1e-10, show_default=True)
@click.option("--safety", type=_SAFETY, default=0.9, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@click.option("--check", is_flag=True)
def table3(tol, safety, out, fmt, check):
    """Adaptive central runs on the cubic oscillator: steps and max errors."""
    rows = table3_rows(tol=tol, safety=safety)
    header = ["t_final", "K", "tol", "steps", "max_error", "status"]
    meta = {"command": "table3", "problem": "duffing", "theta": 0.5,
            "tol": tol, "safety": safety,
            "oracle": "closed-form logistic solution"}
    _emit_rows(rows, header, meta, out, fmt)
    if check:
        _finish_check(check_table3(rows))


@main.command(name="table4")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@click.option("--check", is_flag=True)
def table4(out, fmt, check):
    """Fixed-step central runs on the Robertson system: max errors at t=4."""
    rows = table4_rows()
    header = ["K", "dt_exponent", "dt", "max_error", "status"]
    meta = {"command": "table4", "problem": "robertson", "theta": 0.5,
            "tf": 4.0, "oracle": "closed-form exponential solution"}
    _emit_rows(rows, header, meta, out, fmt)
    if check:
        _finish_check(check_table4(rows))


@main.command(name="table5")
@click.option("--tol", type=_POSITIVE, default=1e-10, show_default=True)
@click.option("--safety", type=_SAFETY, default=0.9, show_default=True)
@click.option("--quick", is_flag=True,
              help="Skip the epsilon=100, T=1000 case (runs for minutes).")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@click.option("--check", is_flag=True)
def table5(tol, safety, quick, out, fmt, check):
    """Adaptive central step counts for the Van der Pol oscillator."""
    cases = ((0.1, 1.0), (1.0, 10.0), (10.0, 100.0))
    if not quick:
        cases = cases + ((100.0, 1000.0),)
    rows = table5_rows(cases=cases, tol=tol, safety=safety)
    header = ["epsilon", "t_final", "K", "tol", "steps", "status"]
    meta = {"command": "table5", "problem": "vanderpol", "theta": 0.5,
            "tol": tol, "safety": safety, "oracle": "none (step counts only)"}
    _emit_rows(rows, header, meta, out, fmt)
    if check:
        _finish_check(check_table5(rows))


main.add_command(table5, name="step-count")


@main.command(name="seir-sweep")
@click.option("--tol", type=_POSITIVE, default=1e-5, show_default=True)
@click.option("--tc", type=_FINITE, default=None,
              show_default="the seir problem's")
@click.option("--tf", type=_POSITIVE, default=300.0, show_default=True)
@click.option("--safety", type=_SAFETY, default=0.9, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@click.option("--check", is_flag=True)
def seir_sweep(tol, tc, tf, safety, out, fmt, check):
    """Step counts of the adaptive central scheme on the epidemic system as
    stiffness grows."""
    rows = seir_sweep_rows(tol=tol, t_c=tc, t_final=tf, safety=safety)
    header = ["K", "eta", "tol", "t_c", "t_final", "steps",
              "population_drift", "status"]
    meta = {"command": "seir-sweep", "problem": "seir", "theta": 0.5,
            "tol": tol, "t_c": rows[0]["t_c"], "tf": tf, "safety": safety,
            "oracle": "population conservation only"}
    _emit_rows(rows, header, meta, out, fmt)
    if check:
        _finish_check(check_seir_sweep(rows))


@main.command(name="stability-grid")
@click.option("--theta", type=_THETA, default=0.5, show_default=True)
@click.option("--K", "order", type=click.IntRange(1, MAX_ORDER), default=3,
              show_default=True)
@click.option("--re-min", type=_FINITE, default=-10.0, show_default=True)
@click.option("--re-max", type=_FINITE, default=5.0, show_default=True)
@click.option("--im-min", type=_FINITE, default=-10.0, show_default=True)
@click.option("--im-max", type=_FINITE, default=10.0, show_default=True)
@click.option("--res", type=click.IntRange(min=2), default=400, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def stability_grid(theta, order, re_min, re_max, im_min, im_max, res, out):
    """Emit |R(z)| samples over a complex-plane window as re,im,absR rows."""
    def emit(stream):
        write_grid_csv(stream, theta, order, (re_min, re_max),
                       (im_min, im_max), (res, res))
    if out:
        with open(out, "w") as fh:
            emit(fh)
    else:
        emit(sys.stdout)


if __name__ == "__main__":
    main()
