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
from .stepper import SAFETY, AdaptiveStep, FixedStep, SchemeConfig


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
    return func


def _table_options(check: bool = True):
    """The output options of a paper command: --out and --format, and
    --check unless ``check`` is False."""
    def decorate(func):
        if check:
            func = click.option("--check", is_flag=True)(func)
        func = click.option("--format", "fmt",
                            type=click.Choice(["csv", "json"]), default="csv",
                            show_default=True)(func)
        return click.option("--out", type=click.Path(dir_okay=False),
                            default=None)(func)
    return decorate


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


def _build_config(theta, order, dt, tol):
    if (dt is None) == (tol is None):
        raise click.UsageError("exactly one of --dt or --tol is required")
    mode = FixedStep(dt) if dt is not None else AdaptiveStep(tol)
    return SchemeConfig(theta, order, mode)


def _given(**options):
    """The options given on the command line, by parameter name; the
    function they go to fills in the rest from its own defaults."""
    return {name: value for name, value in options.items() if value is not None}


def _emit_rows(table, out, fmt, check=None):
    """Print a paper table's (spec, rows) as CSV or JSON, then, given its
    check function, report the check and exit 1 on a violation."""
    spec, rows = table
    if fmt == "json":
        text = json.dumps({"spec": dict(spec, version=__version__),
                           "rows": rows}, indent=2)
    else:
        text = rows_to_csv(spec, rows)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)
    if check is None:
        return
    violations = check(rows)
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
def solve(problem, theta, order, dt, tol, tf, out, fmt, no_oracle, **params):
    """Integrate one problem and report a JSON summary.

    The problem options given pass to the chosen problem's factory, whose
    defaults fill the rest; an option that problem does not take is a usage
    error."""
    try:
        prob = make_problem(problem, **_given(**params))
        config = _build_config(theta, order, dt, tol)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    try:
        trace, summary = run_solve(prob, config, tf, with_oracle=not no_oracle)
    except IeldtmError as exc:
        raise click.ClickException(str(exc))
    # A fixed-step run reads dt; an adaptive one reads tol and SAFETY.
    step = {"dt": dt} if dt is not None else {"tol": tol, "safety": SAFETY}
    meta = {"command": "solve", "problem": prob.name, "theta": theta,
            "K": order, "mode": summary["mode"], **step, "tf": tf,
            "oracle": summary["oracle"]}
    if out:
        with open(out, "w") as fh:
            if fmt == "json":
                fh.write(json.dumps(summary, indent=2) + "\n")
            else:
                write_trace_csv(fh, trace, meta)
    click.echo(json.dumps(summary, indent=2))
    if trace.status != "completed":
        sys.exit(1)


# The paper commands pass on only the options given: each row function in
# bench.py holds its table's defaults and builds the table's spec.
@main.command(name="order-sweep")
@click.option("--dt", type=_POSITIVE, default=None, show_default="the table's")
@click.option("--tf", type=_POSITIVE, default=None, show_default="the table's")
@_table_options(check=False)
def order_sweep(dt, tf, out, fmt):
    """Observed vs theoretical convergence orders on the cubic oscillator."""
    try:
        table = order_sweep_rows(**_given(dt=dt, t_final=tf))
    except ValueError as exc:  # tf not a whole number of steps dt
        raise click.UsageError(str(exc))
    _emit_rows(table, out, fmt)
    if any(row["status"] != "ok" for row in table[1]):
        sys.exit(1)


main.add_command(order_sweep, name="table2")


@main.command(name="table3")
@click.option("--tol", type=_POSITIVE, default=None, show_default="the table's")
@_table_options()
def table3(tol, out, fmt, check):
    """Adaptive central runs on the cubic oscillator: steps and max errors."""
    _emit_rows(table3_rows(**_given(tol=tol)), out, fmt,
               check_table3 if check else None)


@main.command(name="table4")
@_table_options()
def table4(out, fmt, check):
    """Fixed-step central runs on the Robertson system: max errors at t=4."""
    _emit_rows(table4_rows(), out, fmt, check_table4 if check else None)


@main.command(name="table5")
@click.option("--tol", type=_POSITIVE, default=None, show_default="the table's")
@click.option("--quick", is_flag=True,
              help="Skip the epsilon=100, T=1000 case (runs for minutes).")
@_table_options()
def table5(tol, quick, out, fmt, check):
    """Adaptive central step counts for the Van der Pol oscillator."""
    _emit_rows(table5_rows(quick=quick, **_given(tol=tol)), out, fmt,
               check_table5 if check else None)


main.add_command(table5, name="step-count")


@main.command(name="seir-sweep")
@click.option("--tol", type=_POSITIVE, default=None, show_default="the table's")
@click.option("--tc", type=_FINITE, default=None,
              show_default="the seir problem's")
@click.option("--tf", type=_POSITIVE, default=None, show_default="the table's")
@_table_options()
def seir_sweep(tol, tc, tf, out, fmt, check):
    """Step counts of the adaptive central scheme on the epidemic system as
    stiffness grows."""
    _emit_rows(seir_sweep_rows(**_given(tol=tol, t_c=tc, t_final=tf)), out,
               fmt, check_seir_sweep if check else None)


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
