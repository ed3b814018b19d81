"""Bit identity of the solver's output against a committed golden file.

``golden.json`` holds, for each run of ``TRACES``, the trace's status,
failure text and step count, and the SHA-256 of each of its columns: node
times, step sizes, error estimates (floats as ``float.hex``), Newton
iterations and states (each entry as ``float.hex``).  It also holds the
five paper CSVs (``table3``, ``table4``, ``table5 --quick``,
``seir-sweep``, ``order-sweep``) line by line, as the CLI prints them.  Any
changed bit fails here.  A change that alters bits by design rewrites the
file with ``python tests/test_golden.py`` and names each changed entry, and
why, in CHANGES.md.

The runs cover every built-in problem and a forced 3 x 3 linear system, all
five statuses, theta in {0, 0.5, 1} and 0.3 in fixed mode, both step
modes, SEIR across its declared discontinuity and Robertson at K = 171.
The file names the interpreter that made it.
"""

import functools
import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from ieldtm import cli
from ieldtm.bench import (
    order_sweep_rows,
    seir_sweep_rows,
    table3_rows,
    table4_rows,
    table5_rows,
)
from ieldtm.problems import PROBLEM_NAMES, linear_system, make_problem
from ieldtm.stepper import AdaptiveStep, FixedStep, SchemeConfig, integrate

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def _forcing(t, k):
    return (1.0, 0.0, -0.5) if k == 0 else (0.0, 0.0, 0.0)


_LINEAR = linear_system(
    [[-2.0, 1.0, 0.3], [0.5, -3.0, 0.2], [0.1, 4.0, -50.0]], forcing=_forcing,
    default_initial=[1.0, -1.0, 0.5])


def _run(name, problem, theta, order, mode, t_final):
    return pytest.param(problem, SchemeConfig(theta, order, mode), t_final,
                        id=name)


# (problem, config, t_final) of every golden trace, by name.
TRACES = [
    _run("dahlquist-explicit-fixed", make_problem("dahlquist"), 0.0, 3,
         FixedStep(0.1), 1.0),
    _run("dahlquist-zero-lead", make_problem("dahlquist", lam=0.0), 0.5, 3,
         AdaptiveStep(1e-8), 2.0),
    _run("dahlquist-estimate-overflow", make_problem("dahlquist"), 0.0, 11,
         FixedStep(1e27), 1e27),
    _run("dahlquist-min-step-underflow", make_problem("dahlquist"), 0.5, 3,
         AdaptiveStep(1e-8, dt_min=0.5), 1.0),
    _run("dahlquist-singular-matrix", make_problem("dahlquist", lam=1.0), 1.0,
         1, FixedStep(1.0), 2.0),
    _run("dahlquist-non-finite-last-state", make_problem("dahlquist"), 0.0, 3,
         FixedStep(1e300), 1e300),
    _run("duffing-explicit-fixed", make_problem("duffing"), 0.0, 6,
         FixedStep(0.1), 1.0),
    _run("duffing-theta0.3-fixed", make_problem("duffing"), 0.3, 4,
         FixedStep(0.1), 1.0),
    _run("duffing-central-fixed", make_problem("duffing"), 0.5, 6,
         FixedStep(0.1), 1.0),
    _run("duffing-backward-fixed", make_problem("duffing"), 1.0, 3,
         FixedStep(0.05), 1.0),
    _run("duffing-explicit-adaptive", make_problem("duffing"), 0.0, 9,
         AdaptiveStep(1e-10), 1.0),
    _run("duffing-central-adaptive", make_problem("duffing"), 0.5, 5,
         AdaptiveStep(1e-10), 2.0),
    _run("duffing-backward-adaptive", make_problem("duffing"), 1.0, 4,
         AdaptiveStep(1e-8), 1.0),
    _run("vanderpol-central-adaptive", make_problem("vanderpol"), 0.5, 5,
         AdaptiveStep(1e-8), 5.0),
    _run("vanderpol-backward-fixed", make_problem("vanderpol"), 1.0, 4,
         FixedStep(0.01), 1.0),
    _run("vanderpol-non-finite-state",
         make_problem("vanderpol", epsilon=1000.0), 0.5, 5, FixedStep(0.5),
         5.0),
    _run("robertson-central-fixed", make_problem("robertson"), 0.5, 4,
         FixedStep(2.0 ** -5), 1.0),
    _run("robertson-backward-adaptive", make_problem("robertson"), 1.0, 3,
         AdaptiveStep(1e-6), 1.0),
    _run("robertson-newton-failure", make_problem("robertson"), 0.5, 7,
         FixedStep(2.0 ** -4), 4.0),
    _run("robertson-adaptive-newton-failure", make_problem("robertson"), 0.5,
         7, AdaptiveStep(1e-5), 4.0),
    _run("robertson-K171", make_problem("robertson"), 0.5, 171,
         FixedStep(0.01), 0.02),
    _run("seir-explicit-fixed", make_problem("seir"), 0.0, 5, FixedStep(1.0),
         30.0),
    _run("seir-discontinuity-adaptive", make_problem("seir", eta=6.0), 0.5, 6,
         AdaptiveStep(1e-5), 80.0),
    _run("seir-discontinuity-fixed", make_problem("seir", eta=8.0), 1.0, 4,
         FixedStep(0.7), 70.0),
    _run("linear-forced-central-fixed", _LINEAR, 0.5, 4, FixedStep(0.1), 1.0),
    _run("linear-forced-backward-adaptive", _LINEAR, 1.0, 3,
         AdaptiveStep(1e-6), 1.0),
]

# The paper CSVs by name, and the command line that prints each.
PAPER_COMMANDS = {
    "table3": ["table3"],
    "table4": ["table4"],
    "table5-quick": ["table5", "--quick"],
    "seir-sweep": ["seir-sweep"],
    "order-sweep": ["order-sweep"],
}


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def trace_entry(trace) -> dict:
    """The golden entry of a trace: every column, bit for bit."""
    return {
        "status": trace.status,
        "failure": trace.failure,
        "steps": trace.steps,
        "t": _digest(map(float.hex, trace.node_times)),
        "dt": _digest(map(float.hex, trace.dts_used)),
        "estimate": _digest(map(float.hex, trace.error_estimates)),
        "iterations": _digest(map(str, trace.newton_iters)),
        "state": _digest(" ".join(map(float.hex, x))
                         for x in trace.node_states),
    }


def paper_csv(paper_rows, args) -> list:
    """The lines the CLI prints for ``args``, its row functions served
    through the shared row cache."""
    with pytest.MonkeyPatch.context() as patch:
        for fn in (table3_rows, table4_rows, table5_rows, seir_sweep_rows,
                   order_sweep_rows):
            patch.setattr(cli, fn.__name__, functools.partial(paper_rows, fn))
        result = CliRunner().invoke(cli.main, args)
    assert result.exit_code == 0, result.output
    return result.output.splitlines()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("problem, config, t_final", TRACES)
def test_trace_bits(golden, request, problem, config, t_final):
    name = request.node.callspec.id
    assert trace_entry(integrate(problem, config, t_final)) == \
        golden["traces"][name]


def test_trace_set_covers_the_cases(golden):
    entries = golden["traces"].values()
    assert {e["status"] for e in entries} == {
        "completed", "min-step-underflow", "newton-failure",
        "non-finite-state", "singular-matrix"}
    assert len(golden["traces"]) == len(TRACES)
    problems = {p.values[0].name for p in TRACES}
    assert problems >= set(PROBLEM_NAMES)
    configs = [p.values[1] for p in TRACES]
    assert {c.theta for c in configs
            if isinstance(c.step_mode, FixedStep)} >= {0.0, 0.3, 0.5, 1.0}
    assert any(isinstance(c.step_mode, AdaptiveStep) for c in configs)
    assert max(c.order for c in configs) == 171


@pytest.mark.parametrize("name", PAPER_COMMANDS)
def test_paper_csv_bytes(golden, paper_rows, name):
    assert paper_csv(paper_rows, PAPER_COMMANDS[name]) == golden["csv"][name]


if __name__ == "__main__":
    from conftest import RowCache

    rows = RowCache()
    GOLDEN_PATH.write_text(json.dumps({
        "made_with": f"{platform.python_implementation()} "
                     f"{platform.python_version()}, numpy {np.__version__}",
        "traces": {p.id: trace_entry(integrate(*p.values)) for p in TRACES},
        "csv": {name: paper_csv(rows, args)
                for name, args in PAPER_COMMANDS.items()},
    }, indent=1) + "\n")
