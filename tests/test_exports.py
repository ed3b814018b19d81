"""The package imports, MODULES lists exactly its modules with an __all__,
and every name in a module's __all__ exists, so a deleted module or function
cannot stay listed; the settable solver values and the problem and trace
fields are pinned, and every problem option of the CLI names a factory
parameter."""

import dataclasses
import importlib
import inspect
import pkgutil

import click

from ieldtm.cli import _problem_options
from ieldtm.problems import _FACTORIES, ProblemDefinition
from ieldtm.stepper import AdaptiveStep, FixedStep, SchemeConfig, SolutionTrace

MODULES = ("problems", "stepper", "stability", "bench")


def test_modules_match_package():
    package = importlib.import_module("ieldtm")
    exporting = {info.name for info in pkgutil.iter_modules(package.__path__)
                 if hasattr(importlib.import_module(f"ieldtm.{info.name}"),
                            "__all__")}
    assert set(MODULES) == exporting


def test_all_names_resolve():
    importlib.import_module("ieldtm")
    for name in MODULES:
        module = importlib.import_module(f"ieldtm.{name}")
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, (name, missing)


def test_config_fields_pinned():
    # Six settable values; a new knob must edit this list.  The controller's
    # safety factor is the constant stepper.SAFETY, not a field.
    fields = {cls.__name__: [f.name for f in dataclasses.fields(cls)]
              for cls in (SchemeConfig, FixedStep, AdaptiveStep)}
    assert fields == {
        "SchemeConfig": ["theta", "order", "step_mode"],
        "FixedStep": ["dt"],
        "AdaptiveStep": ["tol", "dt_min"],
    }


def test_problem_fields_pinned():
    # A table is the dim state series, so a problem declares no other list;
    # dim is the initial state's length, not a field to keep in step.
    assert [f.name for f in dataclasses.fields(ProblemDefinition)] == [
        "name", "recurrence", "default_initial", "exact_solution",
        "discontinuities"]


def test_trace_fields_pinned():
    # A trace holds the run's output only: the caller keeps the problem and
    # the configuration it passed to integrate.
    assert [f.name for f in dataclasses.fields(SolutionTrace)] == [
        "node_times", "node_states", "dts_used", "newton_iters",
        "error_estimates", "status", "failure"]


def test_problem_options_name_factory_parameters():
    # A renamed factory argument must not leave a dead solve option.
    command = click.command()(_problem_options(lambda **params: None))
    options = {param.name for param in command.params} - {"problem"}
    taken = {name for factory in _FACTORIES.values()
             for name in inspect.signature(factory).parameters}
    assert options <= taken, options - taken
