"""The package imports and every name in a module's __all__ exists, so a
deleted function cannot stay listed; the settable solver values are pinned."""

import dataclasses
import importlib

from ieldtm.stepper import AdaptiveStep, FixedStep, SchemeConfig

MODULES = ("taylor", "problems", "nonlinear", "stepper", "stability", "bench")


def test_all_names_resolve():
    importlib.import_module("ieldtm")
    for name in MODULES:
        module = importlib.import_module(f"ieldtm.{name}")
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, (name, missing)


def test_config_fields_pinned():
    # Seven settable values; a new knob must edit this list.
    fields = {cls.__name__: [f.name for f in dataclasses.fields(cls)]
              for cls in (SchemeConfig, FixedStep, AdaptiveStep)}
    assert fields == {
        "SchemeConfig": ["theta", "order", "step_mode"],
        "FixedStep": ["dt"],
        "AdaptiveStep": ["tol", "dt_min", "safety"],
    }
