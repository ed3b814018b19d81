"""The package imports and every name in a module's __all__ exists, so a
deleted function cannot stay listed."""

import importlib

MODULES = ("taylor", "problems", "nonlinear", "stepper", "stability", "bench")


def test_all_names_resolve():
    importlib.import_module("ieldtm")
    for name in MODULES:
        module = importlib.import_module(f"ieldtm.{name}")
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, (name, missing)
