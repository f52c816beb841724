"""Every name a bvflow module exports in ``__all__`` resolves, so a
deletion cannot leave a stale export behind, and every public function
or class a module defines is exported."""

import importlib
import inspect
import pkgutil

import pytest

import bvflow

MODULES = ["bvflow"] + sorted(f"bvflow.{m.name}" for m in pkgutil.iter_modules(bvflow.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_public_definitions_are_exported(name):
    # a public function or class a module defines is in its __all__; a
    # gate may be listed in gates.GATES instead
    module = importlib.import_module(name)
    listed = set(module.__all__) | {g.__name__ for g in getattr(module, "GATES", ())}
    defined = [n for n, obj in vars(module).items()
               if not n.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == name]
    assert [n for n in defined if n not in listed] == []
