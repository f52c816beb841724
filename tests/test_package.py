"""Every name a bvflow module exports in ``__all__`` resolves, so a
deletion cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import bvflow

MODULES = ["bvflow"] + sorted(f"bvflow.{m.name}" for m in pkgutil.iter_modules(bvflow.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
