"""The package surface: every name a module exports resolves."""

import importlib
import pkgutil

import pytest

import contracta

MODULES = sorted(m.name for m in pkgutil.iter_modules(contracta.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    # A stale ``__all__`` entry fails only on ``from module import *``.
    module = importlib.import_module(f"contracta.{name}")
    assert [x for x in getattr(module, "__all__", ()) if not hasattr(module, x)] == []
