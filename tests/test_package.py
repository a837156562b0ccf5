"""The package surface: every name a module exports resolves, and the CLI
imports no module it does not need."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import contracta

MODULES = sorted(m.name for m in pkgutil.iter_modules(contracta.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    # A stale ``__all__`` entry fails only on ``from module import *``.
    module = importlib.import_module(f"contracta.{name}")
    assert [x for x in getattr(module, "__all__", ()) if not hasattr(module, x)] == []


def test_cli_import_leaves_out_hashlib():
    # hashlib loads OpenSSL, about 3.6 MB of RSS in every CLI process.
    src = str(Path(contracta.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, contracta.cli; print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
