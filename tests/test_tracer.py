"""The benchmark tracer's span targets resolve in the package.

``perfbench/tracer.py`` skips a wrapped name that the package no longer
defines, and its metrics then read 0; these tests fail instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    # Loaded from its file, read only: it is a script, not a package module.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets(tracer):
    return [target for targets in tracer.SPANS.values() for target in targets]


def test_every_span_target_resolves(tracer):
    missing = [
        f"{module}.{name}"
        for module, name in _targets(tracer)
        if not callable(getattr(importlib.import_module(f"contracta.{module}"), name, None))
    ]
    assert missing == []
    assert {module for module, _ in _targets(tracer)} <= set(tracer.MODULES)


def test_table_build_target_resolves():
    # The tracer times the first ``FiniteSemigroup.table`` call per carrier.
    from contracta.semigroups import FiniteSemigroup

    assert callable(getattr(FiniteSemigroup, "table", None))
