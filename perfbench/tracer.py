"""Run one ``contracta`` CLI command with per-layer spans.

Usage: PERFBENCH_TRACE_FILE=spans.json python3 perfbench/tracer.py verify --check green-l --n 4

Wraps the public functions of each ``contracta`` module wherever a module
bound them (``from .partitions import kernel`` binds ``relations.kernel``,
``checks.kernel`` and ``cli.kernel`` besides ``partitions.kernel``), then
runs ``contracta.cli.main`` with the given arguments.  Spans are aggregated
in memory per name: exact call count, total time (outermost calls only) and
self time (duration minus the time covered by child spans).  At exit the
aggregate and a few counters go to the JSON file named by
``PERFBENCH_TRACE_FILE``; stdout is left to the CLI.

``contracta.limits`` only guards and is not timed.  A wrapped name that a
later version of the package no longer defines is skipped, and its metrics
read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import weakref

MODULES = ("cli", "checks", "relations", "partitions", "semigroups", "maps", "rees")

# span name -> (defining module, function) pairs.
SPANS = {
    "cli.main": [("cli", "main")],
    "checks.run_check": [("checks", "run_check")],
    "relations.char": [("relations", f) for f in ("l_char", "r_char", "d_char", "starred_char")],
    "relations.green_oracle": [("relations", "green_oracle")],
    "relations.starred_partition": [("relations", "starred_partition")],
    "relations.regular_char": [
        ("relations", f) for f in ("regular_char_ct", "regular_char_orct", "regular_char_oct")
    ],
    "partitions.kernel": [("partitions", "kernel")],
    "partitions.refinement": [
        ("partitions", "max_convex_refinement"),
        ("partitions", "coarsest_merely_convex_refinement"),
    ],
    "semigroups.enumerate": [("semigroups", "enumerate_family")],
    "semigroups.closure": [("semigroups", "generated_subsemigroup")],
    "semigroups.regular_elements": [("semigroups", "regular_elements")],
    "maps.compose": [("maps", "compose")],
    "rees.quotient": [("rees", "rees_quotient")],
    "rees.verify_inverse": [("rees", "verify_inverse")],
}


class Tracer:
    """Nested spans with self time, aggregated per name."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s, depth]
        self.counters: dict[str, float] = {}
        # Time covered by the child spans of each open span; the bottom
        # entry collects top-level spans.
        self._child_time = [0.0]

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as a span called ``name``; ``after`` sees each result."""
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        child_time = self._child_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            st[3] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                st[3] -= 1
                st[0] += 1
                st[2] += dur - child_time.pop()
                if not st[3]:
                    st[1] += dur
                child_time[-1] += dur
            if after is not None:
                after(result)
            return result

        return wrapper

    def summary(self) -> dict:
        return {
            "spans": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]} for k, v in self.stats.items()},
            "counters": self.counters,
        }


def install(tracer: Tracer, package: str = "contracta"):
    """Wrap every binding of the traced functions across the package.

    Returns a callable that records the end-of-run counters.
    """
    modules = [importlib.import_module(f"{package}.{m}") for m in MODULES]
    by_name = {m.__name__.rsplit(".", 1)[1]: m for m in modules}

    kernels = set()

    def after_kernel(k):
        kernels.add(k)
        tracer.counters["partitions.kernel.distinct"] = len(kernels)

    def after_quotient(q):
        tracer.count("rees.carrier_size", q.size)

    hooks = {"partitions.kernel": after_kernel, "rees.quotient": after_quotient}
    for span, targets in SPANS.items():
        for mod_name, fn_name in targets:
            original = getattr(by_name[mod_name], fn_name, None)
            if original is None:
                continue
            wrapped = tracer.wrap(span, original, hooks.get(span))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)

    carrier = getattr(by_name["semigroups"], "FiniteSemigroup", None)
    if carrier is not None:
        carrier.__init__ = tracer.wrap("semigroups.carrier", carrier.__init__)
        original_table = carrier.table
        seen = weakref.WeakSet()

        def after_table(t):
            tracer.count("semigroups.table_bytes", 0 if t is None else t.nbytes)

        first_table = tracer.wrap("semigroups.table_build", original_table, after_table)

        # Only the first table() call per carrier builds the table; later
        # calls are lookups on the product hot path and stay untimed.
        @functools.wraps(original_table)
        def table(self):
            if self in seen:
                return original_table(self)
            seen.add(self)
            return first_table(self)

        carrier.table = table

    crt = getattr(by_name["partitions"], "convex_refinement_transversals", None)
    cache_info = getattr(crt, "cache_info", None)

    def record_cache():
        if cache_info is not None:
            info = cache_info()
            tracer.counters["partitions.crt_cache.hits"] = info.hits
            tracer.counters["partitions.crt_cache.misses"] = info.misses

    return record_cache


def main(argv: list[str]) -> int:
    out_path = os.environ["PERFBENCH_TRACE_FILE"]
    tracer = Tracer()
    finish = install(tracer)
    cli = importlib.import_module("contracta.cli")
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        finish()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
