"""The benchmark's tracer (perfbench/tracing.py) wraps functions by their
names on bmdl's modules, so a refactor that unbinds one of them breaks the
benchmark while every other test passes.  This guard loads the tracer's
table by path, without running or changing the benchmark, and checks that
each wrapped name is still there."""

import importlib
import importlib.util
import sys

from conftest import REPO


def test_every_name_the_tracer_wraps_is_bound_and_callable(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", REPO / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPS
    unbound = [
        f"bmdl.{module}.{attr}"
        for module, attr, *_ in tracing.WRAPS
        if not callable(getattr(importlib.import_module(f"bmdl.{module}"), attr, None))
    ]
    assert not unbound, f"perfbench/tracing.py wraps names bmdl no longer binds: {unbound}"
