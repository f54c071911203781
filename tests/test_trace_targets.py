"""The traced benchmark run (``bench/run.py --trace 1``) wraps library
functions by module and name; every one of them must still exist, or
tracing fails with an ``AttributeError`` that no untraced run shows."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_trace_target_is_a_library_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    assert layers.TARGETS
    for module, function, *_ in layers.TARGETS:
        assert hasattr(importlib.import_module(module), function), f"{module}.{function}"
