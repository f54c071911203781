"""The traced benchmark run (``bench/run.py --trace 1``) wraps library
functions by module and name; every one of them must still exist, or
tracing fails with an ``AttributeError`` that no untraced run shows.  A
short traced run also checks each operation's output, that every listed
span fires and that the per-pass counts repeat."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def test_every_trace_target_is_a_library_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    assert layers.TARGETS
    for module, function, *_ in layers.TARGETS:
        assert hasattr(importlib.import_module(module), function), f"{module}.{function}"


@pytest.mark.parametrize("workload", ["certify", "sample"])
def test_traced_benchmark_run_is_correct(workload):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--trace", "1", "--seconds", "0.1"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True
