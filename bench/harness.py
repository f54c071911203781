"""Statistics, span tracing and environment records for the umeb benchmark.

Nothing here imports numpy or umeb at module level: the benchmark times
``import umeb`` as part of set-up, so it must not have happened already.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from collections import defaultdict

# One caller, no helper threads: BLAS gets exactly one thread whatever the
# library would pick by default, and never more than the machine has.
BLAS_THREADS = 1
BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_blas_threads(env=os.environ) -> None:
    """Set every BLAS/OpenMP thread-count variable to ``BLAS_THREADS``."""
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in BLAS_ENV_VARS:
        env[var] = threads


def environment() -> dict:
    """Python, numpy and BLAS versions, CPU count and the pinned thread count."""
    import numpy as np

    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        info = cfg["Build Dependencies"]["blas"]
        blas = f"{info.get('name', '?')} {info.get('version', '?')}"
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ[BLAS_ENV_VARS[0]]),
        "machine": platform.machine(),
    }


# --- statistics ----------------------------------------------------------

TAIL_BEYOND = 10


def tail(samples) -> tuple[float, float, int]:
    """Value at the highest percentile with at least 10 samples above it.

    With ``n`` samples sorted ascending that is the sample of rank
    ``n - 10`` (nearest-rank percentile ``100 * (n - 10) / n``).  Returns
    ``(value, percentile, n)``; needs at least 11 samples.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


# --- tracing -------------------------------------------------------------


class Tracer:
    """In-memory spans around wrapped calls, plus named counters.

    A span is ``[name, parent_index, start, end]``; the parent is the span
    open on the (single) caller's stack when the call began.  Counters are
    incremented by the hooks given to :meth:`wrap`.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.patched: list[str] = []  # bindings replaced by install()
        self._stack: list[int] = []

    def reset(self) -> None:
        """Drop recorded spans and counters; installed wrappers stay valid."""
        self.spans.clear()
        self.counters.clear()

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` recorded as span ``name``.

        ``before(args, kwargs)`` may return replacement ``(args, kwargs)``;
        ``after(tracer, args, kwargs, result)`` updates counters.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, out)
            return out

        return traced

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        return {"spans": span_totals(self.spans), "counters": dict(self.counters)}


def span_totals(spans) -> dict[str, dict[str, float]]:
    """Calls, total time and self time per span name.

    A span's self time is its duration minus the durations of its direct
    children.  Calls on one caller nest, so the children never overlap and
    their summed durations are exactly the covered part of the parent.
    """
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, parent, start, end) in enumerate(spans):
        t = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["s"] += end - start
        t["self_s"] += end - start - child[i]
    return out


def merge_summaries(parts) -> dict:
    """Sum span totals and counters of several summaries."""
    spans: dict[str, dict[str, float]] = {}
    counters: dict[str, int] = defaultdict(int)
    for part in parts:
        for name, t in part["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += t[k]
        for k, v in part["counters"].items():
            counters[k] += v
    return {"spans": spans, "counters": dict(counters)}


def install(tracer: Tracer, targets) -> None:
    """Wrap each target at every binding its callers resolve.

    ``targets`` holds ``(module, attribute, span, before, after)``.  The
    wrapper replaces the function in its defining module and in every other
    loaded ``umeb`` module that imported it by name, so a call reaches the
    wrapper whichever namespace it looks the function up in.  The patched
    bindings are listed in ``tracer.patched`` as ``module.attribute``.
    """
    modules = [m for n, m in sorted(sys.modules.items()) if n == "umeb" or n.startswith("umeb.")]
    for modname, attr, span, before, after in targets:
        orig = getattr(sys.modules[modname], attr)
        wrapped = tracer.wrap(span, orig, before, after)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)
                    tracer.patched.append(f"{mod.__name__}.{key}")


def emit(record: dict) -> None:
    """The result line: the last line the benchmark prints."""
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()
