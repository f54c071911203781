"""Which umeb functions the traced run wraps, and the per-layer metrics.

Every target is a public function of one umeb module.  The span names are
the layer names the per-layer metrics use: ``<module>.<layer>``.
"""

from __future__ import annotations

import functools
import statistics
import sys

from harness import Tracer, install

RESTART_TIE = 1e-12  # restarts within this of the minimum count as "at the minimum"


class _Counted:
    """A callable that counts its calls; stands in for descent callbacks."""

    def __init__(self, fn):
        self.fn = fn
        self.n = 0

    def __call__(self, *args):
        self.n += 1
        return self.fn(*args)


@functools.cache
def _row_bytes(pred, shape, c: int) -> int:
    """Bytes of the arrays ``defect_coords_batch`` materializes per row.

    Computed from array sizes, not measured: the float64 coordinates, the
    complex frame coefficients, the state vector before and after
    normalization, and per cut the regrouped coefficient matrix and the
    reduced state, plus the float64 result.  ``c`` is the frame size.
    """
    ent = sys.modules["umeb.entanglement"]
    total = 2 * c * 8 + c * 16 + 2 * shape.total * 16 + 8
    for cut in ent.predicate_cuts(pred, shape):
        da, db = cut.dim_a, cut.dim_b
        if isinstance(pred, ent.CutRestricted):
            da, db = min(da, db), max(da, db)
        total += da * db * 16 + da * da * 16
    return total


def _after_batch(tracer, args, kwargs, out):
    W, pred, frame = args
    rows = W.shape[0] if getattr(W, "ndim", 2) == 2 else 1
    tracer.counters["batch.rows"] += rows
    tracer.counters["batch.bytes"] += rows * _row_bytes(pred, frame[0].shape, len(frame))


def _before_descent(args, kwargs):
    value, grad, *rest = args
    return (_Counted(value), _Counted(grad), *rest), kwargs


def _after_descent(tracer, args, kwargs, out):
    value, grad, _w0, cfg = args
    tracer.counters["descent.steps"] += len(out[2]) - 1
    tracer.counters["descent.evals"] += value.n
    tracer.counters["descent.cap_hits"] += grad.n >= cfg.max_iters


def _after_search(tracer, args, kwargs, out):
    minima = out.per_restart_minima
    if minima:
        fmin = min(minima)
        tracer.counters["search.restarts"] += len(minima)
        tracer.counters["search.restarts_at_min"] += sum(m <= fmin + RESTART_TIE for m in minima)


# (module, function, span, before, after)
TARGETS = (
    ("umeb.entanglement", "defect_coords_batch", "entanglement.batch", None, _after_batch),
    ("umeb.entanglement", "defect_gradient", "entanglement.grad", None, None),
    ("umeb.entanglement", "is_maximally_entangled", "entanglement.check", None, None),
    ("umeb.verify", "minimize_on_sphere", "verify.descent", _before_descent, _after_descent),
    ("umeb.verify", "unextendibility_search", "verify.search", None, _after_search),
    ("umeb.hilbert", "orthonormal_complement", "hilbert.complement", None, None),
    ("umeb.hilbert", "hermitian_eigenvalues", "hilbert.eig", None, None),
    ("umeb.constructions", "named_basis", "constructions.build", None, None),
    ("umeb.constructions", "lift_umeb", "constructions.build", None, None),
    ("umeb.cli", "basis_file_text", "cli.serialize", None, None),
    ("umeb.cli", "search_json_text", "cli.serialize", None, None),
    ("umeb.cli", "load_basis_file", "cli.load", None, None),
    ("umeb.cli", "cmd_export", "cli.cmd.export", None, None),
    ("umeb.cli", "cmd_verify", "cli.cmd.verify", None, None),
    ("umeb.cli", "cmd_search", "cli.cmd.search", None, None),
    ("umeb.cli", "cmd_overlap", "cli.cmd.overlap", None, None),
)


def install_tracer() -> Tracer:
    """A tracer wrapped around every target whose module is loaded."""
    tracer = Tracer()
    loaded = [t for t in TARGETS if t[0] in sys.modules]
    install(tracer, loaded)
    return tracer


def pass_counts(summary: dict) -> dict:
    """The machine-independent part of a pass summary: calls and counters."""
    counts = {f"{k}.calls": v["calls"] for k, v in summary["spans"].items()}
    counts.update(summary["counters"])
    return dict(sorted(counts.items()))


# Per-layer metrics: (name, unit).  Times and counts are per pass, i.e.
# per run through the workload's list of operations.
PER_LAYER = (
    ("entanglement.batch.calls", "count"),
    ("entanglement.batch.rows", "count"),
    ("entanglement.batch.rows_per_call", "rows/call"),
    ("entanglement.batch.s", "s"),
    ("entanglement.batch.self_s", "s"),
    ("entanglement.batch.mb_computed", "MB"),
    ("entanglement.grad.calls", "count"),
    ("entanglement.grad.s", "s"),
    ("entanglement.check.calls", "count"),
    ("entanglement.check.s", "s"),
    ("verify.descent.calls", "count"),
    ("verify.descent.s", "s"),
    ("verify.descent.self_s", "s"),
    ("verify.descent.steps", "count"),
    ("verify.descent.evals", "count"),
    ("verify.descent.accept_ratio", "ratio"),
    ("verify.descent.cap_hits", "count"),
    ("verify.restarts_at_min", "ratio"),
    ("verify.search.calls", "count"),
    ("verify.search.s", "s"),
    ("verify.search.self_s", "s"),
    ("hilbert.complement.calls", "count"),
    ("hilbert.complement.s", "s"),
    ("hilbert.eig.calls", "count"),
    ("hilbert.eig.s", "s"),
    ("constructions.build.calls", "count"),
    ("constructions.build.s", "s"),
    ("cli.startup_s", "s"),
    ("cli.serialize.s", "s"),
    ("cli.load.s", "s"),
    ("cli.cmd.export.s", "s"),
    ("cli.cmd.verify.s", "s"),
    ("cli.cmd.search.s", "s"),
    ("cli.cmd.overlap.s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(passes: list[dict], startups: list[float], overhead: float) -> dict:
    """Per-layer metrics from the summaries of the traced passes.

    Counts are the same in every pass (the run checks this), so they are
    taken from the first; times are medians over passes.  ``cli.startup_s``
    is the median import time of ``umeb.cli`` per fresh interpreter.
    """
    first = passes[0]

    def calls(span):
        return first["spans"].get(span, {}).get("calls", 0)

    def secs(span, key="s"):
        return statistics.median(p["spans"].get(span, {}).get(key, 0.0) for p in passes)

    def count(name):
        return first["counters"].get(name, 0)

    values = {
        "entanglement.batch.rows": count("batch.rows"),
        "entanglement.batch.rows_per_call": _ratio(count("batch.rows"), calls("entanglement.batch")),
        "entanglement.batch.mb_computed": count("batch.bytes") / 1e6,
        "verify.descent.steps": count("descent.steps"),
        "verify.descent.evals": count("descent.evals"),
        "verify.descent.accept_ratio": _ratio(count("descent.steps"), count("descent.evals")),
        "verify.descent.cap_hits": count("descent.cap_hits"),
        "verify.restarts_at_min": _ratio(count("search.restarts_at_min"), count("search.restarts")),
        "cli.startup_s": statistics.median(startups) if startups else 0.0,
        "trace.overhead_frac": overhead,
    }
    for name, _unit in PER_LAYER:
        if name in values:
            continue
        span, _, key = name.rpartition(".")
        values[name] = calls(span) if key == "calls" else secs(span, key)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
