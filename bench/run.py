"""umeb benchmark: one workload, one caller, closed loop.

    python3 bench/run.py --workload certify --seed 0 --seconds 30 --trace 0

Run from the root of a umeb checkout; the package is imported from its
``src/``.  The untimed-by-design parts (input generation, output checks)
sit outside each operation's timer.  With ``--trace 0`` it prints the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run plus the tracing overhead.  The last line is the JSON result.
``--workload all`` runs every workload in turn and prints their tables.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import harness
import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    harness.pin_blas_threads(env)
    return env


def fail(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def time_setup(name: str) -> list[float]:
    """Set-up seconds of ``SETUP_SAMPLES`` fresh interpreters."""
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-only", "--workload", name],
            env=child_env(), capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            fail(f"set-up failed: {proc.stderr.strip()[-500:]}")
        out.append(float(proc.stdout.split()[-1]))
    return out


class Loop:
    """Runs passes of a workload's plan and checks every output."""

    def __init__(self, wl, state, plan, seed):
        self.wl, self.state, self.plan, self.seed = wl, state, plan, seed
        self.latencies: list[float] = []
        self.attempted = self.failed = 0
        self.passes = 0

    def one_pass(self, tracer=None, rebuild=False) -> dict | None:
        """Run every operation once; with a tracer, return the pass summary.

        ``rebuild`` first redoes an in-process workload's set-up, so that a
        traced pass covers the layers behind ``setup_s`` too.
        """
        wl, clock = self.wl, time.perf_counter
        children = []
        if tracer is not None:
            tracer.reset()
        if rebuild and wl.inproc:
            self.state = wl.setup()
        for i, op in enumerate(self.plan):
            prepared = wl.prepare(self.state, op, (self.seed, self.passes, i))
            latency, t = None, clock()
            try:
                res = wl.run(self.state, op, prepared)
                latency = clock() - t
                err = wl.check(self.state, op, res)
            except Exception:  # an operation or check that raises counts as failed
                err = traceback.format_exc(limit=-3)
            self.latencies.append(clock() - t if latency is None else latency)
            self.attempted += 1
            if err is not None:
                self.failed += 1
                print(f"check failed: {json.dumps(op)}: {err}", file=sys.stderr)
            if tracer is not None and not wl.inproc:
                children.append(wl.child_summary())
        self.passes += 1
        if tracer is None:
            return None
        parts = [tracer.summary()] + children
        summary = harness.merge_summaries(parts)
        summary["startups"] = [c["startup_s"] for c in children]
        return summary


def measure(wl, seed: int, seconds: float) -> dict:
    state = wl.setup()
    plan = wl.plan(seed)
    print(f"inputs: workload={wl.name} seed={seed} sha256={workloads.inputs_digest(plan)}")
    loop = Loop(wl, state, plan, seed)
    start = time.perf_counter()
    while loop.passes < wl.min_passes or time.perf_counter() - start < seconds:
        loop.one_pass()
    wall = time.perf_counter() - start
    who = resource.RUSAGE_SELF if wl.inproc else resource.RUSAGE_CHILDREN
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    # after the peak is read: the set-up interpreters are children too
    setups = time_setup(wl.name)
    tail, pct, n = harness.tail(loop.latencies)
    size = len(plan)
    per_pass = [size / sum(loop.latencies[i:i + size]) for i in range(0, n, size)]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_s_p50": (statistics.median(loop.latencies), "s"),
        "op_s_tail": (tail, "s"),
        "ops_per_s": (statistics.median(per_pass), "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    print(
        f"{wl.name}: {loop.attempted} ops in {loop.passes} passes, {wall:.1f} s wall, "
        "closed loop, 1 caller"
    )
    notes = {
        "setup_s": f"median of {SETUP_SAMPLES} fresh interpreters",
        "op_s_tail": f"p{pct:.1f} of n={n}",
        "ops_per_s": f"median of {loop.passes} passes",
        "peak_rss_mb": "in-process" if wl.inproc else "largest child process",
    }
    for name, (value, unit) in metrics.items():
        print(f"  {name:<12} {value:12.6g} {unit:<4} {notes.get(name, '')}")
    print(f"  {'failed_frac':<12} {loop.failed / loop.attempted:12.6g} ratio")
    return {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def measure_traced(wl, seed: int, seconds: float) -> dict:
    """Per-layer metrics: one untraced reference pass, then traced passes."""
    plan = wl.plan(seed)
    digest = workloads.inputs_digest(plan)
    print(f"inputs: workload={wl.name} seed={seed} sha256={digest}")
    if workloads.inputs_digest(wl.plan(seed + 1)) == digest:
        fail("a different seed gave the same inputs")
    loop = Loop(wl, None, plan, seed)
    t = time.perf_counter()
    loop.one_pass(rebuild=True)
    reference = time.perf_counter() - t

    tracer = layers.install_tracer() if wl.inproc else harness.Tracer()
    if not wl.inproc:
        wl.traced = True
    summaries, times = [], []
    start = time.perf_counter()
    while len(summaries) < 2 or time.perf_counter() - start < seconds:
        t = time.perf_counter()
        summaries.append(loop.one_pass(tracer, rebuild=True))
        times.append(time.perf_counter() - t)

    counts = [layers.pass_counts(s) for s in summaries]
    if any(c != counts[0] for c in counts):
        fail("per-pass counts differ between traced passes of one seed")
    silent = [s for s in wl.spans if summaries[0]["spans"].get(s, {}).get("calls", 0) == 0]
    if silent:
        fail(f"spans mapped to {wl.name} never fired: {', '.join(silent)}")
    overhead = statistics.median(times) / reference - 1.0
    startups = [x for s in summaries for x in s["startups"]]
    metrics = layers.per_layer(summaries, startups, overhead)
    print(f"{wl.name} traced: {len(summaries)} passes, reference pass {reference:.3f} s")
    if tracer.patched:
        print("wrapped bindings: " + ", ".join(tracer.patched))
    print("counts per pass: " + json.dumps(counts[0]))
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:12.6g} {m['unit']}")
    return {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Every workload in its own process, tables relayed, one status."""
    ok = True
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.splitlines() or ["{}"]
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        ok = ok and proc.returncode == 0 and json.loads(lines[-1]).get("correct", False)
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "umeb" / "__init__.py").is_file():
        fail(f"no umeb package under {SRC}; run from the root of a umeb checkout")
    harness.pin_blas_threads()
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        wl = workloads.by_name(args.workload, ROOT, {})
        t = time.perf_counter()
        wl.setup()
        print(time.perf_counter() - t)
        return 0
    if args.workload == "all":
        return run_all(args)

    import umeb

    if not Path(umeb.__file__).resolve().is_relative_to(SRC):
        fail(f"imported umeb from {umeb.__file__}, not from {SRC}")
    print("environment: " + json.dumps(harness.environment()))
    workdir = ROOT / ".bench_build" / f"umeb-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.by_name(args.workload, workdir, child_env())
        if args.trace:
            result = measure_traced(wl, args.seed, args.seconds)
        else:
            result = measure(wl, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    harness.emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
