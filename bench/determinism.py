"""Check that traced counts repeat for a seed, and record them.

    python3 bench/determinism.py [--seed 0] [--write]

For every workload, runs the traced benchmark twice with ``--seed S`` and
once with ``--seed S+1``, each as its own process.  The two same-seed runs
must report identical per-pass counts (span calls and counters, among them
``entanglement.batch.calls``/``rows`` and ``descent.evals``); the other
seed must produce other inputs.  With ``--write`` the seed-S counts go to
``bench/counts.json``.  Exits 1 if a check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
COUNTS = BENCH / "counts.json"


def traced(name: str, seed: int) -> tuple[str, dict]:
    """Input digest and per-pass counts of one traced run."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{name} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    digest = next(l for l in lines if l.startswith("inputs: ")).rpartition("sha256=")[2]
    counts = json.loads(next(l for l in lines if l.startswith("counts per pass: ")).partition(": ")[2])
    if not json.loads(lines[-1])["correct"]:
        sys.exit(f"{name} seed {seed}: an output check failed")
    return digest, counts


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--write", action="store_true", help="store the counts in bench/counts.json")
    args = p.parse_args()
    ok = True
    recorded = {}
    for name in workloads.WORKLOADS:
        d1, c1 = traced(name, args.seed)
        d2, c2 = traced(name, args.seed)
        d3, _ = traced(name, args.seed + 1)
        same = d1 == d2 and c1 == c2
        differs = d3 != d1
        ok = ok and same and differs
        print(f"{name}: same seed repeats counts: {same}; next seed changes inputs: {differs}")
        recorded[name] = c1
    if args.write and ok:
        COUNTS.write_text(json.dumps({"seed": args.seed, "counts_per_pass": recorded}, indent=2) + "\n")
        print(f"wrote {COUNTS}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
