"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/steady.py --workload certify [--runs 10] [--first-seed 0]

Runs the untraced benchmark once per seed, each in its own process with
BENCHMARK.json's ``run_seconds``.  For each metric it prints the median
and the spread (interquartile distance over the median) next to the
metric's bound.  Exits 1 if a run fails its checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import harness

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=0)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None
        if result is None or not result["correct"]:
            print(f"seed {seed} failed:\n{proc.stderr}", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + json.dumps({k: round(v[-1], 6) for k, v in values.items()}), flush=True)
    print(f"{args.workload}: {args.runs} runs")
    for metric in spec["end_to_end"]:
        xs = values[metric["name"]]
        print(f"  {metric['name']:<12} median {statistics.median(xs):10.5g}  "
              f"spread {harness.spread(xs):6.3f}  bound {metric['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
