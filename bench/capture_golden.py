"""Capture the cli workload's golden outputs into bench/golden/.

    python3 bench/capture_golden.py

Runs the seed-0 command script once with ``python -m umeb.cli`` from the
checkout's ``src/`` and stores every export, verify text, search JSON and
overlap CSV/text.  The committed files were captured from the code the
benchmark was defined on; re-capturing replaces that reference, so only
do it when an output is meant to change.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

import workloads
from run import child_env

GOLDEN = workloads.GOLDEN_DIR


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workloads.BENCH_DIR.parent / ".bench_build") as tmp:
        for argv in workloads.cli_script(0):
            proc = subprocess.run(
                [sys.executable, "-m", "umeb.cli", *argv],
                cwd=tmp, env=child_env(), capture_output=True, check=True,
            )
            name = workloads.golden_name(argv)
            if argv[0] == "export":
                (GOLDEN / name).write_bytes((Path(tmp) / argv[3]).read_bytes())
            elif argv[0] == "verify":
                (GOLDEN / name).write_bytes(proc.stdout)
            elif argv[0] == "overlap":
                (GOLDEN / "overlap.csv").write_bytes((Path(tmp) / "overlap.csv").read_bytes())
                (GOLDEN / "overlap.txt").write_bytes(proc.stdout)
            else:
                (GOLDEN / name).write_bytes((Path(tmp) / name).read_bytes())
    print(f"captured {len(list(GOLDEN.iterdir()))} files into {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
