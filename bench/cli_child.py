"""Traced stand-in for ``python -m umeb.cli``.

Usage: ``python3 bench/cli_child.py SUMMARY.json CLI-ARGS...``

Times ``import umeb.cli`` in this fresh interpreter, wraps umeb's public
functions, runs the CLI with the remaining arguments and writes the span
summary to SUMMARY.json.  Exits with the CLI's exit code.
"""

import sys
import time

t0 = time.perf_counter()
import umeb.cli  # noqa: E402

startup_s = time.perf_counter() - t0

import json  # noqa: E402

from layers import install_tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = install_tracer()
    code = umeb.cli.main(argv)
    summary = tracer.summary()
    summary["startup_s"] = startup_s
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
