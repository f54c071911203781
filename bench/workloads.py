"""The three benchmark workloads: certify, sample and cli.

A workload turns the benchmark seed into one pass of operations
(:meth:`plan`), builds what the operations need (:meth:`setup`), makes an
operation's inputs (:meth:`prepare`, untimed), runs it (:meth:`run`, the
timed part) and checks its output (:meth:`check`, which returns an error
message or None).  umeb is
imported inside the methods, never at module level, because ``setup``
times the import.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = BENCH_DIR / "golden"

# The certified families and the scaling point: complement dimension 6, 6
# and 12.  The lift is the 2x3 type-1 family tagged by a six-level site.
LIFT = ("umeb-2x3-1", 6)
LIFT_NAME = "%s-lifted-%d" % LIFT
CASES = (
    ("umeb-2x3x3-1", "ghz2"),
    ("umeb-2x3x3-1", "strict"),
    ("umeb-2x3x3-1", "cut1"),
    ("umeb-2x3x3-2", "ghz2"),
    ("umeb-2x3x3-2", "strict"),
    ("umeb-2x3x3-2", "cut1"),
    (LIFT_NAME, "ghz2"),
)
# Analytic minima of the defect over each complement sphere.  cut1 reaches
# zero: the complements hold states maximally entangled across that cut.
FLOORS = {"ghz2": 0.25, "strict": 5.0 / 6.0, "cut1": 0.0}
FLOOR_TOL = 1e-12
WITNESS_TOL = 1e-8  # the default witness tolerance of unextendibility_search


def predicate(flag: str, shape):
    """The predicate a CLI flag names (same mapping as ``umeb.cli``)."""
    from umeb.entanglement import CutRestricted, GhzType, Strict
    from umeb.hilbert import Bipartition

    if flag == "strict":
        return Strict()
    if flag == "ghz2":
        return GhzType(2)
    return CutRestricted(Bipartition(shape, (0,)), shape.dims[0])


class State:
    """Bases by name and their complement frames."""

    def __init__(self, bases):
        from umeb import hilbert

        self.bases = {b.name: b for b in bases}
        self.frames = {b.name: hilbert.orthonormal_complement(b.kets) for b in bases}


def _family_state() -> State:
    from umeb import constructions

    bases = [constructions.named_basis(n) for n in ("umeb-2x3x3-1", "umeb-2x3x3-2")]
    bases.append(constructions.lift_umeb(constructions.named_basis(LIFT[0]), LIFT[1]))
    return State(bases)


class Certify:
    """One operation is one ``unextendibility_search`` at the default config."""

    name = "certify"
    inproc = True
    # The ghz2 searches are the slowest 3 of 7 per pass.  From four passes on
    # the tail sample (the 11th slowest) is one of them.
    min_passes = 4
    spans = (
        "entanglement.batch",
        "entanglement.grad",
        "verify.descent",
        "verify.search",
        "hilbert.complement",
        "constructions.build",
    )

    def plan(self, seed: int) -> list[dict]:
        return [{"basis": b, "predicate": p, "seed": seed} for b, p in CASES]

    def setup(self) -> State:
        return _family_state()

    def prepare(self, state, op, key):
        basis = state.bases[op["basis"]]
        return basis, predicate(op["predicate"], basis.shape)

    def run(self, state, op, prepared):
        from umeb import verify

        basis, pred = prepared
        return verify.unextendibility_search(basis, pred, verify.SearchConfig(seed=op["seed"]))

    def check(self, state, op, res):
        import numpy as np

        frame = state.frames[op["basis"]]
        flag = op["predicate"]
        if res.complement_dim != len(frame):
            return f"complement dim {res.complement_dim}, expected {len(frame)}"
        if flag == "cut1":
            if res.verdict != "me_state_found" or not res.min_defect <= WITNESS_TOL:
                return f"verdict {res.verdict} at {res.min_defect!r}, expected me_state_found"
        elif res.verdict != "unextendible" or abs(res.min_defect - FLOORS[flag]) > FLOOR_TOL:
            return f"verdict {res.verdict} at {res.min_defect!r}, expected unextendible at {FLOORS[flag]!r}"
        inside = np.linalg.norm(np.array([k.amps for k in frame]).conj() @ res.argmin.amps)
        if abs(inside - 1.0) > 1e-10:
            return f"argmin leaves the complement (norm of projection {inside!r})"
        return None


def defect_oracle(W, flag: str, frame, dims: tuple[int, ...]):
    """Defects of coordinate rows, re-derived without umeb's kernel.

    Decodes each row in the frame, then sums over cuts (the side with the
    smaller dimension, ties keeping site 0): ``||rho - I/d_A||^2`` for
    strict, ``||rho^2 - rho/2||^2`` for ghz2; cut1 penalizes the squared
    Schmidt coefficients across site 0 against 1/d_0.
    """
    import itertools

    import numpy as np

    amps = np.array([k.amps for k in frame])
    vecs = (W[:, 0::2] + 1j * W[:, 1::2]) @ amps
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    n, total = len(dims), int(np.prod(dims))
    cuts = []
    for m in range(1, n):
        for sites in itertools.combinations(range(n), m):
            da = int(np.prod([dims[s] for s in sites]))
            if da < total // da or (da == total // da and 0 in sites):
                cuts.append(sites)
    if flag == "cut1":
        cuts = [(0,)]
    out = np.zeros(len(W))
    for sites in cuts:
        rest = tuple(s for s in range(n) if s not in sites)
        da = int(np.prod([dims[s] for s in sites]))
        t = vecs.reshape((len(W),) + dims).transpose((0,) + tuple(s + 1 for s in sites + rest))
        mat = t.reshape(len(W), da, total // da)
        rho = mat @ mat.conj().transpose(0, 2, 1)
        if flag == "strict":
            out += np.sum(np.abs(rho - np.eye(da) / da) ** 2, axis=(1, 2))
        elif flag == "ghz2":
            out += np.sum(np.abs(rho @ rho - rho / 2) ** 2, axis=(1, 2))
        else:
            mu = np.linalg.eigvalsh(rho)[:, ::-1]
            d = dims[0]
            out += np.sum((mu[:, :d] - 1.0 / d) ** 2, axis=1) + np.sum(mu[:, d:] ** 2, axis=1)
    return out


class Sample:
    """One operation is one Gaussian batch of coordinates for one sphere."""

    name = "sample"
    inproc = True
    rows = 32768
    spot_rows = 16  # rows re-derived independently by defect_oracle
    # Twelve passes give the slowest sphere more than ten tail samples.
    min_passes = 12
    spans = ("entanglement.batch", "hilbert.complement", "constructions.build")

    def plan(self, seed: int) -> list[dict]:
        return [{"basis": b, "predicate": p, "rows": self.rows, "seed": seed} for b, p in CASES]

    def setup(self) -> State:
        return _family_state()

    def prepare(self, state, op, key):
        import numpy as np

        basis = state.bases[op["basis"]]
        ncoord = 2 * len(state.frames[op["basis"]])
        W = np.random.default_rng(key).standard_normal((op["rows"], ncoord))
        return W, predicate(op["predicate"], basis.shape)

    def run(self, state, op, prepared):
        from umeb import entanglement

        W, pred = prepared
        return W, entanglement.defect_coords_batch(W, pred, state.frames[op["basis"]])

    def check(self, state, op, result):
        import numpy as np

        W, vals = result
        if vals.shape != (op["rows"],) or not np.all(np.isfinite(vals)):
            return f"expected {op['rows']} finite defects, got shape {vals.shape}"
        floor = FLOORS[op["predicate"]]
        if vals.min() < floor - FLOOR_TOL:
            return f"sampled defect {vals.min()!r} below the certified floor {floor!r}"
        frame = state.frames[op["basis"]]
        spot = defect_oracle(W[: self.spot_rows], op["predicate"], frame, frame[0].shape.dims)
        if np.max(np.abs(vals[: self.spot_rows] - spot)) > FLOOR_TOL:
            return "defects differ from the independent re-derivation by more than 1e-12"
        return None


# --- cli -----------------------------------------------------------------

BUILTINS = ("meb8", "ghz3", "umeb-2x3-1", "umeb-2x3-2", "umeb-2x3x3-1", "umeb-2x3x3-2")
NUMBER = re.compile(r"[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


def cli_script(seed: int) -> list[list[str]]:
    """The fixed command script of one pass; the seed sets --seed and the order.

    Exports come first because the other commands read their files.
    ``ghz3`` is searched with one restart under cut1, whose minimum is zero
    to about 1e-18 from every start, so its verify text stays comparable.
    """
    s = str(seed)
    exports = [["export", n, "-o", f"{n}.json"] for n in BUILTINS]
    rest = [
        ["verify", "meb8.json", "--predicate", "strict", "--seed", s],
        ["verify", "ghz3.json", "--predicate", "cut1", "--restarts", "1", "--seed", s],
        ["verify", "umeb-2x3-1.json", "--predicate", "ghz2", "--seed", s],
        ["verify", "umeb-2x3-2.json", "--predicate", "strict", "--seed", s],
        ["search", "umeb-2x3-1.json", "--predicate", "ghz2", "--seed", s, "-o", "search-umeb-2x3-1-ghz2.json"],
        ["search", "umeb-2x3-2.json", "--predicate", "strict", "--seed", s, "-o", "search-umeb-2x3-2-strict.json"],
        ["overlap", "umeb-2x3x3-1.json", "umeb-2x3x3-2.json", "-o", "overlap.csv"],
    ]
    random.Random(seed).shuffle(rest)
    return exports + rest


def golden_name(argv: list[str]) -> str:
    """File under ``golden/`` that holds the expected output of a command."""
    cmd = argv[0]
    if cmd == "export":
        return f"export-{argv[1]}.json"
    if cmd == "verify":
        return f"verify-{argv[1][:-5]}-{argv[3]}.txt"
    if cmd == "search":
        return argv[argv.index("-o") + 1]
    return "overlap"  # overlap.csv and overlap.txt


def same_text(got: str, want: str, tol: float = FLOOR_TOL) -> bool:
    """Equal outside the numbers, and every number within ``tol`` of the golden one.

    Residuals and zero minima print at rounding-noise level (1e-16, 1e-19);
    their last digits follow the eigensolver and the descent path, not the
    command's logic, so those are compared by value.
    """
    if NUMBER.split(got) != NUMBER.split(want):
        return False
    nums_got, nums_want = NUMBER.findall(got), NUMBER.findall(want)
    return all(abs(float(a) - float(b)) <= tol for a, b in zip(nums_got, nums_want))


def check_search_json(text: str, want: dict, seed: int) -> str | None:
    got = json.loads(text)
    for key in ("basis", "shape", "predicate", "complement_dim", "verdict"):
        if got[key] != want[key]:
            return f"search {key} is {got[key]!r}, golden {want[key]!r}"
    if got["config"] != dict(want["config"], seed=seed):
        return f"search config {got['config']!r} differs from golden"
    minima, golden = got["per_restart_minima"], want["per_restart_minima"]
    if len(minima) != len(golden) or abs(got["min_defect"] - want["min_defect"]) > FLOOR_TOL:
        return f"search min_defect {got['min_defect']!r}, golden {want['min_defect']!r}"
    if any(abs(a - b) > FLOOR_TOL for a, b in zip(minima, golden)):
        return "search per_restart_minima differ from golden by more than 1e-12"
    if (got["witness"] is None) != (want["witness"] is None):
        return "search witness presence differs from golden"
    return None


class Cli:
    """One operation is one ``umeb`` command in a fresh interpreter."""

    name = "cli"
    inproc = False
    # Two passes let each search output be compared with its repeat.
    min_passes = 2
    spans = (
        "entanglement.batch",
        "entanglement.grad",
        "entanglement.check",
        "verify.descent",
        "verify.search",
        "hilbert.complement",
        "hilbert.eig",
        "constructions.build",
        "cli.serialize",
        "cli.load",
        "cli.cmd.export",
        "cli.cmd.verify",
        "cli.cmd.search",
        "cli.cmd.overlap",
    )

    def __init__(self, workdir: Path, env: dict):
        self.workdir = workdir
        self.env = env
        self.traced = False  # run commands under cli_child.py
        self.seen: dict[str, bytes] = {}

    def plan(self, seed: int) -> list[dict]:
        return [{"argv": argv, "seed": seed} for argv in cli_script(seed)]

    def setup(self) -> State:
        from umeb import constructions

        return State([constructions.named_basis(n) for n in BUILTINS])

    def prepare(self, state, op, key):
        if self.traced:
            return [sys.executable, str(BENCH_DIR / "cli_child.py"), "trace.json", *op["argv"]]
        return [sys.executable, "-m", "umeb.cli", *op["argv"]]

    def run(self, state, op, cmd):
        return subprocess.run(cmd, cwd=self.workdir, env=self.env, capture_output=True, timeout=120)

    def child_summary(self) -> dict:
        path = self.workdir / "trace.json"
        summary = json.loads(path.read_text(encoding="utf-8"))
        path.unlink()
        return summary

    def check(self, state, op, proc):
        argv = op["argv"]
        if proc.returncode != 0:
            return f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.decode()[-300:]}"
        stdout = proc.stdout.decode()
        golden = GOLDEN_DIR / golden_name(argv)
        if argv[0] == "export":
            if (self.workdir / argv[3]).read_bytes() != golden.read_bytes():
                return f"export {argv[1]} differs from {golden.name}"
        elif argv[0] == "verify":
            if not same_text(stdout, golden.read_text(encoding="utf-8")):
                return f"verify output differs from {golden.name}"
        elif argv[0] == "overlap":
            if (self.workdir / "overlap.csv").read_bytes() != golden.with_suffix(".csv").read_bytes():
                return "overlap CSV differs from overlap.csv"
            if not same_text(stdout, golden.with_suffix(".txt").read_text(encoding="utf-8")):
                return "overlap output differs from overlap.txt"
        else:
            out = (self.workdir / golden.name).read_bytes()
            if self.seen.setdefault(golden.name, out) != out:
                return f"{golden.name} is not byte-identical to its first run"
            return check_search_json(out.decode(), json.loads(golden.read_text(encoding="utf-8")), op["seed"])
        return None


def by_name(name: str, workdir: Path, env: dict):
    if name == "certify":
        return Certify()
    if name == "sample":
        return Sample()
    if name == "cli":
        return Cli(workdir, env)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("certify", "sample", "cli")


def inputs_digest(plan: list[dict]) -> str:
    """SHA-256 of a pass's operations, the inputs a seed generates."""
    return hashlib.sha256(json.dumps(plan, sort_keys=True).encode()).hexdigest()
