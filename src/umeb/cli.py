"""Command-line front end.

Subcommands: ``demo`` (run the whole story and check every claim),
``verify`` (orthonormality + maximal entanglement of a basis file),
``overlap`` (pairwise overlap magnitudes of two bases, optional CSV),
``export`` (write a built-in construction as JSON), and ``search``
(unextendibility certificate as deterministic JSON).

Exit codes: 0 success, 1 usage or file-format trouble, 2 a verification
that ran fine but failed.

Basis files are JSON: ``{"name", "shape": [d1, ...], "vectors":
[[[re, im], ...], ...]}`` plus an optional ``terms`` array parallel to
``vectors`` carrying product decompositions.  Floats are written with 17
significant digits, so files round-trip float64 exactly and re-exports
are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

from .constructions import (
    DecomposedVector,
    LabeledBasis,
    ProductTerm,
    basis_names,
    lift_umeb,
    meb8,
    named_basis,
    umeb_2x3_type1,
    umeb_2x3_type2,
    umeb_2x3x3_first,
    umeb_2x3x3_second,
)
from .entanglement import (
    CutRestricted,
    GhzType,
    Predicate,
    Strict,
    is_maximally_entangled,
)
from .hilbert import Bipartition, Ket, SystemShape
from .verify import (
    CAVEATS,
    SearchConfig,
    check_completeness,
    check_orthonormal,
    mub_overlap,
    set_match_distance,
    unextendibility_search,
)

PREDICATE_FLAGS = ("strict", "ghz2", "cut1")


class CliError(Exception):
    """Bad usage or unreadable/ill-formed input; exits with code 1."""


def predicate_from_flag(flag: str, shape: SystemShape) -> Predicate:
    """Map a CLI predicate name to a predicate over a concrete shape.

    ``cut1`` means: maximally entangled across the cut separating the
    first subsystem, with d equal to that subsystem's dimension.
    """
    if flag == "strict":
        return Strict()
    if flag == "ghz2":
        return GhzType(2)
    if flag == "cut1":
        if shape.nsys < 2:  # the message Strict and GhzType give
            raise CliError("predicate needs at least two subsystems")
        return CutRestricted(Bipartition(shape, (0,)), shape.dims[0])
    raise CliError(f"unknown predicate {flag!r}; choose from {', '.join(PREDICATE_FLAGS)}")


# --- JSON output ----------------------------------------------------------


def _encode(x) -> str:
    """One JSON value on one line.

    Floats get 17 significant digits, so they round-trip float64 exactly;
    ``+ 0.0`` writes -0.0 as 0, which JSON would read back as an integer
    anyway.  Complex numbers are ``[re, im]`` pairs and a ket is its
    amplitude list.  A :class:`SearchConfig` is written by ``json``, as its
    settings were given (``0.1``, ``1e-09``).
    """
    if isinstance(x, float):
        return "%.17g" % (x + 0.0)
    if isinstance(x, complex):
        return f"[{_encode(x.real)}, {_encode(x.imag)}]"
    if isinstance(x, Ket):
        x = x.amps
    if isinstance(x, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_encode(v) for v in x) + "]"
    if isinstance(x, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_encode(v)}" for k, v in x.items()) + "}"
    if isinstance(x, SearchConfig):
        return json.dumps(dataclasses.asdict(x))
    return json.dumps(x)


def _layout(fields: dict, rows: Sequence[str] = ()) -> str:
    """A JSON object, one field per line; the lists in ``rows`` one item per line."""
    lines = []
    for key, value in fields.items():
        if key in rows:
            text = "[\n" + ",\n".join("    " + _encode(v) for v in value) + "\n  ]"
        else:
            text = _encode(value)
        lines.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def basis_file_text(basis: LabeledBasis) -> str:
    """Deterministic JSON text for a basis (one vector per line)."""
    terms = [
        None
        if dv.terms is None
        else {
            "grouping": dv.grouping,
            "products": [{"coefficient": t.coefficient, "factors": t.factors} for t in dv.terms],
        }
        for dv in basis.vectors
    ]
    return _layout(
        {"name": basis.name, "shape": basis.shape.dims, "vectors": basis.kets, "terms": terms},
        rows=("vectors", "terms"),
    )


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)  # JSON true/false load as bool, an int


def _is_number(x) -> bool:
    return _is_int(x) or isinstance(x, float)


def _as_amps(raw, what: str) -> np.ndarray:
    if not isinstance(raw, list) or not raw:
        raise CliError(f"{what}: expected a nonempty list of [re, im] pairs")
    out = np.empty(len(raw), dtype=np.complex128)
    for k, pair in enumerate(raw):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(_is_number(p) for p in pair)
        ):
            raise CliError(f"{what}: entry {k} is not an [re, im] pair")
        try:
            out[k] = complex(pair[0], pair[1])
        except OverflowError:  # a JSON integer beyond float range
            raise CliError(f"{what}: entry {k} is beyond float range")
    big = np.flatnonzero(np.abs(out.view(np.float64)) > 1.0 + 1e-9)
    if big.size:  # no unit vector has such a part, and its square could overflow
        raise CliError(f"{what}: entry {big[0] // 2} has a part above 1 in magnitude")
    return out


def _group_shape(shape: SystemShape, group: Sequence[int]) -> SystemShape:
    return SystemShape(tuple(shape.dims[s] for s in group))


def load_basis_file(path: str) -> LabeledBasis:
    """Read a basis file; vector labels are synthesized as v0, v1, ..."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise CliError(f"cannot read {path}: {e.strerror or e}")
    except json.JSONDecodeError as e:
        raise CliError(f"{path} is not valid JSON: {e}")
    if not isinstance(data, dict):
        raise CliError(f"{path}: top level must be an object")
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise CliError(f"{path}: missing basis name")
    dims = data.get("shape")
    if (
        not isinstance(dims, list)
        or not dims
        or not all(isinstance(d, int) and d >= 2 for d in dims)
    ):
        raise CliError(f"{path}: shape must be a list of integers >= 2")
    shape = SystemShape(tuple(dims))
    raw_vectors = data.get("vectors")
    if not isinstance(raw_vectors, list) or not raw_vectors:
        raise CliError(f"{path}: vectors must be a nonempty list")
    raw_terms = data.get("terms")
    if raw_terms is None:
        raw_terms = [None] * len(raw_vectors)
    if not isinstance(raw_terms, list) or len(raw_terms) != len(raw_vectors):
        raise CliError(f"{path}: terms must be null or parallel to vectors")

    vectors = []
    for i, (raw_v, raw_t) in enumerate(zip(raw_vectors, raw_terms)):
        amps = _as_amps(raw_v, f"{path}: vector {i}")
        try:
            ket = Ket(shape, amps)
        except ValueError as e:
            raise CliError(f"{path}: vector {i}: {e}")
        grouping = terms = None
        if raw_t is not None:
            if not isinstance(raw_t, dict):
                raise CliError(f"{path}: terms[{i}] must be null or an object")
            raw_grouping = raw_t.get("grouping")
            raw_products = raw_t.get("products")
            if not isinstance(raw_grouping, list) or not isinstance(raw_products, list):
                raise CliError(f"{path}: terms[{i}] needs grouping and products")
            if not all(isinstance(g, list) and all(map(_is_int, g)) for g in raw_grouping):
                raise CliError(f"{path}: terms[{i}]: grouping must be lists of integer sites")
            grouping = tuple(tuple(g) for g in raw_grouping)
            outside = [s for g in grouping for s in g if not 0 <= s < shape.nsys]
            if outside:
                raise CliError(
                    f"{path}: terms[{i}]: grouping site {outside[0]} is outside 0..{shape.nsys - 1}"
                )
            if not raw_products:
                raise CliError(f"{path}: terms[{i}]: products must be a non-empty list")
            prods = []
            for k, rp in enumerate(raw_products):
                if not isinstance(rp, dict) or not _is_number(rp.get("coefficient")):
                    raise CliError(f"{path}: terms[{i}] product {k} is malformed")
                raw_factors = rp.get("factors")
                if not isinstance(raw_factors, list) or len(raw_factors) != len(grouping):
                    raise CliError(
                        f"{path}: terms[{i}] product {k}: factors must be a list "
                        f"of {len(grouping)}, one per group"
                    )
                factors = []
                for g_idx, (g, raw_f) in enumerate(zip(grouping, raw_factors)):
                    f_amps = _as_amps(raw_f, f"{path}: terms[{i}] product {k} factor {g_idx}")
                    try:
                        factors.append(Ket(_group_shape(shape, g), f_amps))
                    except ValueError as e:
                        raise CliError(
                            f"{path}: terms[{i}] product {k} factor {g_idx}: {e}"
                        )
                try:
                    coefficient = float(rp["coefficient"])
                except OverflowError:
                    raise CliError(
                        f"{path}: terms[{i}] product {k}: coefficient is beyond float range"
                    )
                if math.isfinite(coefficient) and coefficient > 1.0 + 1e-9:
                    raise CliError(f"{path}: terms[{i}] product {k}: coefficient is above 1")
                prods.append(ProductTerm(coefficient, tuple(factors)))
            terms = tuple(prods)
        try:
            vectors.append(DecomposedVector(ket, grouping, terms))
        except ValueError as e:
            raise CliError(f"{path}: vector {i}: {e}")
    try:
        return LabeledBasis(
            name=name,
            shape=shape,
            labels=tuple(f"v{i}" for i in range(len(vectors))),
            vectors=tuple(vectors),
        )
    except ValueError as e:
        raise CliError(f"{path}: {e}")


def _resolve_basis(token: str) -> LabeledBasis:
    """A path to a basis file, or the name of a built-in construction."""
    if os.path.exists(token):
        return load_basis_file(token)
    if token in basis_names():
        return named_basis(token)
    raise CliError(
        f"{token!r} is neither a readable file nor a built-in basis "
        f"({', '.join(basis_names())})"
    )


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as e:
        raise CliError(f"cannot write {path}: {e.strerror or e}")


# --- subcommands ---------------------------------------------------------


def cmd_export(args) -> int:
    _write_text(args.output, basis_file_text(named_basis(args.name)))
    return 0


def cmd_verify(args) -> int:
    basis = _resolve_basis(args.basis)
    pred = predicate_from_flag(args.predicate, basis.shape)
    cfg = SearchConfig(restarts=args.restarts, seed=args.seed)
    # every check runs before the first line is printed, so a check that
    # raises leaves stdout empty
    onb = check_orthonormal(basis)
    rank, complete = check_completeness(basis)
    checks = [is_maximally_entangled(ket, pred) for ket in basis.kets]
    # a dependent set has no well-defined complement to search
    search = unextendibility_search(basis, pred, cfg) if rank == len(basis) else None
    print(f"basis {basis.name} ({basis.shape}, {len(basis)} vectors)")
    print(f"orthonormal: {'yes' if onb.ok else 'NO'} (residual {onb.residual:.3e})")
    print(f"rank: {rank}/{basis.shape.total} ({'complete' if complete else 'not complete'})")
    print(f"predicate {args.predicate}:")
    worst = max(chk.max_residual for chk in checks)
    failing = [lab for lab, chk in zip(basis.labels, checks) if not chk.ok]
    if failing:
        print(f"  maximally entangled: NO -- failing: {', '.join(failing)} (worst residual {worst:.3e})")
    else:
        print(f"  maximally entangled: all {len(checks)} vectors (worst residual {worst:.3e})")
    if search is None:
        print("  search: skipped (vectors are linearly dependent)")
    elif search.complement_dim == 0:
        print("  search: complement is empty -> complete")
    else:
        print(
            f"  search: complement dim {search.complement_dim}, "
            f"min defect {search.min_defect:.6g} -> {search.verdict}"
        )
    print("caveats:")
    for c in CAVEATS:
        print(f"  - {c}")
    return 2 if (not onb.ok or failing) else 0


def overlap_csv_text(a: LabeledBasis, b: LabeledBasis, mags: np.ndarray) -> str:
    lines = ["," + ",".join(b.labels)]
    for i, lab in enumerate(a.labels):
        lines.append(lab + "," + ",".join("%.15g" % m for m in mags[i]))
    return "\n".join(lines) + "\n"


def cmd_overlap(args) -> int:
    a = _resolve_basis(args.basis_a)
    b = _resolve_basis(args.basis_b)
    rep = mub_overlap(a, b, tol=args.tol)
    if args.output is not None:
        _write_text(args.output, overlap_csv_text(a, b, rep.magnitudes))
    print(f"overlap of {a.name} ({len(a)} vectors) and {b.name} ({len(b)} vectors)")
    print("unbiased target = %.16f" % rep.target)
    print("max deviation from target = %.16f" % rep.max_deviation)
    if rep.first_violation is not None:
        i, j = rep.first_violation
        print(
            "first violation at (%s, %s): |overlap| = %.16f"
            % (a.labels[i], b.labels[j], rep.magnitudes[i, j])
        )
    if rep.note:
        print(f"note: {rep.note}")
    print(f"verdict: {'mutually unbiased' if rep.unbiased else 'not mutually unbiased'}")
    return 0


def search_json_text(
    basis: LabeledBasis, flag: str, result, cfg: SearchConfig
) -> str:
    return _layout(
        {
            "basis": basis.name,
            "shape": basis.shape.dims,
            "predicate": flag,
            "config": cfg,
            "complement_dim": result.complement_dim,
            "min_defect": result.min_defect,
            "verdict": result.verdict,
            "per_restart_minima": result.per_restart_minima,
            "argmin": result.argmin,
            "witness": result.witness,
        }
    )


def cmd_search(args) -> int:
    basis = _resolve_basis(args.basis)
    onb = check_orthonormal(basis)
    if not onb.ok:
        print(
            f"error: basis {basis.name} is not orthonormal "
            f"(residual {onb.residual:.3e}); refusing to search",
            file=sys.stderr,
        )
        return 2
    pred = predicate_from_flag(args.predicate, basis.shape)
    cfg = SearchConfig(restarts=args.restarts, seed=args.seed)
    result = unextendibility_search(basis, pred, cfg, witness_tol=args.witness_tol)
    _write_text(args.output, search_json_text(basis, args.predicate, result, cfg))
    return 0


def cmd_demo(args) -> int:
    cfg = SearchConfig(restarts=args.restarts)
    ok = True

    def check(flag: bool, line: str) -> None:
        nonlocal ok
        ok = ok and flag
        print(("  [ok] " if flag else "  [FAIL] ") + line)

    def residuals(fam: LabeledBasis, pred: Predicate) -> np.ndarray:
        return np.array([is_maximally_entangled(k, pred).max_residual for k in fam.kets])

    print("== complete maximally entangled basis in 2x2x2 ==")
    m8 = meb8()
    onb = check_orthonormal(m8)
    check(onb.ok, f"meb8 orthonormal (residual {onb.residual:.3e})")
    rank, complete = check_completeness(m8)
    check(complete, f"meb8: complete (rank {rank}/8)")
    worst = residuals(m8, Strict()).max()
    check(worst < 1e-8, f"all 8 vectors strictly maximally entangled (worst residual {worst:.3e})")

    print("== unextendible families in 2x3 ==")
    two_three = []
    for fam in (umeb_2x3_type1(), umeb_2x3_type2()):
        two_three.append(fam)
        onb = check_orthonormal(fam)
        check(onb.ok, f"{fam.name} orthonormal (residual {onb.residual:.3e})")
        worst = residuals(fam, GhzType(2)).max()
        check(worst < 1e-8, f"{fam.name}: all 4 vectors maximally entangled (worst residual {worst:.3e})")
        # the frame's reduced states on the qutrit sum to rank 1, so the
        # complement is C^2 (x) w for one w and holds only product states
        m = np.array([f.amps.reshape(2, 3) for f in fam.complement])
        dev = np.abs(np.linalg.eigvalsh(np.einsum("kab,kac->bc", m, m.conj())) - [0, 0, 2]).max()
        check(dev < 1e-12, f"{fam.name}: complement is C^2 x w, product states only (deviation {dev:.3e})")
        for flag in ("ghz2", "strict"):
            res = unextendibility_search(fam, predicate_from_flag(flag, fam.shape), cfg)
            check(
                res.verdict == "unextendible",
                f"{fam.name} {flag}: min defect {res.min_defect:.6g} -> {res.verdict}",
            )

    print("== lifted families in 2x3x3 ==")
    first, second = umeb_2x3x3_first(), umeb_2x3x3_second()
    for base, fam in zip(two_three, (first, second)):
        d_match = set_match_distance(lift_umeb(base, 3), fam)
        check(d_match < 1e-12, f"lift of {base.name} matches {fam.name} (distance {d_match:.3e})")
        onb = check_orthonormal(fam)
        rank, complete = check_completeness(fam)
        check(
            onb.ok and not complete,
            f"{fam.name} orthonormal, rank {rank}/18 (not complete)",
        )
        worst = residuals(fam, GhzType(2)).max()
        check(worst < 1e-8, f"{fam.name}: GHZ-type entanglement on all cuts (worst {worst:.3e})")
        dev = np.abs(residuals(fam, Strict()) - 1.0 / math.sqrt(6.0)).max()
        check(dev < 1e-12, f"{fam.name}: strict residual 1/sqrt(6) on every vector (deviation {dev:.3e})")
        for flag in ("ghz2", "strict"):
            res = unextendibility_search(fam, predicate_from_flag(flag, fam.shape), cfg)
            check(
                res.verdict == "unextendible",
                f"{fam.name} {flag}: min defect {res.min_defect:.6g} -> {res.verdict}",
            )
    cut1 = predicate_from_flag("cut1", first.shape)
    res = unextendibility_search(first, cut1, cfg)
    check(
        res.verdict == "me_state_found",
        f"{first.name} cut1: min defect {res.min_defect:.3e} -> {res.verdict} "
        "(unextendibility is predicate-dependent)",
    )

    print("== mutual unbiasedness ==")
    rep = mub_overlap(first, second)
    mag00 = rep.magnitudes[0, 0]
    print("  overlap(phi00,psi00) = %.16f" % mag00)
    print("  unbiased target = %.16f" % rep.target)
    check(
        abs(mag00 - 1.0 / math.sqrt(6.0)) < 1e-12,
        "overlap(phi00,psi00) equals 1/sqrt(6)",
    )
    gap = np.abs(rep.magnitudes[..., None] - [0.0, 1.0 / math.sqrt(12.0), 1.0 / math.sqrt(6.0)])
    counts = (gap < 1e-12).sum(axis=(0, 1))
    check(
        gap.min(axis=2).max() < 1e-12 and counts.all(),
        "cross overlaps take exactly the values 0, 1/sqrt(12), 1/sqrt(6) "
        f"({counts[0]}, {counts[1]}, {counts[2]} of {rep.magnitudes.size} pairs)",
    )
    check(not rep.unbiased, f"not mutually unbiased (max deviation {rep.max_deviation:.6g})")

    print("demo: all checks passed" if ok else "demo: FAILURES above")
    return 0 if ok else 2


# --- parser --------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)

    def _parse_optional(self, arg_string):
        # argparse reads "-1e-8" or "-inf" as an option; a float is a value.
        # This overrides a private method, in which a None return marks a
        # positional argument.  Checked against CPython 3.11's argparse; its
        # option return type differs between versions, so re-check this on
        # a Python upgrade (tests/test_cli.py covers it).
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="umeb",
        description="Construct and verify (un)extendible maximally entangled bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("demo", help="run every construction and check every claim")
    p.add_argument("--restarts", type=int, default=8, help="search restarts (default 8)")
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("verify", help="check orthonormality and maximal entanglement")
    p.add_argument("basis", help="basis file or built-in name")
    p.add_argument("--predicate", choices=PREDICATE_FLAGS, default="strict")
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("overlap", help="pairwise overlap magnitudes of two bases")
    p.add_argument("basis_a", help="basis file or built-in name")
    p.add_argument("basis_b", help="basis file or built-in name")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("-o", "--output", default=None, help="write magnitudes as CSV")
    p.set_defaults(func=cmd_overlap)

    p = sub.add_parser("export", help="write a built-in basis as JSON")
    p.add_argument("name", help=f"one of: {', '.join(basis_names())}")
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("search", help="minimize an entanglement defect over the complement")
    p.add_argument("basis", help="basis file or built-in name")
    p.add_argument("--predicate", choices=PREDICATE_FLAGS, default="strict")
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--witness-tol", type=float, default=1e-8)
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p.set_defaults(func=cmd_search)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:  # the last resort for an input too large to hold
        print("error: out of memory" + (f": {e}" if str(e) else ""), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
