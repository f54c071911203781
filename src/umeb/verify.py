"""Checks and certificates for labeled bases.

The centerpiece is :func:`unextendibility_search`: a multi-start projected
gradient descent that minimizes an entanglement defect over the unit
sphere of the orthogonal complement of a basis.  A minimum bounded away
from zero certifies (numerically) that no state of the required
entanglement class survives in the complement, i.e. the basis cannot be
extended; a minimum at zero produces the extending state as a witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .constructions import LabeledBasis
from .entanglement import (
    Predicate,
    coords_to_ket,
    defect_coords_batch,
    defect_gradient,
    is_maximally_entangled,
    predicate_cuts,
    predicate_label,
)
from .hilbert import (
    Ket,
    gram_matrix,
    numerical_rank,
    orthonormal_complement,
)


class OrthonormalityCheck(NamedTuple):
    ok: bool
    residual: float


class CompletenessCheck(NamedTuple):
    rank: int
    complete: bool


def check_orthonormal(basis: LabeledBasis) -> OrthonormalityCheck:
    """Max deviation of the Gram matrix from the identity; ok up to 1e-12."""
    g = gram_matrix(basis.kets).entries
    residual = float(np.max(np.abs(g - np.eye(len(basis)))))
    return OrthonormalityCheck(residual <= 1e-12, residual)


def check_completeness(basis: LabeledBasis) -> CompletenessCheck:
    """Numerical rank of the span versus the full space dimension."""
    rank = numerical_rank(basis.kets)
    return CompletenessCheck(rank, rank == basis.shape.total)


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the multi-start descent; defaults match the certificates."""

    restarts: int = 32
    max_iters: int = 2000
    step: float = 0.1
    shrink: float = 0.5
    grad_tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be positive")
        if not (0.0 < self.shrink < 1.0):
            raise ValueError("shrink must lie in (0, 1)")
        if self.step <= 0.0 or self.grad_tol <= 0.0:
            raise ValueError("step and grad_tol must be positive")


# Restarts one descent steps together.  Larger searches run in groups of
# this size, so memory does not grow with cfg.restarts beyond the results.
_LOCKSTEP = 32


def minimize_on_sphere(
    value: Callable[[np.ndarray], np.ndarray],
    grad: Callable[[np.ndarray], np.ndarray],
    W0: np.ndarray,
    cfg: SearchConfig,
) -> tuple[np.ndarray, np.ndarray, list[list[float]]]:
    """Projected gradient descent on the unit sphere with backtracking.

    ``W0`` is an ``(R, n)`` block of starts, one descent per row (a 1-D
    start is a block of one row).  ``value`` maps an ``(m, n)`` block of
    points to their ``(m,)`` objective values and ``grad`` to their
    ``(m, n)`` gradients; both are called on the rows still moving only.

    The rows step in lockstep, but each keeps its own step size,
    backtracking and stop test, so every row follows the rule it would
    follow alone: step along the negative tangent component of the
    gradient, shrink the step until the objective decreases, and
    cautiously re-grow it after success.  A row stops when its tangent
    gradient drops below ``cfg.grad_tol`` or its step underflows; every
    row stops after ``cfg.max_iters`` gradient evaluations.  Returns the
    final points, their values, and per row the history of accepted
    values (non-increasing by construction).
    """
    W = np.atleast_2d(np.array(W0, dtype=np.float64))
    norms = np.linalg.norm(W, axis=1)
    if np.any(norms <= 1e-12):
        raise ValueError("start point is numerically zero")
    W /= norms[:, None]
    f = np.array(value(W), dtype=np.float64)
    histories = [[float(x)] for x in f]
    alpha = np.full(len(W), cfg.step)
    live = np.arange(len(W))  # rows still descending
    for _ in range(cfg.max_iters):
        if not live.size:
            break
        P = W[live]
        G = grad(P)
        G = G - np.sum(G * P, axis=1)[:, None] * P
        steep = np.linalg.norm(G, axis=1) > cfg.grad_tol
        live, G = live[steep], G[steep]
        moved = np.zeros(live.size, dtype=bool)
        trying = np.flatnonzero(alpha[live] >= 1e-14)  # positions in live
        while trying.size:
            rows = live[trying]
            cand = W[rows] - alpha[rows][:, None] * G[trying]
            cand /= np.linalg.norm(cand, axis=1)[:, None]
            fc = np.asarray(value(cand))
            better = fc < f[rows]
            won = rows[better]
            W[won], f[won] = cand[better], fc[better]
            for r in won:
                histories[r].append(float(f[r]))
            alpha[won] = np.minimum(alpha[won] / cfg.shrink, cfg.step)
            moved[trying[better]] = True
            alpha[rows[~better]] *= cfg.shrink
            trying = trying[~better]
            trying = trying[alpha[live[trying]] >= 1e-14]
        live = live[moved]
    return W, f, histories


@dataclass(frozen=True, eq=False)
class UnextendibilityResult:
    """Outcome of minimizing a defect over a basis's orthogonal complement.

    ``verdict`` is ``complete`` (empty complement), ``unextendible``
    (minimum stayed above the witness tolerance), or ``me_state_found``
    (a complement state satisfying the predicate was located; it is
    returned as ``witness``).
    """

    predicate: Predicate
    complement_dim: int
    min_defect: Optional[float]
    argmin: Optional[Ket]
    per_restart_minima: tuple[float, ...]
    verdict: str
    witness: Optional[Ket]


def unextendibility_search(
    basis: LabeledBasis,
    pred: Predicate,
    cfg: Optional[SearchConfig] = None,
    witness_tol: float = 1e-8,
) -> UnextendibilityResult:
    """Certify numerically whether a basis extends under a predicate.

    Builds an orthonormal frame of the complement, then runs
    ``cfg.restarts`` independent descents from seeded random starts.  The
    restarts step in lockstep, up to 32 at a time, as the rows of one
    :func:`minimize_on_sphere` block; each row still follows its own
    descent.  Restart ``r`` draws its start from
    ``default_rng((cfg.seed, r))``, so results are reproducible run to
    run.  Among restarts tying for the minimum (within 1e-12) the lowest
    restart index supplies the argmin.
    """
    if cfg is None:
        cfg = SearchConfig()
    predicate_cuts(pred, basis.shape)  # validate predicate/shape pairing early
    frame = orthonormal_complement(basis.kets)
    if not frame:
        return UnextendibilityResult(
            predicate=pred,
            complement_dim=0,
            min_defect=None,
            argmin=None,
            per_restart_minima=(),
            verdict="complete",
            witness=None,
        )
    ncoord = 2 * len(frame)
    value = lambda W: defect_coords_batch(W, pred, frame)
    grad = lambda W: defect_gradient(W, pred, frame)
    finals_w, finals_f = [], []
    for first in range(0, cfg.restarts, _LOCKSTEP):
        group = range(first, min(first + _LOCKSTEP, cfg.restarts))
        W0 = np.array([np.random.default_rng((cfg.seed, r)).standard_normal(ncoord) for r in group])
        W, f, _ = minimize_on_sphere(value, grad, W0, cfg)
        finals_w.append(W)
        finals_f.extend(float(x) for x in f)
    fmin = min(finals_f)
    best = next(r for r, f in enumerate(finals_f) if f <= fmin + 1e-12)
    best_w = finals_w[best // _LOCKSTEP][best % _LOCKSTEP]
    argmin = coords_to_ket(best_w, frame)
    found = fmin <= witness_tol
    return UnextendibilityResult(
        predicate=pred,
        complement_dim=len(frame),
        min_defect=fmin,
        argmin=argmin,
        per_restart_minima=tuple(sorted(finals_f)),
        verdict="me_state_found" if found else "unextendible",
        witness=argmin if found else None,
    )


@dataclass(frozen=True, eq=False)
class MubReport:
    """Pairwise overlap magnitudes of two bases against the unbiased value.

    For bases of a d-dimensional space the mutually-unbiased target is
    ``1/sqrt(d)``.  ``first_violation`` is the row-major (i, j) of the
    first pair deviating beyond tolerance, or None.
    """

    magnitudes: np.ndarray
    target: float
    max_deviation: float
    first_violation: Optional[tuple[int, int]]
    unbiased: bool
    note: str


def mub_overlap(a: LabeledBasis, b: LabeledBasis, tol: float = 1e-8) -> MubReport:
    """All |<a_i|b_j>| magnitudes and the unbiasedness verdict."""
    if a.shape != b.shape:
        raise ValueError(f"bases live in different spaces: {a.shape} vs {b.shape}")
    total = a.shape.total
    mags = np.abs(a.amps_matrix().conj() @ b.amps_matrix().T)
    target = math.sqrt(1.0 / total)
    dev = np.abs(mags - target)
    max_deviation = float(np.max(dev))
    first_violation = None
    bad = np.argwhere(dev > tol)
    if bad.size:
        first_violation = (int(bad[0][0]), int(bad[0][1]))
    note = ""
    if len(a) < total or len(b) < total:
        note = (
            "at least one set does not span the space; unbiasedness is "
            "judged on the listed vectors only"
        )
    return MubReport(
        magnitudes=mags,
        target=float(target),
        max_deviation=max_deviation,
        first_violation=first_violation,
        unbiased=first_violation is None,
        note=note,
    )


def set_match_distance(a: LabeledBasis, b: LabeledBasis) -> float:
    """How far two equal-size vector sets are from being the same set.

    Greedily pairs each vector of ``a`` with its nearest unused vector of
    ``b`` and returns the largest paired distance.  Adequate here because
    the sets under comparison are either (near-)identical or far apart;
    no attempt at an optimal assignment is made.
    """
    if len(a) != len(b):
        raise ValueError(f"sets differ in size: {len(a)} vs {len(b)}")
    if a.shape != b.shape:
        raise ValueError(f"sets live in different spaces: {a.shape} vs {b.shape}")
    d = np.linalg.norm(a.amps_matrix()[:, None, :] - b.amps_matrix()[None, :, :], axis=2)
    unused = list(range(len(b)))
    worst = 0.0
    for i in range(len(a)):
        j = min(unused, key=lambda j: d[i, j])
        worst = max(worst, float(d[i, j]))
        unused.remove(j)
    return worst


CAVEATS: tuple[str, ...] = (
    'The strict predicate reads "maximally mixed on every cut" dimensionally: '
    "the reduced state must equal I/dim on the smaller side of each "
    "bipartition.  In 2x3x3 no pure state meets this (a rank-2 coefficient "
    "matrix cannot average to I/3), so strict verdicts there are uniformly "
    "negative by construction.",
    "Unextendibility of the 2x3x3 families depends on the predicate: their "
    "complements contain no GHZ-type state, yet do contain states maximally "
    "entangled across a single designated cut.",
    "Search certificates are numerical: multi-start projected descent plus "
    "random sampling of the complement sphere.  They are strong evidence at "
    "the stated tolerances, not symbolic proofs.",
)


@dataclass(frozen=True, eq=False)
class PredicateReport:
    """Per-predicate slice of a basis report."""

    predicate: Predicate
    label: str
    per_vector: tuple[tuple[str, float], ...]
    all_ok: bool
    search: Optional[UnextendibilityResult]


@dataclass(frozen=True, eq=False)
class BasisReport:
    """Everything the verifier can say about one basis."""

    name: str
    shape: str
    size: int
    orthonormal: OrthonormalityCheck
    rank: int
    complete: bool
    predicates: tuple[PredicateReport, ...]
    caveats: tuple[str, ...] = field(default=CAVEATS)


def full_report(
    basis: LabeledBasis,
    preds: Sequence[Predicate],
    cfg: Optional[SearchConfig] = None,
) -> BasisReport:
    """Orthonormality, completeness, per-vector entanglement, and searches.

    Searches are skipped (reported as None) when the vectors are linearly
    dependent, since the complement is then ill-defined as "everything
    orthogonal to a basis of the span they were claimed to be".
    """
    ortho = check_orthonormal(basis)
    rank, complete = check_completeness(basis)
    independent = rank == len(basis)
    reports = []
    for pred in preds:
        per_vector = []
        all_ok = True
        for lab, ket in zip(basis.labels, basis.kets):
            chk = is_maximally_entangled(ket, pred)
            per_vector.append((lab, chk.max_residual))
            all_ok = all_ok and chk.ok
        search = unextendibility_search(basis, pred, cfg) if independent else None
        reports.append(
            PredicateReport(
                predicate=pred,
                label=predicate_label(pred),
                per_vector=tuple(per_vector),
                all_ok=all_ok,
                search=search,
            )
        )
    return BasisReport(
        name=basis.name,
        shape=str(basis.shape),
        size=len(basis),
        orthonormal=ortho,
        rank=rank,
        complete=complete,
        predicates=tuple(reports),
    )
