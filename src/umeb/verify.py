"""Checks and certificates for labeled bases.

The centerpiece is :func:`unextendibility_search`: a multi-start projected
gradient descent that minimizes an entanglement defect over the unit
sphere of the orthogonal complement of a basis.  A minimum bounded away
from zero certifies (numerically) that no state of the required
entanglement class survives in the complement, i.e. the basis cannot be
extended; a minimum at zero produces the extending state as a witness.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .constructions import LabeledBasis
from .entanglement import (
    Predicate,
    _check_tol,
    coords_to_ket,
    defect_coords_batch,
    defect_gradient,
    predicate_cuts,
)
from .hilbert import Ket, gram_matrix, numerical_rank


class OrthonormalityCheck(NamedTuple):
    ok: bool
    residual: float


class CompletenessCheck(NamedTuple):
    rank: int
    complete: bool


def check_orthonormal(basis: LabeledBasis) -> OrthonormalityCheck:
    """Max deviation of the Gram matrix from the identity; ok up to 1e-12."""
    g = gram_matrix(basis.kets)
    residual = float(np.max(np.abs(g - np.eye(len(basis)))))
    return OrthonormalityCheck(residual <= 1e-12, residual)


def check_completeness(basis: LabeledBasis) -> CompletenessCheck:
    """Numerical rank of the span versus the full space dimension."""
    rank = numerical_rank(basis.kets)
    return CompletenessCheck(rank, rank == basis.shape.total)


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the multi-start descent; defaults match the certificates.

    ``step`` is every row's first trial step; ``shrink`` is the
    backtracking factor applied after a trial that does not decrease the
    objective.
    """

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
        # NaN fails every comparison and inf bounds nothing: refuse both
        if not all(math.isfinite(x) and x > 0.0 for x in (self.step, self.grad_tol)):
            raise ValueError("step and grad_tol must be finite and positive")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


# Restarts one descent steps together.  Larger searches run in groups of
# this size, so memory does not grow with cfg.restarts beyond the results.
_LOCKSTEP = 32

# One trial moves a row by at most this tangent length (about 27 degrees on
# the unit sphere): every trial step is at most _MOVE_CAP / |g|.
_MOVE_CAP = 0.5

_EPS = float(np.finfo(np.float64).eps)


def minimize_on_sphere(
    value: Callable[[np.ndarray], np.ndarray],
    grad: Callable[[np.ndarray], np.ndarray],
    W0: np.ndarray,
    cfg: SearchConfig,
) -> tuple[np.ndarray, np.ndarray, list[list[float]]]:
    """Projected gradient descent on the unit sphere with Barzilai–Borwein
    steps and backtracking.

    ``W0`` is an ``(R, n)`` block of starts, one descent per row (a 1-D
    start is a block of one row).  ``value`` maps an ``(m, n)`` block of
    points to their ``(m,)`` objective values and ``grad`` to their
    ``(m, n)`` gradients; both are called on the rows still moving only,
    and ``grad`` only at accepted points.

    The rows step in lockstep, but each keeps its own step size,
    backtracking and stop test, so every row follows the rule it would
    follow alone.  A row steps along the negative tangent component ``g``
    of the gradient and renormalizes.  Its first trial step is
    ``cfg.step``; after an accepted step the next trial step is the BB2
    step ``s.y / y.y`` (Barzilai & Borwein, IMA J. Numer. Anal. 8, 1988),
    where ``s`` is the change in the row's point and ``y`` the change in
    ``g``.  Every trial step is capped at ``_MOVE_CAP / |g|``, so one trial
    moves the point by a tangent length of at most ``_MOVE_CAP``; a row
    whose ``s.y <= 0`` takes that capped step.  A trial is accepted only
    if the objective decreases; otherwise the step shrinks by
    ``cfg.shrink`` and the row tries again.

    A row stops when ``|g|`` drops below ``cfg.grad_tol``, or by step
    underflow: when no trial step is left that could show a decrease,
    because the step fell below 1e-14 or ``step * |g|^2 <= 4 eps |f|``,
    the first-order decrease being then below the rounding of ``f``.
    Every row stops after ``cfg.max_iters`` gradient evaluations.
    Returns the final points, their values, and per row the history of
    accepted values (strictly decreasing by construction).
    """
    W = np.atleast_2d(np.array(W0, dtype=np.float64))
    norms = np.linalg.norm(W, axis=1)
    if np.any(norms <= 1e-12):
        raise ValueError("start point is numerically zero")
    W /= norms[:, None]
    f = np.array(value(W), dtype=np.float64)
    histories = [[x] for x in f.tolist()]
    alpha = np.full(len(W), cfg.step)
    W_last = np.empty_like(W)  # each row's previous accepted point ...
    G_last = np.empty_like(W)  # ... and its tangent gradient there
    live = np.arange(len(W))  # rows still descending
    dot = lambda a, b: np.einsum("ij,ij->i", a, b)  # row-wise inner products
    for it in range(cfg.max_iters):
        if not live.size:
            break
        P = W[live]
        G = grad(P)
        G -= dot(G, P)[:, None] * P
        gg = dot(G, G)
        steep = gg > cfg.grad_tol**2
        if not steep.all():
            live, P, G, gg = live[steep], P[steep], G[steep], gg[steep]
        if it:  # every live row moved in the previous iteration: BB2 step
            s, y = P - W_last[live], G - G_last[live]
            sy, yy = dot(s, y), dot(y, y)
            curved = sy > 0.0
            alpha[live] = np.inf  # s.y <= 0: the capped step below
            alpha[live[curved]] = sy[curved] / yy[curved]
        alpha[live] = np.minimum(alpha[live], _MOVE_CAP / np.sqrt(gg))
        W_last[live], G_last[live] = P, G
        # below this step the decrease alpha*|g|^2 hides in the rounding of f
        least = np.maximum(1e-14, 4.0 * _EPS * np.abs(f[live]) / gg)
        moved = np.zeros(live.size, dtype=bool)
        trying = np.flatnonzero(alpha[live] >= least)  # positions in live
        while trying.size:
            rows = live[trying]
            cand = W[rows] - alpha[rows][:, None] * G[trying]
            cand /= np.sqrt(dot(cand, cand))[:, None]
            fc = np.asarray(value(cand))
            better = fc < f[rows]
            won, fwon = rows[better], fc[better]
            W[won], f[won] = cand[better], fwon
            for r, x in zip(won.tolist(), fwon.tolist()):
                histories[r].append(x)
            moved[trying[better]] = True
            alpha[rows[~better]] *= cfg.shrink
            trying = trying[~better]
            trying = trying[alpha[live[trying]] >= least[trying]]
        live = live[moved]
    return W, f, histories


@functools.lru_cache(maxsize=8)
def _starts(seed: int, first: int, count: int, ncoord: int) -> np.ndarray:
    """Read-only start rows of restarts ``first`` to ``first + count - 1``:
    restart ``r`` draws ``default_rng((seed, r)).standard_normal(ncoord)``.
    Cached, so searches in one process with the same seed and complement
    dimension build their starts once."""
    W0 = np.array([np.random.default_rng((seed, r)).standard_normal(ncoord) for r in range(first, first + count)])
    W0.flags.writeable = False
    return W0


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

    Takes the complement's orthonormal frame from the basis, which
    computes it once (:attr:`LabeledBasis.complement`): repeated searches
    on one basis object reuse it and the kernel's pair tensor.  Then runs
    ``cfg.restarts`` independent descents from seeded random starts.  The
    restarts step in lockstep, up to 32 at a time, as the rows of one
    :func:`minimize_on_sphere` block; each row still follows its own
    descent.  Restart ``r`` draws its start from
    ``default_rng((cfg.seed, r))``, so results are reproducible run to
    run.  Among restarts tying for the minimum (within a relative 1e-12)
    the lowest restart index supplies the argmin, so the argmin's defect is
    ``min_defect`` to rounding.  ``witness_tol`` must be finite and
    nonnegative.
    """
    _check_tol("witness_tol", witness_tol)
    if cfg is None:
        cfg = SearchConfig()
    predicate_cuts(pred, basis.shape)  # validate predicate/shape pairing early
    frame = basis.complement
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
        W0 = _starts(cfg.seed, first, min(_LOCKSTEP, cfg.restarts - first), ncoord)
        W, f, _ = minimize_on_sphere(value, grad, W0, cfg)
        finals_w.append(W)
        finals_f.extend(float(x) for x in f)
    fmin = min(finals_f)
    best = next(r for r, f in enumerate(finals_f) if f <= fmin * (1.0 + 1e-12))
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
    """All |<a_i|b_j>| magnitudes and the unbiasedness verdict.

    ``tol`` must be finite and nonnegative.
    """
    _check_tol("tol", tol)
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
