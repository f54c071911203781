"""Schmidt analysis and maximal-entanglement predicates.

Three notions of "maximally entangled" coexist here, because they genuinely
differ once the local dimensions are unequal:

* :class:`Strict` -- the reduced state equals I/dim(H_A) on every
  bipartition.  In 2x3x3 no state satisfies this (a rank-2 coefficient
  matrix cannot produce I/3), so verdicts under it are uniformly negative
  there; they are still reported.
* :class:`GhzType` -- on every bipartition the reduced state has exactly
  ``d`` nonzero eigenvalues, all equal to 1/d.  The GHZ state satisfies
  this with d=2 in 2x2x2, and so do the lifted 2x3x3 bases.
* :class:`CutRestricted` -- Schmidt coefficients across one designated
  bipartition all equal 1/sqrt(d); the other cuts are ignored.

Each predicate has a smooth nonnegative defect that vanishes exactly on
its satisfying set; the defect is what the unextendibility search
minimizes over complement subspaces.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .hilbert import (
    Bipartition,
    Ket,
    Operator,
    all_bipartitions,
    hermitian_eigenvalues,
    stack_amps,
)


@dataclass(frozen=True)
class Strict:
    """Reduced state exactly I/dim(H_A) on every bipartition."""


@dataclass(frozen=True)
class GhzType:
    """Every bipartition's reduced spectrum is d copies of 1/d (plus zeros)."""

    d: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"GhzType needs d >= 2, got {self.d}")


@dataclass(frozen=True)
class CutRestricted:
    """Schmidt coefficients across one designated cut all equal 1/sqrt(d)."""

    cut: Bipartition
    d: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"CutRestricted needs d >= 2, got {self.d}")


Predicate = Union[Strict, GhzType, CutRestricted]


def predicate_label(pred: Predicate) -> str:
    """Short display name: ``strict``, ``ghz2``, ``cut1``, ..."""
    if isinstance(pred, Strict):
        return "strict"
    if isinstance(pred, GhzType):
        return f"ghz{pred.d}"
    if isinstance(pred, CutRestricted):
        return "cut" + "+".join(str(s + 1) for s in pred.cut.sites)
    raise TypeError(f"unknown predicate {pred!r}")


def predicate_cuts(pred: Predicate, shape) -> list[Bipartition]:
    """Bipartitions a predicate evaluates on a given shape."""
    if isinstance(pred, CutRestricted):
        if pred.cut.shape != shape:
            raise ValueError(f"predicate cut is over {pred.cut.shape}, state is over {shape}")
        _check_d(pred.d, shape)
        return [pred.cut]
    if isinstance(pred, (Strict, GhzType)):
        if isinstance(pred, GhzType):
            _check_d(pred.d, shape)
        cuts = all_bipartitions(shape)
        if not cuts:
            raise ValueError("predicate needs at least two subsystems")
        return cuts
    raise TypeError(f"unknown predicate {pred!r}")


def _check_d(d: int, shape) -> None:
    if d > min(shape.dims):
        raise ValueError(
            f"predicate parameter d={d} exceeds the smallest subsystem dimension "
            f"of {shape}"
        )


@dataclass(frozen=True, eq=False)
class SchmidtSpectrum:
    """Descending Schmidt coefficients of a state across one cut."""

    coefficients: np.ndarray
    cut: Bipartition


@dataclass(frozen=True, eq=False)
class EntanglementCheck:
    """Verdict of :func:`is_maximally_entangled` with per-cut residuals."""

    ok: bool
    residuals: tuple[tuple[Bipartition, float], ...]

    @property
    def max_residual(self) -> float:
        return max(r for _, r in self.residuals)


def _small_side(cut: Bipartition) -> Bipartition:
    if cut.dim_a <= cut.dim_b:
        return cut
    return Bipartition(cut.shape, cut.other_sites)


def _check_unit(v: Ket) -> None:
    if not v.is_unit(1e-10):
        raise ValueError(f"ket is not normalized (norm {v.norm():.6g})")


def _reduced_state(v: Ket, cut: Bipartition) -> np.ndarray:
    """Reduced state of a unit ket on ``cut.sites``, from a one-row block."""
    if cut.shape != v.shape:
        raise ValueError(f"cut is over {cut.shape}, ket is over {v.shape}")
    _check_unit(v)
    ((_, _, rho),) = _cut_blocks(v.amps[None, :], v.shape, (_cut_step(cut),))
    return rho[0]


def _schmidt(rho: np.ndarray) -> np.ndarray:
    """Descending Schmidt coefficients from a reduced state."""
    return np.sqrt(np.clip(hermitian_eigenvalues(Operator(rho)), 0.0, None))


def _residual(rho: np.ndarray, pred: Predicate) -> float:
    """:func:`cut_residual` from the reduced state (small side for CutRestricted)."""
    da = rho.shape[0]
    if isinstance(pred, Strict):
        return float(np.linalg.norm(rho - np.eye(da) / da))
    if isinstance(pred, GhzType):
        spec, level = hermitian_eigenvalues(Operator(rho)), 1.0 / pred.d
    else:
        spec, level = _schmidt(rho), 1.0 / np.sqrt(pred.d)
    target = np.zeros(da)
    target[: pred.d] = level
    return float(np.linalg.norm(spec - target))


def schmidt_coefficients(v: Ket, cut: Bipartition) -> SchmidtSpectrum:
    """Schmidt coefficients of a unit ket across a cut, descending.

    Square roots of the reduced-state eigenvalues, computed on whichever
    side of the cut is smaller (the nonzero spectrum is the same on both).
    """
    return SchmidtSpectrum(_schmidt(_reduced_state(v, _small_side(cut))), cut)


def cut_residual(v: Ket, cut: Bipartition, pred: Predicate) -> float:
    """Distance of one cut's reduced state from the predicate's target.

    Strict: Frobenius norm of rho_A - I/dim(H_A).  GhzType(d): 2-norm
    distance of the sorted spectrum from (1/d, ..., 1/d, 0, ...).
    CutRestricted(d): 2-norm distance of the Schmidt coefficients, read on
    the smaller side, from (1/sqrt(d), ..., 1/sqrt(d), 0, ...).  The
    predicate must fit the ket's shape, as in :func:`predicate_cuts`.
    """
    predicate_cuts(pred, v.shape)
    if isinstance(pred, CutRestricted):
        cut = _small_side(cut)
    return _residual(_reduced_state(v, cut), pred)


def is_maximally_entangled(v: Ket, pred: Predicate, tol: float = 1e-8) -> EntanglementCheck:
    """Evaluate a maximal-entanglement predicate on a unit ket, per cut."""
    _check_unit(v)
    cuts = predicate_cuts(pred, v.shape)
    blocks = _cut_blocks(v.amps[None, :], v.shape, _cut_plan(pred, v.shape))
    residuals = tuple((cut, _residual(rho[0], pred)) for cut, (_, _, rho) in zip(cuts, blocks))
    return EntanglementCheck(ok=all(r < tol for _, r in residuals), residuals=residuals)


def defect(v: Ket, pred: Predicate) -> float:
    """Smooth nonnegative defect; zero exactly on the predicate's states.

    Strict sums ``||rho_A - I/N_A||_F^2`` over all cuts.  GhzType(d) sums
    the polynomial surrogate ``||rho_A^2 - rho_A/d||_F^2``, which vanishes
    iff every cut spectrum lies in {0, 1/d} (and the unit trace then forces
    exactly d nonzero values); unlike the sorted-spectrum residual it is
    differentiable everywhere, which is what the optimizer needs.
    CutRestricted(d) penalizes the squared Schmidt coefficients mu_i:
    sum of (mu_i - 1/d)^2 over the top d plus sum of mu_i^2 over the rest.
    Evaluated by the kernel of :func:`defect_coords_batch`, as a block of
    one row.
    """
    _check_unit(v)
    return float(_defect_block(v.amps[None, :], pred, v.shape, _cut_plan(pred, v.shape))[0])


# --- coordinate form used by the unextendibility search ------------------
#
# A point of the complement is encoded as 2c real coordinates w, pairs of
# (real, imag) parts of the expansion coefficients in an orthonormal frame.
# The objective normalizes the encoded vector, so it is invariant under
# scaling of w and under a global phase.


def coords_to_ket(w: np.ndarray, frame: Sequence[Ket]) -> Ket:
    """Decode coordinates into the normalized ket they represent."""
    _, psi, _ = next(_coord_blocks(_coord_rows(np.ravel(w), frame), stack_amps(frame)))
    return Ket(frame[0].shape, psi[0])


# Complex amplitudes per kernel block.  Each block of rows builds its state
# vectors, regrouped coefficient matrices and reduced states, so this bounds
# the kernel's temporaries to a few hundred kilobytes whatever the batch size.
_BLOCK_AMPS = 4096


def _cut_step(cut: Bipartition) -> tuple[tuple[int, ...], int, int]:
    """One cut's transpose permutation and (dim_a, dim_b).

    The permutation acts on a batch of state tensors (axis 0 is the row) and
    brings ``cut.sites`` to the front.
    """
    return (0,) + tuple(s + 1 for s in cut.sites + cut.other_sites), cut.dim_a, cut.dim_b


@functools.lru_cache(maxsize=64)
def _cut_plan(pred: Predicate, shape) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """:func:`_cut_step` per cut the predicate reads.

    CutRestricted reads its cut from the smaller side.  Computed once per
    (predicate, shape); immutable.
    """
    cuts = predicate_cuts(pred, shape)
    if isinstance(pred, CutRestricted):
        cuts = [_small_side(cuts[0])]
    return tuple(_cut_step(cut) for cut in cuts)


def defect_coords_batch(W: np.ndarray, pred: Predicate, frame: Sequence[Ket]) -> np.ndarray:
    """Defect of many coordinate vectors at once (rows of ``W``).

    :func:`defect` on the coordinate encoding, one row per vector; the
    search calls this in batches for objective values, and
    :func:`defect_gradient` for its probes when given a finite-difference
    ``step``.  Rows are evaluated in blocks of ``_BLOCK_AMPS //
    shape.total`` rows, so the temporaries stay bounded for any batch
    size; every row must encode a vector of norm above 1e-6.  For
    CutRestricted the batched spectra come from LAPACK ``eigvalsh``.
    """
    W = _coord_rows(W, frame)
    shape = frame[0].shape
    plan = _cut_plan(pred, shape)
    out = np.empty(W.shape[0])
    for rows, psi, _ in _coord_blocks(W, stack_amps(frame)):
        out[rows] = _defect_block(psi, pred, shape, plan)
    return out


def _coord_rows(W: np.ndarray, frame: Sequence[Ket]) -> np.ndarray:
    W = np.atleast_2d(np.asarray(W, dtype=np.float64))
    if W.ndim != 2 or W.shape[1] != 2 * len(frame):
        raise ValueError(f"expected {2 * len(frame)} coordinates per row, got shape {W.shape}")
    return W


def _coord_blocks(W: np.ndarray, amps: np.ndarray):
    """Yield ``(rows, psi, norms)`` per kernel block of coordinate rows.

    ``rows`` slices ``W``; ``psi`` holds the unit state vectors the rows
    encode in the frame ``amps`` and ``norms`` their norms before
    normalization.  Raises on a row encoding a near-zero vector.
    """
    block = max(1, _BLOCK_AMPS // amps.shape[1])
    for start in range(0, W.shape[0], block):
        rows = slice(start, start + block)
        vecs = (W[rows, 0::2] + 1j * W[rows, 1::2]) @ amps
        norms = np.linalg.norm(vecs, axis=1)
        if np.any(norms <= 1e-6):
            raise ValueError("coordinates encode a near-zero vector")
        yield rows, vecs / norms[:, None], norms


def _cut_blocks(psi: np.ndarray, shape, plan):
    """Yield ``(perm, m, rho)`` per cut of a :func:`_cut_plan`.

    ``m`` is the block's coefficient matrices across the cut, taken from
    the state tensors transposed by ``perm``, and ``rho = m m^dagger`` the
    reduced states on the cut's first side.
    """
    n = psi.shape[0]
    t = psi.reshape((n,) + shape.dims)
    for perm, da, db in plan:
        m = np.transpose(t, perm).reshape(n, da, db)
        yield perm, m, m @ m.conj().transpose(0, 2, 1)


def _defect_block(psi: np.ndarray, pred: Predicate, shape, plan) -> np.ndarray:
    """Defects of one block of unit state vectors."""
    out = np.zeros(psi.shape[0])
    for _, _, rho in _cut_blocks(psi, shape, plan):
        if isinstance(pred, CutRestricted):
            mu = np.linalg.eigvalsh(rho)[:, ::-1]
            top, rest = mu[:, : pred.d], mu[:, pred.d :]
            return np.sum((top - 1.0 / pred.d) ** 2, axis=1) + np.sum(rest**2, axis=1)
        if isinstance(pred, Strict):
            x = rho - np.eye(rho.shape[1]) / rho.shape[1]
        else:
            x = rho @ rho - rho / pred.d
        out += np.sum(np.abs(x) ** 2, axis=(1, 2))
    return out


def _gradient_block(psi: np.ndarray, pred: Predicate, shape, plan) -> np.ndarray:
    """Gradient of the defect at one block of unit state vectors.

    Per cut, ``G = df/drho`` is Hermitian and ``df = Re tr(G drho)``; with
    ``rho = m m^dagger`` that is ``Re <2 G m, dm>``, so ``2 G m`` is the
    gradient in ``m`` (real and imaginary parts as one complex array).  It
    is added back into state-vector order through the cut's transposed
    view.  The radial component is removed, leaving the gradient of the
    defect in the tangent space of the unit sphere at ``psi``.
    """
    n = psi.shape[0]
    h = np.zeros((n,) + shape.dims, dtype=np.complex128)
    for perm, m, rho in _cut_blocks(psi, shape, plan):
        da = rho.shape[1]
        if isinstance(pred, CutRestricted) and pred.d < da:
            mu, u = np.linalg.eigh(rho)  # ascending, so the 1/d targets come last
            target = np.zeros(da)
            target[da - pred.d :] = 1.0 / pred.d
            g = (u * (2.0 * (mu - target))[:, None, :]) @ u.conj().transpose(0, 2, 1)
        elif isinstance(pred, GhzType):
            x = rho @ rho - rho / pred.d
            g = 2.0 * (x @ rho + rho @ x - x / pred.d)
        else:  # Strict, or CutRestricted with d = da: 2 (rho - I/d)
            g = 2.0 * (rho - np.eye(da) / da)
        hp = np.transpose(h, perm)
        hp += (2.0 * (g @ m)).reshape(hp.shape)
    h = h.reshape(n, -1)
    radial = np.sum((psi.conj() * h).real, axis=1)
    return h - radial[:, None] * psi


def defect_gradient(
    W: np.ndarray,
    pred: Predicate,
    frame: Sequence[Ket],
    step: Optional[float] = None,
) -> np.ndarray:
    """Gradient of the coordinate-form defect.

    ``W`` is one coordinate vector or an ``(m, 2c)`` block of them; the
    result has the same shape, one gradient per row.  Every row must
    encode a unit ket within 1e-8.

    By default the gradient is exact, in closed form: one kernel
    evaluation per row (see :func:`_gradient_block`), then the chain rule
    through the normalization ``psi = v / |v|`` and the frame ``v = z @
    amps``.  The objective renormalizes, so radial (scale) and
    global-phase directions carry no gradient.

    With a ``step``, the gradient is taken by central finite differences
    instead: all 2 * 2c probes of all rows go to
    :func:`defect_coords_batch` in one call.  This is the reference the
    closed form is tested against.
    """
    w = np.asarray(W, dtype=np.float64)
    W = _coord_rows(w, frame)
    m, n = W.shape
    if np.any(np.abs(np.linalg.norm(W, axis=1) - 1.0) > 1e-8):
        raise ValueError("coordinate vectors must encode unit kets (norm within 1e-8 of 1)")
    if step is None:
        shape = frame[0].shape
        plan = _cut_plan(pred, shape)
        amps = stack_amps(frame)
        grads = np.empty_like(W)
        for rows, psi, norms in _coord_blocks(W, amps):
            gz = (_gradient_block(psi, pred, shape, plan) / norms[:, None]) @ amps.conj().T
            grads[rows, 0::2] = gz.real
            grads[rows, 1::2] = gz.imag
    else:
        eye = np.eye(n) * step
        probes = np.concatenate([W[:, None, :] + eye, W[:, None, :] - eye], axis=1)
        vals = defect_coords_batch(probes.reshape(2 * m * n, n), pred, frame).reshape(m, 2 * n)
        grads = (vals[:, :n] - vals[:, n:]) / (2.0 * step)
    return grads if w.ndim == 2 else grads[0]
