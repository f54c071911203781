"""Schmidt analysis and maximal-entanglement predicates.

Three notions of "maximally entangled" coexist here, because they genuinely
differ once the local dimensions are unequal:

* :class:`Strict` -- the reduced state equals I/dim(H_A) on every
  bipartition.  The lifted 2x3x3 family vectors miss it on the two
  3-dimensional cuts (their coefficient matrices have rank 2 there), but
  other 2x3x3 states meet it, e.g. (|0>Phi_0 + |1>Phi_1)/sqrt(2) with
  Phi_k = sum_j |j, j+k mod 3>/sqrt(3).
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
        small = min(pred.cut.dim_a, pred.cut.dim_b)
        if pred.d > small:
            raise ValueError(f"parameter d={pred.d} exceeds the cut's smaller side, {small}")
        return [pred.cut]
    if isinstance(pred, (Strict, GhzType)):
        if isinstance(pred, GhzType) and pred.d > min(shape.dims):
            raise ValueError(
                f"predicate parameter d={pred.d} exceeds the smallest subsystem "
                f"dimension of {shape}"
            )
        cuts = all_bipartitions(shape)
        if not cuts:
            raise ValueError("predicate needs at least two subsystems")
        return cuts
    raise TypeError(f"unknown predicate {pred!r}")


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


def _schmidt(rho: np.ndarray) -> np.ndarray:
    """Descending Schmidt coefficients from a reduced state."""
    return np.sqrt(np.clip(hermitian_eigenvalues(rho), 0.0, None))


def _residual(rho: np.ndarray, pred: Predicate) -> float:
    """One cut's residual from its reduced state (small side for CutRestricted)."""
    da = rho.shape[0]
    if isinstance(pred, Strict):
        return float(np.linalg.norm(rho - np.eye(da) / da))
    if isinstance(pred, GhzType):
        spec, level = hermitian_eigenvalues(rho), 1.0 / pred.d
    else:
        spec, level = _schmidt(rho), 1.0 / np.sqrt(pred.d)
    target = np.zeros(da)
    target[: pred.d] = level
    return float(np.linalg.norm(spec - target))


def schmidt_coefficients(v: Ket, cut: Bipartition) -> np.ndarray:
    """Schmidt coefficients of a unit ket across a cut, descending.

    Square roots of the reduced-state eigenvalues, computed on whichever
    side of the cut is smaller (the nonzero spectrum is the same on both),
    from a one-row kernel block.
    """
    if cut.shape != v.shape:
        raise ValueError(f"cut is over {cut.shape}, ket is over {v.shape}")
    _check_unit(v)
    ((_, _, rho),) = _cut_blocks(v.amps[:, None], v.shape, (_cut_step(_small_side(cut)),))
    return _schmidt(rho[..., 0])


def is_maximally_entangled(v: Ket, pred: Predicate, tol: float = 1e-8) -> EntanglementCheck:
    """Evaluate a maximal-entanglement predicate on a unit ket, per cut.

    Each cut's residual is its distance from the predicate's target.
    Strict: Frobenius norm of rho_A - I/dim(H_A).  GhzType(d): 2-norm
    distance of the sorted spectrum from (1/d, ..., 1/d, 0, ...).
    CutRestricted(d): 2-norm distance of the Schmidt coefficients, read on
    the smaller side, from (1/sqrt(d), ..., 1/sqrt(d), 0, ...).
    """
    _check_unit(v)
    cuts = predicate_cuts(pred, v.shape)
    blocks = _cut_blocks(v.amps[:, None], v.shape, _cut_plan(pred, v.shape))
    residuals = tuple((cut, _residual(rho[..., 0], pred)) for cut, (_, _, rho) in zip(cuts, blocks))
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
    Evaluated by the state path of the :func:`defect_coords_batch` kernel,
    as a block of one row.
    """
    _check_unit(v)
    cuts = _cut_blocks(v.amps[:, None], v.shape, _cut_plan(pred, v.shape))
    return float(_rho_defect([rho for _, _, rho in cuts], pred)[0])


# --- coordinate form used by the unextendibility search ------------------
#
# A point of the complement is encoded as 2c real coordinates w, pairs of
# (real, imag) parts of the expansion coefficients z in an orthonormal
# frame.  The objective normalizes the encoded vector, so it is invariant
# under scaling of w and under a global phase.
#
# The kernel forms the reduced states of a block of rows in one of two ways
# (see _rho_blocks and README.md) and shares the steps from rho to the
# defect and to dF/drho.  Every per-row array keeps the row axis last and
# contiguous, so that _mm can contract tiny matrices by broadcasting, one
# contiguous loop over the rows per numpy call, where a stacked matmul
# pays about half a microsecond per row.


def coords_to_ket(w: np.ndarray, frame: Sequence[Ket]) -> Ket:
    """Decode coordinates into the normalized ket they represent."""
    v = stack_amps(frame).T @ _z_block(_coord_rows(np.ravel(w), frame), slice(0, 1))
    return Ket(frame[0].shape, v[:, 0] * np.sqrt(_inverse_norm2(np.vdot(v, v).real)))


# Complex amplitudes per state-path block.  Each block of rows builds its
# state vectors, regrouped coefficient matrices and reduced states, so this
# bounds the kernel's temporaries whatever the batch size; the largest, the
# broadcast product m m^dagger, holds d_A times this many entries.
_BLOCK_AMPS = 16384
# Largest c^2 K that takes the pair path; see the crossover table in README.md.
_PAIR_MAX = 4096
# Complex entries of the widest per-row array, z (x) conj(z) or the reduced
# states, per pair-path block.
_PAIR_BUDGET = 32768


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row products of ``(i, k, rows)`` and ``(k, j, rows)`` stacks, as a
    C-contiguous ``(i, j, rows)`` stack, by broadcasting and summing over k."""
    return (a[:, :, None, :] * b[None, :, :, :]).sum(axis=1)


def _diag(a: np.ndarray) -> np.ndarray:
    """Writable ``(d, rows)`` view of the diagonals of a C-contiguous
    ``(d, d, rows)`` stack."""
    return a.reshape(-1, a.shape[2])[:: a.shape[0] + 1]


def _rdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``Re sum_ij a_ij conj(b_ij)`` per row of C-contiguous ``(i, j, rows)``
    stacks: one real dot product over their float views."""
    s = np.einsum("ijk,ijk->k", a.view(np.float64), b.view(np.float64))
    return s[0::2] + s[1::2]


def _cut_step(cut: Bipartition) -> tuple[tuple[int, ...], int, int]:
    """One cut's transpose permutation and (dim_a, dim_b).

    The permutation acts on a batch of state tensors whose last axis is the
    row; it brings ``cut.sites`` to the front and keeps the row axis last.
    """
    return cut.sites + cut.other_sites + (cut.shape.nsys,), cut.dim_a, cut.dim_b


@functools.lru_cache(maxsize=64)
def _cut_plan(pred: Predicate, shape) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """:func:`_cut_step` per cut the predicate reads, CutRestricted's from
    the smaller side; cached per (predicate, shape) and immutable."""
    cuts = predicate_cuts(pred, shape)
    if isinstance(pred, CutRestricted):
        cuts = [_small_side(cuts[0])]
    return tuple(_cut_step(cut) for cut in cuts)


def defect_coords_batch(W: np.ndarray, pred: Predicate, frame: Sequence[Ket]) -> np.ndarray:
    """Defect of many coordinate vectors at once (rows of ``W``).

    :func:`defect` on the coordinate encoding, one row per vector.  Rows
    are evaluated in blocks of bounded size (see :func:`_kernel_path`), so
    the temporaries stay bounded for any batch size; every row must encode
    a vector of norm above 1e-6.  For CutRestricted with d below the small
    side's dimension the batched spectra come from LAPACK ``eigvalsh``.
    """
    W = _coord_rows(W, frame)
    out = np.empty(W.shape[0])
    for rows, rhos, _, _ in _rho_blocks(W, pred, frame):
        out[rows] = _rho_defect(rhos, pred)
    return out


def _coord_rows(W: np.ndarray, frame: Sequence[Ket]) -> np.ndarray:
    W = np.atleast_2d(np.ascontiguousarray(W, dtype=np.float64))
    if W.ndim != 2 or W.shape[1] != 2 * len(frame):
        raise ValueError(f"expected {2 * len(frame)} coordinates per row, got shape {W.shape}")
    return W


def _z_block(W: np.ndarray, rows: slice) -> np.ndarray:
    """The complex coordinates of ``W[rows]``, rows last: shape ``(c, rows)``."""
    return np.ascontiguousarray(W[rows].view(np.complex128).T)


def _inverse_norm2(vv):
    """``1 / |v|^2`` from ``|v|^2``; raises on a row encoding a near-zero vector."""
    if np.any(vv <= 1e-12):
        raise ValueError("coordinates encode a near-zero vector")
    return 1.0 / vv


def _kernel_path(pred: Predicate, frame: Sequence[Ket]) -> tuple[bool, int]:
    """Whether ``frame`` takes the pair path for ``pred``, and the rows per
    kernel block on the path it takes."""
    plan = _cut_plan(pred, frame[0].shape)
    c, k = len(frame), sum(da * da for _, da, _ in plan)
    if c * c * k <= _PAIR_MAX:
        return True, max(1, _PAIR_BUDGET // max(c * c, k))
    return False, max(1, _BLOCK_AMPS // frame[0].shape.total)


def _rho_blocks(W: np.ndarray, pred: Predicate, frame: Sequence[Ket]):
    """Yield ``(rows, rhos, inv, pull)`` per kernel block of coordinate rows.

    ``rows`` slices ``W``; per cut of the predicate's :func:`_cut_plan`,
    ``rhos`` holds the ``(d_A, d_A, rows)`` states ``rho~`` of ``v = z @
    amps`` times ``inv = 1 / |v|^2``, the inverse trace of the first cut's
    (which holds for any frame, orthonormal or not).  ``pull`` maps one
    :func:`_rho_gradient` ``G`` per cut to ``|v|^2 / 2`` times the ``(c,
    rows)`` gradient in ``z``, whose real and imaginary parts are the
    gradient in ``w``.  Raises on a row encoding a near-zero vector.  The
    pair path reads every cut's ``rho~`` off one product ``T^T @ (z (x)
    conj z)``, shape ``(K, rows)``; the state path restacks the frame on
    every call, so that no cache pins a large frame.
    """
    shape, c = frame[0].shape, len(frame)
    plan = _cut_plan(pred, shape)
    pair, block = _kernel_path(pred, frame)
    if pair:
        Tt = _pair_tensor(plan, tuple(frame))
        ends = np.cumsum([da * da for _, da, _ in plan])
    else:
        amps = stack_amps(frame)
    for start in range(0, W.shape[0], block):
        rows = slice(start, start + block)
        z = _z_block(W, rows)
        if pair:
            r = Tt @ (z[:, None, :] * z.conj()[None, :, :]).reshape(c * c, -1)
            rhos = [r[e - da * da : e].reshape(da, da, -1) for e, (_, da, _) in zip(ends, plan)]
            pull = functools.partial(_pair_pull, Tt.T, z)
        else:
            cuts = list(_cut_blocks(amps.T @ z, shape, plan))
            rhos = [rho for _, _, rho in cuts]
            pull = functools.partial(_state_pull, cuts, amps, shape)
        inv = _inverse_norm2(_diag(rhos[0]).real.sum(axis=0))
        for rho in rhos:
            rho *= inv
        yield rows, rhos, inv, pull


@functools.lru_cache(maxsize=32)
def _pair_tensor(plan, frame: tuple[Ket, ...]) -> np.ndarray:
    """The transposed pair tensor ``T^T`` of a frame, C-contiguous, shape ``(K, c^2)``.

    Row ``a c + b`` of ``T`` holds ``A_a A_b^dagger`` for every cut of
    ``plan``, flattened row-major and concatenated in plan order.  Cached
    per (plan, frame): :class:`Ket` is frozen, its amplitudes are read-only
    and it hashes by identity.
    """
    cuts = _cut_blocks(stack_amps(frame).T, frame[0].shape, plan)  # m[:, :, a] is A_a
    ts = (np.einsum("ika,jkb->ijab", m, m.conj()) for _, m, _ in cuts)
    Tt = np.concatenate([t.reshape(-1, len(frame) ** 2) for t in ts])
    Tt.setflags(write=False)
    return Tt


def _pair_pull(T: np.ndarray, z: np.ndarray, gs) -> np.ndarray:
    """``pull`` on the pair path.

    With ``B_ab = A_a A_b^dagger`` (row ``a c + b`` of ``T``), ``rho~ =
    sum_ab z_a conj(z_b) B_ab`` and ``df = Re tr(G drho~) / |v|^2``
    (``G`` is traceless against rho), so with ``Q_ab = tr(G B_ab)``, one
    product ``T @ conj(G)``, the gradient is ``2 sum_a z_a Q_ab / |v|^2``.
    """
    c, n = z.shape
    q = T @ np.concatenate([g.reshape(-1, n) for g in gs]).conj()
    return (z[:, None, :] * q.reshape(c, c, n)).sum(axis=0)


def _state_pull(cuts, amps: np.ndarray, shape, gs) -> np.ndarray:
    """``pull`` on the state path.

    With ``rho~ = m m^dagger``, ``df = Re tr(G drho~) / |v|^2 = Re <2 G m,
    dm> / |v|^2``; ``G m`` is added back into state-vector order through
    each cut's transposed view, then taken through ``v = z @ amps``.
    """
    n = cuts[0][1].shape[2]
    h = np.zeros(shape.dims + (n,), dtype=np.complex128)
    for (perm, m, _), g in zip(cuts, gs):
        hp = np.transpose(h, perm)
        hp += _mm(g, m).reshape(hp.shape)
    return amps.conj() @ h.reshape(-1, n)


def _cut_blocks(psi: np.ndarray, shape, plan):
    """Yield ``(perm, m, rho)`` per cut of a :func:`_cut_plan`.

    ``m`` is the block's ``(d_A, d_B, rows)`` coefficient matrices across
    the cut, taken from the ``(total, rows)`` states transposed by
    ``perm``, and ``rho = m m^dagger`` the states on the cut's first side.
    """
    n = psi.shape[1]
    t = psi.reshape(shape.dims + (n,))
    for perm, da, db in plan:
        m = np.transpose(t, perm).reshape(da, db, n)
        yield perm, m, _mm(m, m.conj().transpose(1, 0, 2))


def _rho_defect(rhos, pred: Predicate) -> np.ndarray:
    """Defects from each cut's reduced states (one ``(d_A, d_A, n)`` array per cut)."""
    out = np.zeros(rhos[0].shape[2])
    for rho in rhos:
        da = rho.shape[0]
        if isinstance(pred, CutRestricted) and pred.d < da:
            mu = np.linalg.eigvalsh(rho.transpose(2, 0, 1))[:, ::-1]
            top, rest = mu[:, : pred.d], mu[:, pred.d :]
            out += np.sum((top - 1.0 / pred.d) ** 2, axis=1) + np.sum(rest**2, axis=1)
            continue
        if isinstance(pred, GhzType):  # X = rho^2 - rho/d
            x = _mm(rho, rho)
            x -= (1.0 / pred.d) * rho
        else:  # Strict, or CutRestricted with d = da: sum_i (mu_i - 1/d)^2 = ||rho - I/d||^2
            x = rho.copy()
            _diag(x)[...] -= 1.0 / da
        out += _rdot(x, x)
    return out


def _rho_gradient(rho: np.ndarray, pred: Predicate) -> np.ndarray:
    """``G = df/drho - Re tr(rho df/drho) I`` for one cut's reduced states.

    ``df/drho`` is Hermitian, with ``df = Re tr(df/drho drho)``.  Both
    paths normalize, ``rho = rho~ / tr rho~``, and ``tr drho~`` is the same
    on every cut, so ``df = sum over cuts of Re tr(G drho~) / tr rho~``:
    subtracting the trace term is the chain rule through the normalization.
    For GhzType, ``rho X`` is taken as ``(X rho)^dagger``, since both are
    Hermitian.
    """
    da = rho.shape[0]
    if isinstance(pred, CutRestricted) and pred.d < da:
        mu, u = np.linalg.eigh(rho.transpose(2, 0, 1))  # ascending, so the 1/d targets come last
        target = np.zeros(da)
        target[da - pred.d :] = 1.0 / pred.d
        g = (u * (2.0 * (mu - target))[:, None, :]) @ u.conj().transpose(0, 2, 1)
        g = np.ascontiguousarray(g.transpose(1, 2, 0))
    elif isinstance(pred, GhzType):
        x = _mm(rho, rho)
        x -= (1.0 / pred.d) * rho
        g = _mm(x, rho)
        g += g.conj().transpose(1, 0, 2)
        g -= (1.0 / pred.d) * x
        g *= 2.0
    else:  # Strict, or CutRestricted with d = da: 2 (rho - I/d)
        g = 2.0 * rho
        _diag(g)[...] -= 2.0 / da
    _diag(g)[...] -= _rdot(g, rho)  # Re tr(G rho), both Hermitian
    return g


def defect_gradient(
    W: np.ndarray,
    pred: Predicate,
    frame: Sequence[Ket],
    step: Optional[float] = None,
) -> np.ndarray:
    """Gradient of the coordinate-form defect.

    ``W`` is one coordinate vector or an ``(m, 2c)`` block of them, each
    encoding a unit ket within 1e-8; the result has the same shape.  By
    default the gradient is exact: per cut ``G = df/drho`` (see
    :func:`_rho_gradient`), pulled back through the normalization and the
    frame by the kernel block that formed rho (see :func:`_rho_blocks`).
    Radial (scale) and global-phase directions carry no gradient.  With a
    ``step`` it is taken by central finite differences instead, all 2 * 2c
    probes of all rows in one :func:`defect_coords_batch` call: the
    reference the closed form is tested against.
    """
    w = np.asarray(W, dtype=np.float64)
    W = _coord_rows(w, frame)
    m, n = W.shape
    if np.any(np.abs(np.linalg.norm(W, axis=1) - 1.0) > 1e-8):
        raise ValueError("coordinate vectors must encode unit kets (norm within 1e-8 of 1)")
    if step is None:
        grads = np.empty_like(W)
        for rows, rhos, inv, pull in _rho_blocks(W, pred, frame):
            gz = pull([_rho_gradient(rho, pred) for rho in rhos]) * (2.0 * inv)
            grads[rows].view(np.complex128)[...] = gz.T
    else:
        eye = np.eye(n) * step
        probes = np.concatenate([W[:, None, :] + eye, W[:, None, :] - eye], axis=1)
        vals = defect_coords_batch(probes.reshape(2 * m * n, n), pred, frame).reshape(m, 2 * n)
        grads = (vals[:, :n] - vals[:, n:]) / (2.0 * step)
    return grads if w.ndim == 2 else grads[0]
