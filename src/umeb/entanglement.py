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
* :class:`CutRestricted` -- the reduced state equals I/d on the smaller
  side of one designated bipartition, d that side's dimension; the other
  cuts are ignored.

Each predicate has a smooth nonnegative defect that vanishes exactly on
its satisfying set; the defect is what the unextendibility search
minimizes over complement subspaces.  Every defect is a polynomial in the
reduced states, of degree 2 (Strict, CutRestricted) or 4 (GhzType).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence, Union

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
    """Schmidt coefficients across one designated cut all equal 1/sqrt(d),
    where d is the dimension of the cut's smaller side."""

    cut: Bipartition
    d: int

    def __post_init__(self):
        small = min(self.cut.dim_a, self.cut.dim_b)
        if self.d != small:
            raise ValueError(f"CutRestricted needs d equal to the cut's smaller side, {small}; got d={self.d}")


Predicate = Union[Strict, GhzType, CutRestricted]


def predicate_cuts(pred: Predicate, shape) -> list[Bipartition]:
    """Bipartitions a predicate evaluates on a given shape."""
    if isinstance(pred, CutRestricted):
        if pred.cut.shape != shape:
            raise ValueError(f"predicate cut is over {pred.cut.shape}, state is over {shape}")
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


def _check_tol(name: str, tol: float) -> None:
    # a NaN tolerance fails every comparison and an infinite one passes
    # every comparison, so either would decide the verdict on its own
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"{name} must be finite and nonnegative, got {tol!r}")


def _residual(rho: np.ndarray, pred: Predicate) -> float:
    """One cut's residual from its reduced state on the cut's smaller side."""
    da = rho.shape[0]
    if not isinstance(pred, GhzType):
        return float(np.linalg.norm(rho - np.eye(da) / da))
    target = np.zeros(da)
    target[: pred.d] = 1.0 / pred.d
    return float(np.linalg.norm(hermitian_eigenvalues(rho) - target))


def schmidt_coefficients(v: Ket, cut: Bipartition) -> np.ndarray:
    """Schmidt coefficients of a unit ket across a cut, descending.

    Square roots of the reduced-state eigenvalues, computed on whichever
    side of the cut is smaller (the nonzero spectrum is the same on both),
    from a one-row kernel block.
    """
    if cut.shape != v.shape:
        raise ValueError(f"cut is over {cut.shape}, ket is over {v.shape}")
    _check_unit(v)
    return np.sqrt(np.clip(hermitian_eigenvalues(_reduced_state(v, _small_side(cut))), 0.0, None))


def is_maximally_entangled(v: Ket, pred: Predicate, tol: float = 1e-8) -> EntanglementCheck:
    """Evaluate a maximal-entanglement predicate on a unit ket, per cut.

    Each cut's residual is its distance from the predicate's target, read
    on the cut's smaller side.  Strict and CutRestricted: Frobenius norm of
    rho_A - I/dim(H_A).  GhzType(d): 2-norm distance of the sorted spectrum
    from (1/d, ..., 1/d, 0, ...).  ``tol`` must be finite and nonnegative.
    """
    _check_tol("tol", tol)
    _check_unit(v)
    cuts = predicate_cuts(pred, v.shape)
    residuals = tuple((cut, _residual(_reduced_state(v, _small_side(cut)), pred)) for cut in cuts)
    return EntanglementCheck(ok=all(r < tol for _, r in residuals), residuals=residuals)


def defect(v: Ket, pred: Predicate) -> float:
    """Smooth nonnegative defect; zero exactly on the predicate's states.

    Strict sums ``||rho_A - I/N_A||_F^2`` over all cuts, CutRestricted
    takes it on its one cut.  GhzType(d) sums the polynomial surrogate
    ``||rho_A^2 - rho_A/d||_F^2``, which vanishes iff every cut spectrum
    lies in {0, 1/d} (and the unit trace then forces exactly d nonzero
    values); unlike the sorted-spectrum residual it is differentiable
    everywhere, which is what the optimizer needs.  Evaluated by the state
    path of the :func:`defect_coords_batch` kernel, as a block of one row.
    """
    _check_unit(v)
    groups = _cut_plan(pred, v.shape)[0]
    y = _state_coords(groups, [rho for _, rho in _group_blocks(v.amps[:, None], v.shape, groups)])
    return float(_rho_defect(y, 1.0, groups, pred)[0])


# --- coordinate form used by the unextendibility search ------------------
#
# A point of the complement is encoded as 2c real coordinates w, pairs of
# (real, imag) parts of the expansion coefficients z in an orthonormal
# frame.  The objective normalizes the encoded vector, so it is invariant
# under scaling of w and under a global phase.
#
# The kernel reads each block of rows in one of two ways (see _rho_blocks
# and README.md).  On small complements one real product of the real
# Hermitian coordinates of z z^dagger gives those of Y = rho - I/d_A on
# every cut; on large ones the rows' state vectors give the reduced states,
# which each cut group converts to those coordinates.  Both paths share the
# steps from Y to the defect and to dF/drho (_rho_defect, _rho_gradient).
# Every per-row array keeps the row axis last and contiguous, so that _mm can
# contract tiny matrices by broadcasting, one contiguous loop over the rows
# per numpy call, where a stacked matmul pays about half a microsecond per
# row.


def coords_to_ket(w: np.ndarray, frame: Sequence[Ket]) -> Ket:
    """Decode coordinates into the normalized ket they represent."""
    v = stack_amps(frame).T @ _z_block(_coord_rows(np.ravel(w), frame), slice(0, 1))
    return Ket(frame[0].shape, v[:, 0] * np.sqrt(_inverse_norm2(np.vdot(v, v).real)))


# Complex amplitudes per state-path block.  Each block of rows builds its
# state vectors, regrouped coefficient matrices and reduced states, so this
# bounds the kernel's temporaries whatever the batch size; the largest, the
# broadcast product m m^dagger, holds d_A times this many entries.
_BLOCK_AMPS = 16384
# Largest c^2 K that takes the packed path; see the crossover table in README.md.
_PAIR_MAX = 8192
# Entries of the widest per-row array per packed-path block: the c^2
# coordinates, or the reduced states; see the Blocks table in README.md.
_PAIR_BUDGET = 131072
# (x, y) -> (x + y, y - x), the two factors of the packed path's coordinates
_SUM_DIFF = np.array([[1.0, 1.0], [-1.0, 1.0]])


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


def _plan(cuts: Sequence[Bipartition]):
    """The frame-free kernel plan of a list of cuts: ``(groups, K, trace)``.

    ``groups`` holds ``(perms, d_A, d_B, lo, hi)`` per set of cuts with one
    reduced-state dimension ``d_A`` (which fixes ``d_B``), in order of
    first appearance.  Each cut's permutation brings ``cut.sites`` to the
    front of a batch of state tensors and keeps the row axis last;
    ``lo:hi`` are the group's rows of the packed pair tensor, which
    run entry-major, ``(i, j, cut)``, so that the group's states form one
    ``(d_A, d_A, k rows)`` stack, cut-major along the last axis.  ``K``
    sums ``d_A^2`` over the cuts; ``trace`` slices the rows of the first
    cut's diagonal.
    """
    groups, lo = [], 0
    for da in dict.fromkeys(cut.dim_a for cut in cuts):
        same = [cut for cut in cuts if cut.dim_a == da]
        perms = tuple(cut.sites + cut.other_sites + (cut.shape.nsys,) for cut in same)
        groups.append((perms, da, same[0].dim_b, lo, lo + da * da * len(same)))
        lo += da * da * len(same)
    perms, da = groups[0][:2]
    return tuple(groups), lo, slice(0, da * da * len(perms), (da + 1) * len(perms))


@functools.lru_cache(maxsize=64)
def _cut_plan(pred: Predicate, shape):
    """:func:`_plan` of the cuts the predicate reads, each from its smaller
    side (only CutRestricted's cut may list the larger); cached per
    (predicate, shape) and immutable.  Which path a frame takes is decided
    per call, outside every cache."""
    return _plan([_small_side(cut) for cut in predicate_cuts(pred, shape)])


def defect_coords_batch(W: np.ndarray, pred: Predicate, frame: Sequence[Ket]) -> np.ndarray:
    """Defect of many coordinate vectors at once (rows of ``W``).

    :func:`defect` on the coordinate encoding, one row per vector.  Rows
    are evaluated in blocks of bounded size (see :func:`_rho_blocks`), so
    the temporaries stay bounded for any batch size; every row must encode
    a vector of norm above 1e-6.  On small complements Strict and
    CutRestricted read the defect off one real product, ``|u|^2 / t^2``
    with ``u`` the coordinates of ``rho~ - t I/d_A`` on every cut, so a
    maximally entangled row reads about 1e-31, not the 1e-16 of a
    difference of squares.
    """
    W = _coord_rows(W, frame)
    out = np.empty(W.shape[0])
    for rows, f in _rho_blocks(W, pred, frame, grad=False):
        out[rows] = f
    return out


def _coord_rows(W: np.ndarray, frame: Sequence[Ket]) -> np.ndarray:
    W = np.atleast_2d(np.ascontiguousarray(W, dtype=np.float64))
    if W.ndim != 2 or W.shape[1] != 2 * len(frame):
        raise ValueError(f"expected {2 * len(frame)} coordinates per row, got shape {W.shape}")
    return W


def _z_block(W: np.ndarray, rows: slice, real: bool = False) -> np.ndarray:
    """The complex coordinates of ``W[rows]``, rows last: shape ``(c,
    rows)``, or with ``real`` their real and imaginary parts, ``(2, c, rows)``."""
    w = W[rows]
    if real:
        return np.ascontiguousarray(w.reshape(w.shape[0], -1, 2).T)
    return np.ascontiguousarray(w.view(np.complex128).T)


def _inverse_norm2(vv):
    """``1 / |v|^2`` from ``|v|^2``; raises on a row encoding a near-zero vector."""
    if (vv <= 1e-12).any():
        raise ValueError("coordinates encode a near-zero vector")
    return 1.0 / vv


def _rho_blocks(W: np.ndarray, pred: Predicate, frame: Sequence[Ket], grad: bool):
    """Yield ``(rows, out)`` per kernel block of coordinate rows.

    ``rows`` slices ``W``; ``out`` holds the rows' defects or, with
    ``grad``, their ``(2c, rows)`` gradient in ``w``, the real and
    imaginary parts of the gradient in ``z``.  Raises on a row encoding a
    near-zero vector.  A frame with ``c^2 K <= _PAIR_MAX`` takes the packed
    path (see :func:`_packed_block`), which never forms a state vector.
    Above that bound the state path forms ``rho~ = m m^dagger`` from the
    rows' state vectors ``v = z @ amps``, restacking the frame on every
    call, so that no cache pins a large frame, and divides each group's
    ``(d_A, d_A, k rows)`` stack of ``rho~`` by the trace ``|v|^2`` of the
    first cut's (which holds for any frame, orthonormal or not).
    """
    shape, c = frame[0].shape, len(frame)
    groups, k, trace = _cut_plan(pred, shape)
    if c * c * k <= _PAIR_MAX:
        A, block = _pair_tensor(groups, tuple(frame)), max(1, _PAIR_BUDGET // max(c * c, k))
        for start in range(0, W.shape[0], block):
            rows = slice(start, start + block)
            yield rows, _packed_block(A, groups, pred, _z_block(W, rows, real=True), grad)
        return
    amps, block = stack_amps(frame), max(1, _BLOCK_AMPS // shape.total)
    for start in range(0, W.shape[0], block):
        rows = slice(start, start + block)
        z = _z_block(W, rows)
        n = z.shape[1]
        ms, rhos = zip(*_group_blocks(amps.T @ z, shape, groups))
        inv = _inverse_norm2(rhos[0].reshape(-1, n)[trace].real.sum(axis=0))
        for rho in rhos:
            rho.reshape(-1, n)[...] *= inv
        y = _state_coords(groups, rhos)
        if not grad:
            yield rows, _rho_defect(y, 1.0, groups, pred)
            continue
        _rho_gradient(y, 1.0, groups, pred, out=y)
        gs = []
        for (*_, lo, hi), rho in zip(groups, rhos):  # 2G from its coordinates
            g, gy = np.empty_like(rho), y[lo:hi].reshape(rho.shape)
            np.add(gy, gy.transpose(1, 0, 2), out=g.real)
            np.subtract(gy, gy.transpose(1, 0, 2), out=g.imag)
            _diag(g)[...] -= _rdot(g, rho)  # the chain rule through rho = rho~ / |v|^2
            gs.append(g)
        yield rows, _state_pull(groups, ms, amps, shape, gs) * inv


@functools.lru_cache(maxsize=32)
def _pair_tensor(groups, frame: tuple[Ket, ...]) -> np.ndarray:
    """The packed pair tensor ``A`` of a frame: real, ``(K + 1, c^2)``,
    read-only and C-contiguous.

    Row ``(i, j, cut)``, in the row order of :func:`_plan`, maps the real
    Hermitian coordinates ``q`` of ``P = z z^dagger`` to entry ``(i, j)``
    of the coordinates of ``rho~ - t I/d_A`` on the cut, for ``rho~ =
    sum_ab z_a conj(z_b) A_a A_b^dagger`` (``A_a`` frame ket ``a`` across
    the cut); the last row gives ``t = |v|^2``.  Cached per (groups,
    frame): :class:`Ket` is frozen and hashes by identity.
    """
    c = len(frame)
    blocks = _group_blocks(stack_amps(frame).T, frame[0].shape, groups)
    ms = (m.reshape(m.shape[:2] + (-1, c)) for m, _ in blocks)  # m[:, :, p, a] is A_a across cut p
    B = np.concatenate([np.einsum("ikpa,jkpb->ijpab", m, m.conj()).reshape(-1, c * c) for m in ms])
    # a Hermitian X has the real coordinates Re X + Im X, entry by entry: the
    # map is linear, one to one and keeps norms, since Re X_ij Im X_ij and Re
    # X_ji Im X_ji cancel.  Entry (a, b) of q = Re P + Im P weighs (1 + i)
    # B_ab / 2 + (1 - i) B_ba / 2 in rho~, whose coordinates then weigh Re
    # B_ab + Im B_ba.
    A = B.real + B.reshape(-1, c, c).transpose(0, 2, 1).reshape(-1, c * c).imag
    diags = [
        _diag(A[lo:hi].reshape(da, da, -1)).reshape(da, len(perms), c * c)
        for perms, da, _, lo, hi in groups
    ]
    t = diags[0][:, 0].sum(axis=0)  # the first cut's trace
    for d in diags:
        d -= t / d.shape[0]
    A = np.vstack([A, t])
    A.setflags(write=False)
    return A


def _packed_block(A: np.ndarray, groups, pred: Predicate, xy: np.ndarray, grad: bool) -> np.ndarray:
    """Defects, or with ``grad`` the gradient in ``z``, of a block on the packed path.

    ``xy`` holds the real and imaginary parts of ``z``, shape ``(2, c,
    rows)``.  The real Hermitian coordinates ``q = Re P + Im P = (x + y)
    x^T + (y - x) y^T`` of ``P = z z^dagger`` (see :func:`_pair_tensor`)
    go through one product ``A q = [u; t]``; :func:`_rho_defect` and
    :func:`_rho_gradient` read ``Y = rho - I/d_A`` off ``u / t``.  Each cut's
    ``G`` has ``t`` times the gradient in ``u`` as coordinates; ``f`` does
    not change when ``u`` and ``t`` scale together, so the gradient in ``t``
    is ``-u/t`` times that in ``u``.  That goes back through ``A^T`` to the
    gradient in ``q``; unpacked as the real ``(c, c, rows)`` stack ``h``, it
    gives the gradient ``(1 + i) h z + (1 - i) h^T z`` in ``z``.
    """
    _, c, n = xy.shape
    ps = (_SUM_DIFF @ xy.reshape(2, -1)).reshape(2, c, n)
    ut = A @ np.einsum("kan,kbn->abn", ps, xy).reshape(c * c, n)
    u, inv = ut[:-1], _inverse_norm2(ut[-1])
    if not grad:
        return _rho_defect(u, inv, groups, pred)
    gt = np.empty_like(ut)  # t times the gradient in [u; t]
    gt[-1] = np.einsum("kn,kn->n", u, _rho_gradient(u, inv, groups, pred, out=gt[:-1])) * -inv
    h = (A.T @ gt).reshape(c, c, n)
    (p, s), gw = ps, np.empty((c, 2, n))
    gw[:, 0] = np.einsum("ban,bn->an", h, p) - np.einsum("abn,bn->an", h, s)  # x - y = -s
    gw[:, 1] = np.einsum("abn,bn->an", h, p) + np.einsum("ban,bn->an", h, s)
    return gw.reshape(2 * c, n) * inv


def _state_pull(groups, ms, amps: np.ndarray, shape, gs) -> np.ndarray:
    """The state path's pullback: ``2G`` per group, ``G = df/drho - Re tr(rho
    df/drho) I``, to ``|v|^2`` times the ``(2c, rows)`` gradient in ``w``.

    ``tr drho~`` is the same on every cut, so with ``rho~ = m m^dagger``,
    ``df = Re tr(G drho~) / |v|^2 = Re <2 G m, dm> / |v|^2``; each cut's
    ``G m`` is added back into state-vector order through its transposed
    view, then taken through ``v = z @ amps``.
    """
    n = ms[0].shape[2] // len(groups[0][0])
    h = np.zeros(shape.dims + (n,), dtype=np.complex128)
    for (perms, *_), m, g in zip(groups, ms, gs):
        gm = _mm(g, m)
        for p, perm in enumerate(perms):
            hp = np.transpose(h, perm)
            hp += gm.reshape(hp.shape[:-1] + (len(perms), n))[..., p, :]
    return (h.reshape(-1, n).T @ amps.conj().T).view(np.float64).T


def _group_blocks(psi: np.ndarray, shape, groups):
    """Yield ``(m, rho)`` per group of a :func:`_plan`: the ``(d_A, d_B,
    rows)`` coefficient matrices of the ``(total, rows)`` states across the
    group's cuts, stacked cut-major along the last axis (for one cut, the
    transposed states reshaped), and ``rho = m m^dagger``."""
    n = psi.shape[1]
    t = psi.reshape(shape.dims + (n,))
    for perms, da, db, _, _ in groups:
        if len(perms) == 1:
            m = np.transpose(t, perms[0]).reshape(da, db, n)
        else:
            m = np.empty((da, db, len(perms) * n), dtype=np.complex128)
            for p, perm in enumerate(perms):
                tp = np.transpose(t, perm)
                m.reshape(tp.shape[:-1] + (len(perms), n))[..., p, :] = tp
        yield m, _mm(m, m.conj().transpose(1, 0, 2))


def _reduced_state(v: Ket, cut: Bipartition) -> np.ndarray:
    """The ``(d_A, d_A)`` state of a ket on ``cut.sites``, from a one-row,
    one-cut kernel block."""
    ((_, rho),) = _group_blocks(v.amps[:, None], v.shape, _plan([cut])[0])
    return rho[..., 0]


def _state_coords(groups, rhos) -> np.ndarray:
    """The ``(K, rows)`` real coordinates ``Re rho + Im rho - I/d_A`` of ``Y
    = rho - I/d_A``, in the row order of :func:`_plan`, from each group's
    ``(d_A, d_A, k rows)`` stack of reduced states."""
    y = np.empty((groups[-1][4], rhos[0].shape[2] // len(groups[0][0])))
    for (_, da, _, lo, hi), rho in zip(groups, rhos):
        yg = np.add(rho.real, rho.imag, out=y[lo:hi].reshape(rho.shape))
        _diag(yg)[...] -= 1.0 / da
    return y


def _ghz_terms(y: np.ndarray, group, d: int):
    """``(x, r, a)`` for GhzType(d) on one cut group, in real coordinates.

    The group's ``(d_A, d_A, k rows)`` coordinates ``Q`` of ``Y = S + iN``
    give ``S = (Q + Q^T)/2`` and ``N = (Q - Q^T)/2``.  A product of commuting
    Hermitian matrices, the first with coordinates ``Q``, has coordinates
    ``[Q | Q^T] [S'; N']`` for the second ``S' + iN'``.  So ``x``, those of
    ``X = rho^2 - rho/d = Y^2 + aY + bI`` with ``a = 2/d_A - 1/d`` and ``b =
    1/d_A^2 - 1/(d d_A)``, is one real product with ``r = [S + aI; N]``.
    """
    _, da, _, lo, hi = group
    q = y[lo:hi].reshape(da, da, -1)
    a, qt, r = 2.0 / da - 1.0 / d, q.transpose(1, 0, 2), np.empty((2 * da, da, q.shape[2]))
    np.add(q, qt, out=r[:da])
    np.subtract(q, qt, out=r[da:])
    r *= 0.5
    _diag(r[:da])[...] += a
    x = np.einsum("ikn,kjn->ijn", np.concatenate([q, qt], axis=1), r)
    _diag(x)[...] += 1.0 / da**2 - 1.0 / (d * da)
    return x, r, a


def _rho_defect(u: np.ndarray, inv, groups, pred: Predicate) -> np.ndarray:
    """Defects of the rows of ``y = u * inv``, the ``(K, rows)`` coordinates
    of ``Y = rho - I/d_A`` on every cut: ``|Y|^2`` for Strict and
    CutRestricted, ``|X|^2`` (see :func:`_ghz_terms`) for GhzType, since the
    coordinates keep norms.  ``inv`` is one scale per row, or 1.0."""
    if not isinstance(pred, GhzType):
        return np.einsum("kn,kn->n", u, u) * (inv * inv)
    y = u * inv
    xs = (_ghz_terms(y, group, pred.d)[0].reshape(-1, y.shape[1]) for group in groups)
    return sum(np.einsum("kn,kn->n", x, x) for x in xs)


def _rho_gradient(u: np.ndarray, inv, groups, pred: Predicate, out: np.ndarray) -> np.ndarray:
    """The coordinates of ``G = df/drho`` on every cut at ``Y = u * inv`` (see
    :func:`_rho_defect`), written into and returned as ``out`` (which may be
    ``u``); ``df = Re tr(G drho)`` is their dot product with those of ``dY``.
    Strict and CutRestricted: ``G = 2Y``.  GhzType: ``X`` commutes with
    ``Y``, so ``G = 2(X rho + rho X - X/d) = 2X (2Y + aI)``, with coordinates
    ``[x | x^T] (4r - [2aI; 0])`` (see :func:`_ghz_terms`)."""
    if not isinstance(pred, GhzType):
        return np.multiply(u, 2.0 * inv, out=out)
    y = u * inv
    for group in groups:
        x, r, a = _ghz_terms(y, group, pred.d)
        r *= 4.0
        _diag(r[: x.shape[0]])[...] -= 2.0 * a
        xx, g = np.concatenate([x, x.transpose(1, 0, 2)], axis=1), out[group[3] : group[4]]
        np.einsum("ikn,kjn->ijn", xx, r, out=g.reshape(x.shape))
    return out


def defect_gradient(W: np.ndarray, pred: Predicate, frame: Sequence[Ket]) -> np.ndarray:
    """Exact gradient of the coordinate-form defect.

    ``W`` is one coordinate vector or an ``(m, 2c)`` block of them, each
    of norm above 1e-6; the result has the same shape, and a row scaled
    by ``s`` gets its gradient divided by ``s``.  The kernel block that
    read the defect takes its gradient back through the normalization
    and the frame (see :func:`_rho_blocks`), from each cut's ``G =
    df/drho`` (see :func:`_rho_gradient`): on the packed path through the
    transposed packed tensor, on the state path through the state vectors.
    Radial (scale) and global-phase directions carry no gradient.
    """
    w = np.asarray(W, dtype=np.float64)
    W = _coord_rows(w, frame)
    grads = np.empty_like(W)
    for rows, gw in _rho_blocks(W, pred, frame, grad=True):
        grads[rows] = gw.T
    return grads if w.ndim == 2 else grads[0]
