"""Dense complex linear algebra over small composite Hilbert spaces.

Conventions used throughout the package:

* subsystem labels are 0-based and ordered left to right;
* flat indexing is row-major (big-endian): the leftmost subsystem is the
  most significant digit, so ``|i j l>`` in a 2x3x3 space sits at flat
  index ``9*i + 3*j + l``;
* amplitudes are ``complex128``; no arbitrary precision anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

#: Numerical rank / linear-independence tolerance.
RANK_TOL = 1e-10


@dataclass(frozen=True)
class SystemShape:
    """Ordered subsystem dimensions of a composite space."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) < 1:
            raise ValueError("shape needs at least one subsystem")
        if any(d < 2 for d in dims):
            raise ValueError(f"subsystem dimensions must be >= 2, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def total(self) -> int:
        return math.prod(self.dims)

    @property
    def nsys(self) -> int:
        return len(self.dims)

    def flat_index(self, labels: Sequence[int]) -> int:
        """Flat index of the basis label ``(i_1, ..., i_k)``."""
        return int(np.ravel_multi_index(tuple(labels), self.dims))

    def __str__(self) -> str:
        return "x".join(str(d) for d in self.dims)


@dataclass(frozen=True, eq=False)
class Ket:
    """Complex amplitude vector over a :class:`SystemShape`.

    Not necessarily normalized; operations that need a unit vector state
    that as a precondition and enforce it with a tolerance.
    """

    shape: SystemShape
    amps: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amps, dtype=np.complex128)
        if amps.ndim != 1:
            raise ValueError(f"amplitudes must be 1-D, got shape {amps.shape}")
        if amps.size != self.shape.total:
            raise ValueError(
                f"amplitude length {amps.size} does not match shape {self.shape} "
                f"(total {self.shape.total})"
            )
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def is_unit(self, tol: float = 1e-10) -> bool:
        return abs(self.norm() - 1.0) <= tol


@dataclass(frozen=True)
class Bipartition:
    """A split of the subsystems into ``sites`` and their complement.

    ``sites`` names the retained side: the reduced state across the cut is
    the state on ``sites`` after tracing out everything else.
    """

    shape: SystemShape
    sites: tuple[int, ...]

    def __post_init__(self):
        sites = tuple(sorted(int(s) for s in self.sites))
        k = self.shape.nsys
        if len(sites) != len(set(sites)):
            raise ValueError(f"duplicate sites in {sites}")
        if any(s < 0 or s >= k for s in sites):
            raise ValueError(f"sites {sites} out of range for {k} subsystems")
        if not 0 < len(sites) < k:
            raise ValueError("sites must be a nonempty proper subset of the subsystems")
        object.__setattr__(self, "sites", sites)

    @property
    def other_sites(self) -> tuple[int, ...]:
        return tuple(s for s in range(self.shape.nsys) if s not in self.sites)

    @property
    def dim_a(self) -> int:
        return math.prod(self.shape.dims[s] for s in self.sites)

    @property
    def dim_b(self) -> int:
        return math.prod(self.shape.dims[s] for s in self.other_sites)


def basis_ket(shape: SystemShape, labels: Sequence[int]) -> Ket:
    """Computational basis vector ``|i_1 ... i_k>``."""
    amps = np.zeros(shape.total, dtype=np.complex128)
    amps[shape.flat_index(labels)] = 1.0
    return Ket(shape, amps)


def all_bipartitions(shape: SystemShape) -> list[Bipartition]:
    """Every bipartition (A, A-bar), represented once with dim(A) <= dim(A-bar).

    Ties (equal dimensions on both sides) keep the half containing
    subsystem 0, so each unordered split appears exactly once.
    """
    cuts = []
    for m in range(1, shape.nsys):
        for sites in combinations(range(shape.nsys), m):
            cut = Bipartition(shape, sites)
            if cut.dim_a < cut.dim_b or (cut.dim_a == cut.dim_b and 0 in sites):
                cuts.append(cut)
    return cuts


def apply_local(ops: Sequence[np.ndarray], v: Ket) -> Ket:
    """Apply ``(U_1 (x) ... (x) U_k) |v>`` one subsystem at a time.

    Equivalent to multiplying by the full tensor product of the operators,
    but contracts each factor along its own axis instead of materializing
    the big matrix.
    """
    dims = v.shape.dims
    if len(ops) != len(dims):
        raise ValueError(f"need {len(dims)} operators, got {len(ops)}")
    for i, (op, d) in enumerate(zip(ops, dims)):
        if np.shape(op) != (d, d):
            raise ValueError(f"operator {i} has shape {np.shape(op)}, subsystem has dimension {d}")
    t = v.amps.reshape(dims)
    for i, op in enumerate(ops):
        t = np.moveaxis(np.tensordot(op, t, axes=(1, i)), 0, i)
    return Ket(v.shape, t.reshape(-1))


def hermitian_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, descending (LAPACK ``eigvalsh``).

    The matrix must be 2-D, square, finite and Hermitian within 1e-10.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix of shape {a.shape} is not square")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    if float(np.abs(a - a.conj().T).max()) > 1e-10:
        raise ValueError("matrix is not Hermitian within tolerance")
    return np.linalg.eigvalsh(a)[::-1]


def gram_matrix(vs: Sequence[Ket]) -> np.ndarray:
    """Matrix of pairwise inner products ``<v_i|v_j>``."""
    if not vs:
        raise ValueError("gram matrix of an empty list")
    shape = vs[0].shape
    if any(v.shape != shape for v in vs):
        raise ValueError("kets must share one shape")
    stacked = np.array([v.amps for v in vs])
    return stacked.conj() @ stacked.T


def numerical_rank(vs: Sequence[Ket]) -> int:
    """Rank of the stacked ket list: singular values above ``RANK_TOL``."""
    if not vs:
        return 0
    stacked = np.array([v.amps for v in vs])
    svals = np.linalg.svd(stacked, compute_uv=False)
    return int(np.sum(svals > RANK_TOL))


def orthonormal_complement(vs: Sequence[Ket]) -> list[Ket]:
    """Orthonormal basis of the orthogonal complement of ``span(vs)``.

    One complete QR of the kets as columns: the trailing ``total -
    len(vs)`` columns of Q are the complement.  A linearly dependent list
    is an error, read from R: ``|R_jj|`` is the distance of ``v_j`` from
    the span of the kets before it, and must exceed ``RANK_TOL *
    max(1, |v_j|)``.
    """
    if not vs:
        raise ValueError("complement of an empty list; pass the spanning kets")
    shape = vs[0].shape
    if any(v.shape != shape for v in vs):
        raise ValueError("kets must share one shape")
    cols = stack_amps(vs).T + 0.0  # -0.0 becomes 0.0; its sign would flip reflections
    q, r = np.linalg.qr(cols, mode="complete")
    resid = np.abs(np.diagonal(r))
    norms = np.linalg.norm(cols, axis=0)[: resid.size]
    rank = int(np.sum(resid > RANK_TOL * np.maximum(1.0, norms)))
    if rank < len(vs):
        raise ValueError(f"input kets are linearly dependent: numerical rank {rank} of {len(vs)}")
    return [Ket(shape, u) for u in q[:, len(vs) :].T]


def random_unit_ket(shape: SystemShape, rng: np.random.Generator) -> Ket:
    """Haar-random unit ket (normalized complex Gaussian amplitudes)."""
    amps = rng.standard_normal(shape.total) + 1j * rng.standard_normal(shape.total)
    return Ket(shape, amps / np.linalg.norm(amps))


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random n x n unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def stack_amps(vs: Iterable[Ket]) -> np.ndarray:
    """Kets stacked as rows of a matrix."""
    return np.array([v.amps for v in vs])
