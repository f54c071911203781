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
#: Orthogonality residual tolerance.
ORTHO_TOL = 1e-12


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


@dataclass(frozen=True, eq=False)
class Operator:
    """Dense complex matrix (unitaries, density matrices, reduced states)."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.array(self.entries, dtype=np.complex128)
        if entries.ndim != 2:
            raise ValueError(f"operator must be 2-D, got shape {entries.shape}")
        if not np.all(np.isfinite(entries.view(np.float64))):
            raise ValueError("operator entries must be finite")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def is_unitary(self, tol: float = 1e-10) -> bool:
        if self.rows != self.cols:
            return False
        gram = self.entries.conj().T @ self.entries
        return float(np.abs(gram - np.eye(self.rows)).max()) <= tol

    def is_density(self, tol: float = 1e-10) -> bool:
        if self.rows != self.cols:
            return False
        if float(np.abs(self.entries - self.entries.conj().T).max()) > tol:
            return False
        if abs(float(np.trace(self.entries).real) - 1.0) > tol:
            return False
        evals = hermitian_eigenvalues(self)
        return evals[-1] >= -tol


@dataclass(frozen=True)
class Bipartition:
    """A split of the subsystems into ``sites`` and their complement.

    ``sites`` names the retained side: :func:`partial_trace` traces out
    everything else and returns the reduced state on ``sites``.
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


def kron(a: Ket | Operator, b: Ket | Operator) -> Ket | Operator:
    """Tensor product of two kets or two operators (big-endian ordering)."""
    if isinstance(a, Ket) and isinstance(b, Ket):
        shape = SystemShape(a.shape.dims + b.shape.dims)
        return Ket(shape, np.kron(a.amps, b.amps))
    if isinstance(a, Operator) and isinstance(b, Operator):
        return Operator(np.kron(a.entries, b.entries))
    raise TypeError(
        f"kron operands must be two kets or two operators, "
        f"got {type(a).__name__} and {type(b).__name__}"
    )


def apply_local(ops: Sequence[Operator], v: Ket) -> Ket:
    """Apply ``(U_1 (x) ... (x) U_k) |v>`` one subsystem at a time.

    Equivalent to building the full tensor product with :func:`kron` and
    multiplying, but contracts each factor along its own axis instead of
    materializing the big matrix.
    """
    dims = v.shape.dims
    if len(ops) != len(dims):
        raise ValueError(f"need {len(dims)} operators, got {len(ops)}")
    for i, (op, d) in enumerate(zip(ops, dims)):
        if op.rows != d or op.cols != d:
            raise ValueError(
                f"operator {i} is {op.rows}x{op.cols}, subsystem has dimension {d}"
            )
    t = v.amps.reshape(dims)
    for i, op in enumerate(ops):
        t = np.moveaxis(np.tensordot(op.entries, t, axes=(1, i)), 0, i)
    return Ket(v.shape, t.reshape(-1))


def inner(a: Ket, b: Ket) -> complex:
    """Inner product ``<a|b>``, conjugate-linear in the first argument."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a.amps, b.amps))


def density(v: Ket, unit_tol: float = 1e-10) -> Operator:
    """Rank-one density matrix ``|v><v|`` of a unit ket."""
    if not v.is_unit(unit_tol):
        raise ValueError(f"ket is not normalized (norm {v.norm():.6g})")
    return Operator(np.outer(v.amps, v.amps.conj()))


def partial_trace(v: Ket, cut: Bipartition, unit_tol: float = 1e-10) -> Operator:
    """Reduced state of a unit ket on ``cut.sites``.

    Groups the amplitudes into a dim(A) x dim(B) coefficient matrix M and
    returns ``M M^dagger``, i.e. traces out the complement of the cut.
    """
    if cut.shape != v.shape:
        raise ValueError(f"cut is over {cut.shape}, ket is over {v.shape}")
    if not v.is_unit(unit_tol):
        raise ValueError(f"ket is not normalized (norm {v.norm():.6g})")
    m = coefficient_matrix(v, cut)
    return Operator(m @ m.conj().T)


def coefficient_matrix(v: Ket, cut: Bipartition) -> np.ndarray:
    """Amplitudes of ``v`` grouped as a dim(A) x dim(B) matrix across the cut."""
    t = v.amps.reshape(v.shape.dims)
    return np.transpose(t, cut.sites + cut.other_sites).reshape(cut.dim_a, cut.dim_b)


def hermitian_eigenvalues(m: Operator, herm_tol: float = 1e-10) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, descending (LAPACK ``eigvalsh``).

    The matrix must be square and Hermitian within ``herm_tol``.
    """
    a = m.entries
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix is {a.shape[0]}x{a.shape[1]}, not square")
    if float(np.abs(a - a.conj().T).max()) > herm_tol:
        raise ValueError("matrix is not Hermitian within tolerance")
    return np.linalg.eigvalsh(a)[::-1]


def gram_matrix(vs: Sequence[Ket]) -> Operator:
    """Matrix of pairwise inner products ``<v_i|v_j>``."""
    if not vs:
        raise ValueError("gram matrix of an empty list")
    shape = vs[0].shape
    if any(v.shape != shape for v in vs):
        raise ValueError("kets must share one shape")
    stacked = np.array([v.amps for v in vs])
    return Operator(stacked.conj() @ stacked.T)


def numerical_rank(vs: Sequence[Ket], rank_tol: float = RANK_TOL) -> int:
    """Rank of the stacked ket list: singular values above ``rank_tol``."""
    if not vs:
        return 0
    stacked = np.array([v.amps for v in vs])
    svals = np.linalg.svd(stacked, compute_uv=False)
    return int(np.sum(svals > rank_tol))


def orthonormal_complement(vs: Sequence[Ket], rank_tol: float = RANK_TOL) -> list[Ket]:
    """Orthonormal basis of the orthogonal complement of ``span(vs)``.

    Modified Gram-Schmidt with pivoting: the input kets are orthonormalized
    first (a linearly dependent list is an error), then standard basis
    vectors are deflated against everything accepted so far and extracted
    largest-residual-first, with one reorthogonalization pass each.  Output
    length is ``total - len(vs)`` and every output is orthogonal to every
    input to roughly machine precision.
    """
    if not vs:
        raise ValueError("complement of an empty list; pass the spanning kets")
    shape = vs[0].shape
    if any(v.shape != shape for v in vs):
        raise ValueError("kets must share one shape")
    total = shape.total

    frame: list[np.ndarray] = []
    rejected = 0
    for v in vs:
        u = v.amps.copy()
        for _ in range(2):
            for q in frame:
                u -= np.vdot(q, u) * q
        nrm = np.linalg.norm(u)
        if nrm <= rank_tol * max(1.0, v.norm()):
            rejected += 1
            continue
        frame.append(u / nrm)
    if rejected:
        raise ValueError(
            f"input kets are linearly dependent: numerical rank {len(frame)} "
            f"of {len(vs)}"
        )

    resid = np.eye(total, dtype=np.complex128)
    for q in frame:
        resid -= np.outer(resid @ q.conj(), q)

    comp: list[np.ndarray] = []
    for _ in range(total - len(vs)):
        idx = int(np.argmax(np.linalg.norm(resid, axis=1)))
        u = resid[idx].copy()
        for q in frame:
            u -= np.vdot(q, u) * q
        for q in comp:
            u -= np.vdot(q, u) * q
        u /= np.linalg.norm(u)
        comp.append(u)
        resid -= np.outer(resid @ u.conj(), u)
    return [Ket(shape, u) for u in comp]


def random_unit_ket(shape: SystemShape, rng: np.random.Generator) -> Ket:
    """Haar-random unit ket (normalized complex Gaussian amplitudes)."""
    amps = rng.standard_normal(shape.total) + 1j * rng.standard_normal(shape.total)
    return Ket(shape, amps / np.linalg.norm(amps))


def random_unitary(n: int, rng: np.random.Generator) -> Operator:
    """Haar-random n x n unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return Operator(q * (np.diag(r) / np.abs(np.diag(r))))


def stack_amps(vs: Iterable[Ket]) -> np.ndarray:
    """Kets stacked as rows of a matrix."""
    return np.array([v.amps for v in vs])
