"""Explicit entangled bases: the complete 2x2x2 family and the
unextendible 2x3 / 2x3x3 families, plus the shift-lift that turns a
suitable bipartite family into a tripartite one.

Every constructor returns vectors carrying their product decomposition
(:class:`DecomposedVector`), so tests can verify Schmidt data against the
closed form instead of re-deriving it numerically.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .hilbert import (
    Ket,
    Operator,
    SystemShape,
    apply_local,
    basis_ket,
    gram_matrix,
    stack_amps,
)

_SQ2 = 1.0 / math.sqrt(2.0)
_SQ3 = 1.0 / math.sqrt(3.0)


def pauli(k: int) -> Operator:
    """The identity (k=0) or the k-th Pauli matrix (k=1,2,3)."""
    mats = {
        0: [[1, 0], [0, 1]],
        1: [[0, 1], [1, 0]],
        2: [[0, -1j], [1j, 0]],
        3: [[1, 0], [0, -1]],
    }
    if k not in mats:
        raise ValueError(f"pauli index must be 0..3, got {k}")
    return Operator(np.array(mats[k], dtype=np.complex128))


@dataclass(frozen=True, eq=False)
class ProductTerm:
    """One product term c * |f_1> x |f_2> x ... of a decomposition."""

    coefficient: float
    factors: tuple[Ket, ...]


@dataclass(frozen=True, eq=False)
class DecomposedVector:
    """A ket, optionally with a Schmidt-style product decomposition.

    ``grouping`` partitions the subsystems into slots; ``terms`` expands
    the vector as a sum of products of per-slot factors with positive,
    non-increasing coefficients, the factors of each slot orthonormal
    across terms.  Both are None when no decomposition is attached.
    """

    vector: Ket
    grouping: Optional[tuple[tuple[int, ...], ...]] = None
    terms: Optional[tuple[ProductTerm, ...]] = None

    def __post_init__(self):
        if (self.terms is None) != (self.grouping is None):
            raise ValueError("grouping and terms must be given together")
        if self.terms is None:
            return
        shape = self.vector.shape
        sites = [s for g in self.grouping for s in g]
        if sorted(sites) != list(range(shape.nsys)):
            raise ValueError(f"grouping {self.grouping} does not partition {shape}")
        coeffs = [t.coefficient for t in self.terms]
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError("term coefficients must be finite")
        if any(c <= 0 for c in coeffs):
            raise ValueError("term coefficients must be positive")
        if any(b > a + 1e-12 for a, b in zip(coeffs, coeffs[1:])):
            raise ValueError("term coefficients must be non-increasing")
        for g_idx, group in enumerate(self.grouping):
            gdims = tuple(shape.dims[s] for s in group)
            factors = []
            for t in self.terms:
                f = t.factors[g_idx]
                if f.shape.dims != gdims:
                    raise ValueError(
                        f"slot {g_idx} factor has shape {f.shape}, expected {gdims}"
                    )
                factors.append(f)
            g = gram_matrix(factors).entries
            if np.max(np.abs(g - np.eye(len(factors)))) > 1e-10:
                raise ValueError(f"slot {g_idx} factors are not orthonormal")
        rebuilt = np.zeros(shape.dims, dtype=np.complex128)
        order = np.argsort(sites)
        for t in self.terms:
            flat = functools.reduce(np.kron, [f.amps for f in t.factors])
            tens = flat.reshape([shape.dims[s] for s in sites])
            rebuilt += t.coefficient * np.transpose(tens, order)
        if np.linalg.norm(rebuilt.reshape(-1) - self.vector.amps) > 1e-12:
            raise ValueError("terms do not reconstruct the vector")


@dataclass(frozen=True, eq=False)
class LabeledBasis:
    """A named, labeled list of unit vectors.

    What a construction promises (orthonormal, complete, unextendible,
    maximally entangled) is for :mod:`umeb.verify` to check; nothing here
    is taken on faith.
    """

    name: str
    shape: SystemShape
    labels: tuple[str, ...]
    vectors: tuple[DecomposedVector, ...]

    def __post_init__(self):
        if not self.vectors:
            raise ValueError("a basis needs at least one vector")
        if len(self.labels) != len(self.vectors):
            raise ValueError(
                f"{len(self.labels)} labels for {len(self.vectors)} vectors"
            )
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be unique")
        for lab, dv in zip(self.labels, self.vectors):
            if dv.vector.shape != self.shape:
                raise ValueError(f"vector {lab} lives in {dv.vector.shape}, not {self.shape}")
            if not dv.vector.is_unit(1e-10):
                raise ValueError(f"vector {lab} is not normalized")

    def __len__(self) -> int:
        return len(self.vectors)

    @property
    def kets(self) -> tuple[Ket, ...]:
        return tuple(dv.vector for dv in self.vectors)

    def amps_matrix(self) -> np.ndarray:
        return stack_amps(self.kets)


def _qubit(op: Operator, i: int) -> Ket:
    """The ket op|i> for a single qubit."""
    return Ket(SystemShape((2,)), op.entries[:, i])


def ghz3() -> DecomposedVector:
    """(|000> + |111>)/sqrt(2) with its two-term product decomposition."""
    shape = SystemShape((2, 2, 2))
    amps = np.zeros(8, dtype=np.complex128)
    amps[0] = amps[7] = _SQ2
    zero = basis_ket(SystemShape((2,)), (0,))
    one = basis_ket(SystemShape((2,)), (1,))
    return DecomposedVector(
        vector=Ket(shape, amps),
        grouping=((0,), (1,), (2,)),
        terms=(
            ProductTerm(_SQ2, (zero, zero, zero)),
            ProductTerm(_SQ2, (one, one, one)),
        ),
    )


_MEB8_OPS = (
    (0, 0, 0),
    (0, 0, 1),
    (0, 0, 2),
    (0, 0, 3),
    (0, 1, 0),
    (0, 2, 0),
    (0, 1, 1),
    (0, 1, 2),
)


def meb8() -> LabeledBasis:
    """The complete orthonormal basis of 2x2x2 built from the GHZ state.

    Eight vectors (A x B x C)|ghz> with A, B, C identity or Pauli
    matrices; every one has all three single-site reduced states equal
    to I/2, so the whole space is spanned by such states.
    """
    shape = SystemShape((2, 2, 2))
    base = ghz3().vector
    vectors = []
    for ops_idx in _MEB8_OPS:
        ops = [pauli(k) for k in ops_idx]
        vec = apply_local(ops, base)
        terms = tuple(
            ProductTerm(_SQ2, tuple(_qubit(op, i) for op in ops)) for i in (0, 1)
        )
        vectors.append(DecomposedVector(vec, ((0,), (1,), (2,)), terms))
    return LabeledBasis(
        name="meb8",
        shape=shape,
        labels=tuple(f"phi{i}" for i in range(1, 9)),
        vectors=tuple(vectors),
    )


def canonical_three_qubit(lams, theta: float) -> Ket:
    """Three-qubit state with amplitudes on |000>, |100>, |101>, |110>, |111>.

    ``lams`` are the five nonnegative amplitudes (squares summing to 1);
    ``theta`` in [0, pi] is the phase on the |100> amplitude.  Every
    three-qubit pure state is locally equivalent to one of these.
    """
    lams = np.asarray(lams, dtype=np.float64)
    if lams.shape != (5,):
        raise ValueError(f"expected 5 amplitudes, got shape {lams.shape}")
    if np.any(lams < 0):
        raise ValueError("amplitudes must be nonnegative")
    if abs(np.sum(lams**2) - 1.0) > 1e-10:
        raise ValueError("squared amplitudes must sum to 1")
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    amps = np.zeros(8, dtype=np.complex128)
    amps[0] = lams[0]
    amps[4] = lams[1] * np.exp(1j * theta)
    amps[5] = lams[2]
    amps[6] = lams[3]
    amps[7] = lams[4]
    return Ket(SystemShape((2, 2, 2)), amps)


def xy_vectors() -> tuple[Ket, Ket]:
    """The fixed orthonormal pair |x>, |y> in C^3 used by the second family."""
    c3 = SystemShape((3,))
    x = Ket(c3, _SQ3 * np.array([1.0, (1.0 + math.sqrt(3) * 1j) / 2.0, 1.0]))
    y = Ket(
        c3,
        _SQ3 * np.array([(-math.sqrt(3) + 1j) / 2.0, 1j, -1j]),
    )
    return x, y


def _bipartite_family(name: str, labels: tuple[str, ...], b0: Ket, b1: Ket) -> LabeledBasis:
    """Four vectors (sigma_i x I)(|0>|b0> + |1>|b1>)/sqrt(2) in 2x3."""
    shape = SystemShape((2, 3))
    core = (
        np.kron(np.array([1, 0], dtype=np.complex128), b0.amps)
        + np.kron(np.array([0, 1], dtype=np.complex128), b1.amps)
    ) * _SQ2
    eye3 = Operator(np.eye(3, dtype=np.complex128))
    vectors = []
    for i in range(4):
        sig = pauli(i)
        vec = apply_local([sig, eye3], Ket(shape, core))
        terms = (
            ProductTerm(_SQ2, (_qubit(sig, 0), b0)),
            ProductTerm(_SQ2, (_qubit(sig, 1), b1)),
        )
        vectors.append(DecomposedVector(vec, ((0,), (1,)), terms))
    return LabeledBasis(
        name=name,
        shape=shape,
        labels=labels,
        vectors=tuple(vectors),
    )


def umeb_2x3_type1() -> LabeledBasis:
    """First unextendible family in 2x3: Paulis acting on (|00>+|11>)/sqrt(2)."""
    c3 = SystemShape((3,))
    return _bipartite_family(
        "umeb-2x3-1",
        tuple(f"phi{i}" for i in range(4)),
        basis_ket(c3, (0,)),
        basis_ket(c3, (1,)),
    )


def umeb_2x3_type2() -> LabeledBasis:
    """Second unextendible family in 2x3: Paulis acting on (|0x>+|1y>)/sqrt(2)."""
    x, y = xy_vectors()
    return _bipartite_family("umeb-2x3-2", tuple(f"psi{i}" for i in range(4)), x, y)


def lift_umeb(base: LabeledBasis, d3: int) -> LabeledBasis:
    """Lift a bipartite family to d1 x d2 x d3 by cyclically shifting a tag.

    Each base vector must carry a two-slot decomposition with d1 terms of
    equal coefficient 1/sqrt(d1).  Term l of vector i is tagged with
    |(j + l) mod d3> on the new third subsystem, one lifted vector per
    shift j, ordered by (i, j).  Requires d1 <= d2 <= d3.
    """
    if base.shape.nsys != 2:
        raise ValueError(f"can only lift a bipartite basis, got {base.shape}")
    d1, d2 = base.shape.dims
    if not d1 <= d2 <= d3:
        raise ValueError(f"need d1 <= d2 <= d3, got {d1}, {d2}, {d3}")
    shape = SystemShape((d1, d2, d3))
    c_target = 1.0 / math.sqrt(d1)
    labels = []
    vectors = []
    for i, dv in enumerate(base.vectors):
        if dv.terms is None or dv.grouping != ((0,), (1,)):
            raise ValueError(f"vector {base.labels[i]} lacks a two-slot decomposition")
        if len(dv.terms) != d1:
            raise ValueError(
                f"vector {base.labels[i]} has {len(dv.terms)} terms, expected {d1}"
            )
        if any(abs(t.coefficient - c_target) > 1e-10 for t in dv.terms):
            raise ValueError(
                f"vector {base.labels[i]} does not have equal coefficients 1/sqrt({d1})"
            )
        for j in range(d3):
            amps = np.zeros(shape.total, dtype=np.complex128)
            terms = []
            for l, t in enumerate(dv.terms):
                tag = basis_ket(SystemShape((d3,)), ((j + l) % d3,))
                flat = np.kron(np.kron(t.factors[0].amps, t.factors[1].amps), tag.amps)
                amps += t.coefficient * flat
                terms.append(ProductTerm(t.coefficient, (t.factors[0], t.factors[1], tag)))
            labels.append(f"{base.labels[i]}{j}")
            vectors.append(
                DecomposedVector(Ket(shape, amps), ((0,), (1,), (2,)), tuple(terms))
            )
    return LabeledBasis(
        name=f"{base.name}-lifted-{d3}",
        shape=shape,
        labels=tuple(labels),
        vectors=tuple(vectors),
    )


def _tripartite_family(
    name: str, stem: str, b0: Ket, b1: Ket
) -> LabeledBasis:
    """Twelve vectors (sigma_i x I x I)(|0>|b0>|j> + |1>|b1>|j+1>)/sqrt(2) in 2x3x3."""
    shape = SystemShape((2, 3, 3))
    c3 = SystemShape((3,))
    labels = []
    vectors = []
    for i in range(4):
        sig = pauli(i)
        for j in range(3):
            tag0 = basis_ket(c3, (j,))
            tag1 = basis_ket(c3, ((j + 1) % 3,))
            amps = _SQ2 * (
                np.kron(np.kron(_qubit(sig, 0).amps, b0.amps), tag0.amps)
                + np.kron(np.kron(_qubit(sig, 1).amps, b1.amps), tag1.amps)
            )
            terms = (
                ProductTerm(_SQ2, (_qubit(sig, 0), b0, tag0)),
                ProductTerm(_SQ2, (_qubit(sig, 1), b1, tag1)),
            )
            labels.append(f"{stem}{i}{j}")
            vectors.append(
                DecomposedVector(Ket(shape, amps), ((0,), (1,), (2,)), terms)
            )
    return LabeledBasis(
        name=name,
        shape=shape,
        labels=tuple(labels),
        vectors=tuple(vectors),
    )


def umeb_2x3x3_first() -> LabeledBasis:
    """First unextendible family in 2x3x3, written out directly.

    Independent of :func:`lift_umeb`; the test suite checks that lifting
    the first bipartite family reproduces exactly this set.
    """
    c3 = SystemShape((3,))
    return _tripartite_family(
        "umeb-2x3x3-1", "phi", basis_ket(c3, (0,)), basis_ket(c3, (1,))
    )


def umeb_2x3x3_second() -> LabeledBasis:
    """Second unextendible family in 2x3x3, built on the |x>, |y> pair."""
    x, y = xy_vectors()
    return _tripartite_family("umeb-2x3x3-2", "psi", x, y)


def _ghz3_basis() -> LabeledBasis:
    g = ghz3()
    return LabeledBasis(
        name="ghz3",
        shape=g.vector.shape,
        labels=("ghz",),
        vectors=(g,),
    )


_REGISTRY: dict[str, Callable[[], LabeledBasis]] = {
    "meb8": meb8,
    "umeb-2x3-1": umeb_2x3_type1,
    "umeb-2x3-2": umeb_2x3_type2,
    "umeb-2x3x3-1": umeb_2x3x3_first,
    "umeb-2x3x3-2": umeb_2x3x3_second,
    "ghz3": _ghz3_basis,
}


def basis_names() -> tuple[str, ...]:
    """Names accepted by :func:`named_basis`, in a stable order."""
    return tuple(_REGISTRY)


def named_basis(name: str) -> LabeledBasis:
    """Look up a built-in construction by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown basis {name!r}; known: {', '.join(_REGISTRY)}"
        ) from None
    return factory()
