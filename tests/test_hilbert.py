"""Core linear algebra: shapes, kets, bipartitions, complements, and the
Hermitian eigenvalue wrapper (checked on known spectra).  Reduced states
are tested with the entanglement evaluator in ``test_entanglement.py``."""

import numpy as np
import pytest

from umeb.constructions import umeb_2x3_type1
from umeb.hilbert import (
    Bipartition,
    Ket,
    Operator,
    SystemShape,
    all_bipartitions,
    apply_local,
    basis_ket,
    gram_matrix,
    hermitian_eigenvalues,
    inner,
    kron,
    numerical_rank,
    orthonormal_complement,
    random_unit_ket,
    random_unitary,
    stack_amps,
)


def test_system_shape_basics():
    s = SystemShape((2, 3, 3))
    assert s.total == 18
    assert s.nsys == 3
    assert str(s) == "2x3x3"
    # big-endian row-major: |i j l> at 9i + 3j + l
    assert s.flat_index((0, 0, 0)) == 0
    assert s.flat_index((1, 0, 0)) == 9
    assert s.flat_index((0, 2, 1)) == 7
    assert s.flat_index((1, 2, 2)) == 17


def test_system_shape_rejects_bad_dims():
    with pytest.raises(ValueError):
        SystemShape(())
    with pytest.raises(ValueError):
        SystemShape((2, 1))


def test_ket_validation_and_immutability():
    s = SystemShape((2, 2))
    v = Ket(s, [1, 0, 0, 0])
    assert v.amps.dtype == np.complex128
    assert v.is_unit()
    with pytest.raises(ValueError):
        v.amps[0] = 0.5
    with pytest.raises(ValueError):
        Ket(s, [1, 0, 0])
    with pytest.raises(ValueError):
        Ket(s, [np.nan, 0, 0, 0])
    assert not Ket(s, [2, 0, 0, 0]).is_unit()


def test_basis_ket_places_single_amplitude():
    s = SystemShape((2, 3))
    v = basis_ket(s, (1, 2))
    expected = np.zeros(6)
    expected[5] = 1.0
    assert np.array_equal(v.amps, expected)


def test_bipartition_normalizes_and_validates():
    s = SystemShape((2, 3, 3))
    cut = Bipartition(s, (2, 0))
    assert cut.sites == (0, 2)
    assert cut.other_sites == (1,)
    assert cut.dim_a == 6
    assert cut.dim_b == 3
    with pytest.raises(ValueError):
        Bipartition(s, ())
    with pytest.raises(ValueError):
        Bipartition(s, (0, 1, 2))
    with pytest.raises(ValueError):
        Bipartition(s, (0, 0))
    with pytest.raises(ValueError):
        Bipartition(s, (3,))


def test_all_bipartitions_canonical_orientation():
    # 2x2x2: only the three single-site splits have dim(A) <= dim(B)
    cuts = all_bipartitions(SystemShape((2, 2, 2)))
    assert [c.sites for c in cuts] == [(0,), (1,), (2,)]
    cuts = all_bipartitions(SystemShape((2, 3, 3)))
    assert [c.sites for c in cuts] == [(0,), (1,), (2,)]
    assert [c.sites for c in all_bipartitions(SystemShape((2, 3)))] == [(0,)]
    # ties keep the side containing subsystem 0
    assert [c.sites for c in all_bipartitions(SystemShape((2, 2)))] == [(0,)]
    cuts = all_bipartitions(SystemShape((2, 2, 2, 2)))
    assert [c.sites for c in cuts] == [
        (0,),
        (1,),
        (2,),
        (3,),
        (0, 1),
        (0, 2),
        (0, 3),
    ]


def test_kron_of_kets():
    a = Ket(SystemShape((2,)), [1, 0])
    b = Ket(SystemShape((3,)), [0, 1, 0])
    ab = kron(a, b)
    assert ab.shape.dims == (2, 3)
    assert np.argmax(np.abs(ab.amps)) == 1


def test_apply_local_matches_full_kron():
    rng = np.random.default_rng(7)
    shape = SystemShape((2, 3, 2))
    for _ in range(20):
        ops = [random_unitary(d, rng) for d in shape.dims]
        v = random_unit_ket(shape, rng)
        full = np.kron(np.kron(ops[0].entries, ops[1].entries), ops[2].entries)
        got = apply_local(ops, v)
        assert np.allclose(got.amps, full @ v.amps, atol=1e-13)


def test_apply_local_validates_arity_and_dims():
    v = random_unit_ket(SystemShape((2, 3)), np.random.default_rng(0))
    eye2 = Operator(np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        apply_local([eye2], v)
    with pytest.raises(ValueError):
        apply_local([eye2, eye2], v)


def test_inner_is_conjugate_linear_in_first_argument():
    s = SystemShape((2,))
    a = Ket(s, [1j, 0])
    b = Ket(s, [1, 0])
    assert inner(a, b) == pytest.approx(-1j)
    assert inner(b, a) == pytest.approx(1j)
    with pytest.raises(ValueError):
        inner(a, Ket(SystemShape((3,)), [1, 0, 0]))


def _known_spectrum(evals, rng, scale=1.0):
    u = random_unitary(len(evals), rng).entries
    return Operator(scale * (u @ np.diag(evals) @ u.conj().T))


def test_hermitian_eigenvalues_recover_known_spectra():
    rng = np.random.default_rng(23)
    for n in (2, 3, 4, 6, 9):
        for _ in range(20):
            evals = rng.standard_normal(n)
            got = hermitian_eigenvalues(_known_spectrum(evals, rng))
            assert np.allclose(got, np.sort(evals)[::-1], atol=1e-11)


def test_hermitian_eigenvalues_handle_degenerate_spectra():
    rng = np.random.default_rng(29)
    for _ in range(10):
        got = hermitian_eigenvalues(_known_spectrum([0.5, 0.0, 0.5, 0.0], rng))
        assert np.allclose(got, [0.5, 0.5, 0.0, 0.0], atol=1e-12)


def test_hermitian_eigenvalues_accept_diagonal_and_one_by_one():
    assert np.allclose(
        hermitian_eigenvalues(Operator(np.diag([1.0, 3.0, 2.0]).astype(complex))),
        [3.0, 2.0, 1.0],
    )
    assert np.allclose(hermitian_eigenvalues(Operator(np.array([[4.0 + 0j]]))), [4.0])


def test_hermitian_eigenvalues_reject_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eigenvalues(Operator(np.array([[0, 1], [0, 0]], dtype=complex)))
    with pytest.raises(ValueError, match="not square"):
        hermitian_eigenvalues(Operator(np.zeros((2, 3), dtype=complex)))


def test_hermitian_eigenvalues_of_large_norm_matrix():
    rng = np.random.default_rng(31)
    evals = rng.standard_normal(5)
    got = hermitian_eigenvalues(_known_spectrum(evals, rng, scale=1e6))
    assert np.allclose(got, 1e6 * np.sort(evals)[::-1], rtol=1e-12, atol=1e-6)


def test_hermitian_eigenvalues_have_no_size_cap():
    rng = np.random.default_rng(37)
    evals = rng.standard_normal(40)
    got = hermitian_eigenvalues(_known_spectrum(evals, rng))
    assert np.allclose(got, np.sort(evals)[::-1], atol=1e-11)


def test_gram_matrix_values():
    s = SystemShape((2,))
    a = Ket(s, [1, 0])
    b = Ket(s, [1 / np.sqrt(2), 1j / np.sqrt(2)])
    g = gram_matrix([a, b]).entries
    assert g[0, 0] == pytest.approx(1.0)
    assert g[0, 1] == pytest.approx(1 / np.sqrt(2))
    assert g[1, 0] == pytest.approx(1 / np.sqrt(2))
    assert np.allclose(g, g.conj().T)


def test_numerical_rank_counts_independent_directions():
    s = SystemShape((2, 2))
    a = Ket(s, [1, 0, 0, 0])
    b = Ket(s, [0, 1, 0, 0])
    c = Ket(s, np.array([1, 1, 0, 0]) / np.sqrt(2))
    assert numerical_rank([a, b]) == 2
    assert numerical_rank([a, b, c]) == 2
    assert numerical_rank([]) == 0


def test_orthonormal_complement_properties():
    rng = np.random.default_rng(17)
    shape = SystemShape((2, 3, 3))
    for _ in range(10):
        u = random_unitary(18, rng).entries
        vs = [Ket(shape, u[i]) for i in range(12)]
        comp = orthonormal_complement(vs)
        assert len(comp) == 6
        g = gram_matrix(comp).entries
        assert np.max(np.abs(g - np.eye(6))) < 1e-12
        cross = stack_amps(vs).conj() @ stack_amps(comp).T
        assert np.max(np.abs(cross)) < 1e-12
        assert numerical_rank(vs + comp) == 18


def test_orthonormal_complement_of_large_maximally_entangled_ket():
    shape = SystemShape((33, 33))
    v = Ket(shape, np.eye(33).reshape(-1) / np.sqrt(33))
    comp = stack_amps(orthonormal_complement([v]))
    assert comp.shape == (1088, 1089)
    assert np.max(np.abs(comp.conj() @ comp.T - np.eye(1088))) < 1e-12
    assert np.max(np.abs(comp.conj() @ v.amps)) < 1e-12


def test_orthonormal_complement_rank_tolerance_edge():
    # a second ket 1e-11 away from the first is dependent at rank_tol 1e-10,
    # one 1e-9 away is not
    shape = SystemShape((2, 2))
    a = basis_ket(shape, (0, 0)).amps
    b = basis_ket(shape, (0, 1)).amps
    with pytest.raises(ValueError, match="rank 1 of 2"):
        orthonormal_complement([Ket(shape, a), Ket(shape, a + 1e-11 * b)])
    assert len(orthonormal_complement([Ket(shape, a), Ket(shape, a + 1e-9 * b)])) == 2
    more = [basis_ket(shape, divmod(i, 2)) for i in range(4)] + [Ket(shape, a)]
    with pytest.raises(ValueError, match="rank 4 of 5"):
        orthonormal_complement(more)


def test_orthonormal_complement_ignores_the_sign_of_zero():
    # the built-in 2x3 family holds some -0.0 amplitudes; read back from a
    # file they are 0.0, and the frame must not change with that
    kets = umeb_2x3_type1().kets
    parts = stack_amps(kets).view(np.float64)
    assert np.any(np.signbit(parts[parts == 0]))
    unsigned = [Ket(k.shape, np.where(k.amps == 0, 0, k.amps)) for k in kets]
    frame = stack_amps(orthonormal_complement(kets))
    assert stack_amps(orthonormal_complement(unsigned)).tobytes() == frame.tobytes()


def test_orthonormal_complement_of_complete_set_is_empty():
    shape = SystemShape((2, 2))
    vs = [basis_ket(shape, divmod(i, 2)) for i in range(4)]
    assert orthonormal_complement(vs) == []


def test_orthonormal_complement_rejects_dependent_input():
    shape = SystemShape((2, 2))
    a = basis_ket(shape, (0, 0))
    with pytest.raises(ValueError, match="rank"):
        orthonormal_complement([a, a])


def test_orthonormal_complement_accepts_non_orthogonal_independent_input():
    shape = SystemShape((2, 2))
    a = basis_ket(shape, (0, 0))
    b = Ket(shape, np.array([1, 1, 0, 0]) / np.sqrt(2))
    comp = orthonormal_complement([a, b])
    assert len(comp) == 2
    cross = stack_amps([a, b]).conj() @ stack_amps(comp).T
    assert np.max(np.abs(cross)) < 1e-12


def test_random_unitary_and_unit_ket():
    rng = np.random.default_rng(41)
    for n in (2, 3, 6):
        u = random_unitary(n, rng).entries
        assert np.max(np.abs(u.conj().T @ u - np.eye(n))) < 1e-12
    for _ in range(5):
        assert random_unit_ket(SystemShape((2, 3)), rng).is_unit(1e-12)
