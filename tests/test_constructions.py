"""The explicit basis families, their product decompositions, and the
bipartite-to-tripartite lift."""

import numpy as np
import pytest

from umeb.constructions import (
    DecomposedVector,
    LabeledBasis,
    ProductTerm,
    _pauli,
    basis_names,
    ghz3,
    lift_umeb,
    meb8,
    named_basis,
    umeb_2x3_type1,
    umeb_2x3_type2,
    umeb_2x3x3_first,
    umeb_2x3x3_second,
)
from umeb.entanglement import (
    CutRestricted,
    GhzType,
    is_maximally_entangled,
    schmidt_coefficients,
)
from umeb.hilbert import (
    Bipartition,
    Ket,
    SystemShape,
    basis_ket,
    gram_matrix,
)
from umeb.verify import check_completeness, check_orthonormal, set_match_distance


def test_pauli_matrices():
    for k in range(4):
        sig = _pauli(k)
        assert np.max(np.abs(sig.conj().T @ sig - np.eye(2))) <= 1e-15
        assert np.allclose(sig @ sig, np.eye(2), atol=1e-15)
    assert np.allclose(_pauli(2), [[0, -1j], [1j, 0]])
    with pytest.raises(ValueError):
        _pauli(4)


def test_ghz3_amplitudes_and_terms():
    g = ghz3()
    expect = np.zeros(8)
    expect[[0, 7]] = 2**-0.5
    assert np.allclose(g.vector.amps, expect, atol=1e-15)
    assert g.grouping == ((0,), (1,), (2,))
    assert len(g.terms) == 2


def test_meb8_shape_and_labels():
    m8 = meb8()
    assert len(m8) == 8
    assert m8.labels == tuple(f"phi{i}" for i in range(1, 9))
    assert m8.shape.dims == (2, 2, 2)


def test_meb8_contains_expected_vectors():
    m8 = meb8()
    # the fourth vector flips the sign of |111>
    expect = np.zeros(8)
    expect[0], expect[7] = 2**-0.5, -(2**-0.5)
    assert np.allclose(m8.kets[3].amps, expect, atol=1e-15)
    assert check_orthonormal(m8).ok
    assert check_completeness(m8).complete


def test_decomposed_vector_validates_reconstruction():
    s2 = SystemShape((2,))
    zero, one = basis_ket(s2, (0,)), basis_ket(s2, (1,))
    good = DecomposedVector(
        Ket(SystemShape((2, 2)), np.array([1, 0, 0, 1]) / np.sqrt(2)),
        ((0,), (1,)),
        (ProductTerm(2**-0.5, (zero, zero)), ProductTerm(2**-0.5, (one, one))),
    )
    assert len(good.terms) == 2
    with pytest.raises(ValueError, match="reconstruct"):
        DecomposedVector(
            Ket(SystemShape((2, 2)), [0, 1, 0, 0]),
            ((0,), (1,)),
            (ProductTerm(1.0, (zero, zero)),),
        )


def test_decomposed_vector_validates_terms():
    s2 = SystemShape((2,))
    zero, one = basis_ket(s2, (0,)), basis_ket(s2, (1,))
    plus = Ket(s2, np.array([1, 1]) / np.sqrt(2))
    bell = Ket(SystemShape((2, 2)), np.array([1, 0, 0, 1]) / np.sqrt(2))
    with pytest.raises(ValueError, match="positive"):
        DecomposedVector(
            bell,
            ((0,), (1,)),
            (ProductTerm(2**-0.5, (zero, zero)), ProductTerm(-(2**-0.5), (one, one))),
        )
    with pytest.raises(ValueError, match="non-increasing"):
        DecomposedVector(
            Ket(SystemShape((2, 2)), [0.6, 0, 0, 0.8]),
            ((0,), (1,)),
            (ProductTerm(0.6, (zero, zero)), ProductTerm(0.8, (one, one))),
        )
    with pytest.raises(ValueError, match="orthonormal"):
        DecomposedVector(
            bell,
            ((0,), (1,)),
            (ProductTerm(2**-0.5, (zero, zero)), ProductTerm(2**-0.5, (plus, one))),
        )
    with pytest.raises(ValueError, match="partition"):
        DecomposedVector(bell, ((0,),), (ProductTerm(1.0, (zero,)),))
    with pytest.raises(ValueError, match="together"):
        DecomposedVector(bell, ((0,), (1,)), None)


def test_labeled_basis_validation():
    s = SystemShape((2, 2))
    v = DecomposedVector(basis_ket(s, (0, 0)))
    with pytest.raises(ValueError, match="labels"):
        LabeledBasis("x", s, ("a", "b"), (v,))
    with pytest.raises(ValueError, match="unique"):
        LabeledBasis("x", s, ("a", "a"), (v, v))
    with pytest.raises(ValueError, match="normalized"):
        LabeledBasis("x", s, ("a",), (DecomposedVector(Ket(s, [2, 0, 0, 0])),))
    with pytest.raises(ValueError, match="at least one"):
        LabeledBasis("x", s, (), ())


def test_canonical_three_qubit_reduced_state_closed_form():
    # the canonical three-qubit form puts amplitudes lam_0..lam_4 on |000>,
    # |100>, |101>, |110>, |111>, with the phase theta on |100>; qubit 0's
    # reduced state is [[l0^2, l0 l1 e^-it], [l0 l1 e^it, 1 - l0^2]]
    rng = np.random.default_rng(61)
    cut = Bipartition(SystemShape((2, 2, 2)), (0,))
    for _ in range(50):
        lams = np.sqrt(rng.dirichlet(np.ones(5)))
        theta = rng.uniform(0, np.pi)
        amps = np.zeros(8, dtype=complex)
        amps[[0, 4, 5, 6, 7]] = lams
        amps[4] *= np.exp(1j * theta)
        v = Ket(cut.shape, amps)
        l0, l1 = lams[0], lams[1]
        expect = np.array(
            [
                [l0**2, l0 * l1 * np.exp(-1j * theta)],
                [l0 * l1 * np.exp(1j * theta), 1 - l0**2],
            ]
        )
        mu = np.linalg.eigvalsh(expect)[::-1]
        assert np.allclose(schmidt_coefficients(v, cut) ** 2, mu, atol=1e-12)
        residual = is_maximally_entangled(v, CutRestricted(cut, 2)).max_residual
        assert residual == pytest.approx(np.linalg.norm(expect - np.eye(2) / 2), abs=1e-12)


def test_xy_vectors_are_an_orthonormal_pair():
    # the second family's vectors read (|0>|x> + |1>|y>)/sqrt(2) under sigma_0
    x, y = (t.factors[1] for t in umeb_2x3_type2().vectors[0].terms)
    assert x.is_unit(1e-12)
    assert y.is_unit(1e-12)
    assert abs(np.vdot(x.amps, y.amps)) < 1e-12
    assert np.allclose(
        x.amps,
        np.array([1, (1 + np.sqrt(3) * 1j) / 2, 1]) / np.sqrt(3),
        atol=1e-15,
    )
    assert np.allclose(
        y.amps,
        np.array([(-np.sqrt(3) + 1j) / 2, 1j, -1j]) / np.sqrt(3),
        atol=1e-15,
    )


def test_bipartite_families_structure():
    t1, t2 = umeb_2x3_type1(), umeb_2x3_type2()
    assert t1.labels == ("phi0", "phi1", "phi2", "phi3")
    assert t2.labels == ("psi0", "psi1", "psi2", "psi3")
    for fam in (t1, t2):
        assert fam.shape.dims == (2, 3)
        assert check_orthonormal(fam).ok
        cut = Bipartition(fam.shape, (0,))
        for ket in fam.kets:
            sc = schmidt_coefficients(ket, cut)
            assert np.allclose(sc, [2**-0.5, 2**-0.5], atol=1e-12)
    # the two families sit at overlap 1/sqrt(6) on matching indices
    assert abs(np.vdot(t1.kets[0].amps, t2.kets[0].amps)) == pytest.approx(6**-0.5, abs=1e-12)


def test_first_family_vectors_written_out():
    fam = umeb_2x3x3_first()
    assert fam.labels[:4] == ("phi00", "phi01", "phi02", "phi10")
    # phi00 = (|000> + |111>)/sqrt(2) in 2x3x3 flat indexing: 0 and 9+3+1=13
    expect = np.zeros(18)
    expect[[0, 13]] = 2**-0.5
    assert np.allclose(fam.kets[0].amps, expect, atol=1e-15)
    # phi01 = (|001> + |112>)/sqrt(2): flat 1 and 14
    expect = np.zeros(18)
    expect[[1, 14]] = 2**-0.5
    assert np.allclose(fam.kets[1].amps, expect, atol=1e-15)


def test_lift_reproduces_the_explicit_tripartite_families():
    for base, fam in (
        (umeb_2x3_type1(), umeb_2x3x3_first()),
        (umeb_2x3_type2(), umeb_2x3x3_second()),
    ):
        lifted = lift_umeb(base, 3)
        assert lifted.labels == fam.labels
        for got, expect in zip(lifted.kets, fam.kets):
            assert np.allclose(got.amps, expect.amps, atol=1e-14)
        assert set_match_distance(lifted, fam) < 1e-12


def test_lift_validation():
    with pytest.raises(ValueError, match="bipartite"):
        lift_umeb(umeb_2x3x3_first(), 3)
    with pytest.raises(ValueError, match="d1 <= d2 <= d3"):
        lift_umeb(umeb_2x3_type1(), 2)
    s = SystemShape((2, 3))
    bare = LabeledBasis(
        "bare", s, ("a",), (DecomposedVector(basis_ket(s, (0, 0))),)
    )
    with pytest.raises(ValueError, match="decomposition"):
        lift_umeb(bare, 3)
    s2, s3 = SystemShape((2,)), SystemShape((3,))
    skew = LabeledBasis(
        "skew",
        s,
        ("a",),
        (
            DecomposedVector(
                Ket(s, [0.8, 0, 0, 0, 0.6, 0]),
                ((0,), (1,)),
                (
                    ProductTerm(0.8, (basis_ket(s2, (0,)), basis_ket(s3, (0,)))),
                    ProductTerm(0.6, (basis_ket(s2, (1,)), basis_ket(s3, (1,)))),
                ),
            ),
        ),
    )
    with pytest.raises(ValueError, match="equal coefficients"):
        lift_umeb(skew, 3)


def test_lift_generalizes_to_3x3x3():
    # three Weyl-phased maximally entangled vectors of 3x3 lift to an
    # orthonormal GHZ-type-entangled set of nine vectors in 3x3x3
    s3 = SystemShape((3,))
    omega = np.exp(2j * np.pi / 3)
    vectors = []
    for a in range(3):
        terms = tuple(
            ProductTerm(
                3**-0.5,
                (Ket(s3, omega ** (a * l) * np.eye(3)[l]), basis_ket(s3, (l,))),
            )
            for l in range(3)
        )
        amps = sum(t.coefficient * np.kron(t.factors[0].amps, t.factors[1].amps) for t in terms)
        vectors.append(DecomposedVector(Ket(SystemShape((3, 3)), amps), ((0,), (1,)), terms))
    base = LabeledBasis("weyl", SystemShape((3, 3)), ("w0", "w1", "w2"), tuple(vectors))
    lifted = lift_umeb(base, 3)
    assert len(lifted) == 9
    assert check_orthonormal(lifted).ok
    for ket in lifted.kets:
        assert is_maximally_entangled(ket, GhzType(3)).ok


def test_registry_round_trip():
    names = basis_names()
    assert set(names) == {
        "meb8",
        "umeb-2x3-1",
        "umeb-2x3-2",
        "umeb-2x3x3-1",
        "umeb-2x3x3-2",
        "ghz3",
    }
    for name in names:
        b = named_basis(name)
        assert b.name == name
        g = gram_matrix(b.kets)
        assert np.max(np.abs(g - np.eye(len(b)))) < 1e-12
    with pytest.raises(ValueError, match="unknown basis"):
        named_basis("nope")
