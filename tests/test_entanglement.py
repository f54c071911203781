"""Schmidt data, the three maximal-entanglement predicates, and the
defect machinery the search optimizes.  Residuals, defects and gradients
all come from one row-blocked kernel; they are checked against einsum/SVD
oracles, across kernel blocks, and closed-form against finite-difference
gradients."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from umeb.constructions import ghz3, lift_umeb, umeb_2x3_type1, umeb_2x3x3_first
from umeb.entanglement import (
    _BLOCK_AMPS,
    CutRestricted,
    GhzType,
    Strict,
    _small_side,
    coords_to_ket,
    cut_residual,
    defect,
    defect_coords_batch,
    defect_gradient,
    is_maximally_entangled,
    predicate_cuts,
    predicate_label,
    schmidt_coefficients,
)
from umeb.hilbert import (
    Bipartition,
    Ket,
    SystemShape,
    all_bipartitions,
    apply_local,
    basis_ket,
    kron,
    orthonormal_complement,
    random_unit_ket,
    random_unitary,
    stack_amps,
)


def bell22():
    s = SystemShape((2, 2))
    return Ket(s, np.array([1, 0, 0, 1]) / np.sqrt(2))


def w_state():
    s = SystemShape((2, 2, 2))
    amps = np.zeros(8)
    amps[[1, 2, 4]] = 1 / np.sqrt(3)
    return Ket(s, amps)


def test_schmidt_coefficients_of_known_states():
    v = bell22()
    sc = schmidt_coefficients(v, Bipartition(v.shape, (0,))).coefficients
    assert np.allclose(sc, [2**-0.5, 2**-0.5], atol=1e-12)
    p = kron(basis_ket(SystemShape((2,)), (0,)), basis_ket(SystemShape((3,)), (1,)))
    sc = schmidt_coefficients(p, Bipartition(p.shape, (0,))).coefficients
    assert np.allclose(sc, [1.0, 0.0], atol=1e-12)


def test_schmidt_coefficients_against_svd_oracle():
    rng = np.random.default_rng(13)
    shape = SystemShape((2, 3, 3))
    for _ in range(25):
        v = random_unit_ket(shape, rng)
        for sites in ((0,), (1,), (2,)):
            cut = Bipartition(shape, sites)
            got = schmidt_coefficients(v, cut).coefficients
            t = v.amps.reshape(2, 3, 3)
            order = sites + tuple(s for s in range(3) if s not in sites)
            m = np.transpose(t, order).reshape(cut.dim_a, cut.dim_b)
            expect = np.linalg.svd(m, compute_uv=False)
            assert np.allclose(got, expect[: got.size], atol=1e-11)


def test_schmidt_spectrum_same_on_both_cut_orientations():
    rng = np.random.default_rng(19)
    shape = SystemShape((2, 3, 3))
    v = random_unit_ket(shape, rng)
    a = schmidt_coefficients(v, Bipartition(shape, (1,))).coefficients
    b = schmidt_coefficients(v, Bipartition(shape, (0, 2))).coefficients
    assert np.allclose(a, b[: a.size], atol=1e-11)
    assert np.allclose(b[a.size :], 0.0, atol=1e-11)


def test_predicate_validation():
    with pytest.raises(ValueError):
        GhzType(1)
    with pytest.raises(ValueError):
        CutRestricted(Bipartition(SystemShape((2, 3)), (0,)), 0)
    shape = SystemShape((2, 3, 3))
    with pytest.raises(ValueError, match="smallest subsystem"):
        predicate_cuts(GhzType(3), shape)
    wrong = Bipartition(SystemShape((2, 2)), (0,))
    with pytest.raises(ValueError, match="state is over"):
        predicate_cuts(CutRestricted(wrong, 2), shape)


def test_predicate_cut_enumeration_and_labels():
    shape = SystemShape((2, 3, 3))
    assert [c.sites for c in predicate_cuts(Strict(), shape)] == [(0,), (1,), (2,)]
    cut = Bipartition(shape, (1,))
    assert predicate_cuts(CutRestricted(cut, 2), shape) == [cut]
    assert predicate_label(Strict()) == "strict"
    assert predicate_label(GhzType(2)) == "ghz2"
    assert predicate_label(CutRestricted(Bipartition(shape, (0,)), 2)) == "cut1"


def test_ghz_satisfies_strict_and_ghz_type():
    g = ghz3().vector
    for pred in (Strict(), GhzType(2)):
        chk = is_maximally_entangled(g, pred)
        assert chk.ok
        assert chk.max_residual < 1e-12


def test_product_and_w_states_fail_both_predicates():
    p = basis_ket(SystemShape((2, 2, 2)), (0, 1, 0))
    w = w_state()
    for v in (p, w):
        assert not is_maximally_entangled(v, Strict()).ok
        assert not is_maximally_entangled(v, GhzType(2)).ok


def test_family_vectors_fail_strict_but_pass_ghz_in_2x3x3():
    fam = umeb_2x3x3_first()
    shape = fam.shape
    for ket in fam.kets:
        strict = is_maximally_entangled(ket, Strict())
        assert not strict.ok
        # the first subsystem is fine; the three-dimensional sides cannot
        # reach I/3 from a rank-2 coefficient matrix
        by_sites = {cut.sites: r for cut, r in strict.residuals}
        assert by_sites[(0,)] < 1e-12
        assert by_sites[(1,)] == pytest.approx(6**-0.5, abs=1e-12)
        assert by_sites[(2,)] == pytest.approx(6**-0.5, abs=1e-12)
        assert is_maximally_entangled(ket, GhzType(2)).ok


def test_cut_restricted_sees_only_its_cut():
    fam = umeb_2x3x3_first()
    shape = fam.shape
    pred = CutRestricted(Bipartition(shape, (0,)), 2)
    for ket in fam.kets:
        assert is_maximally_entangled(ket, pred).ok


def test_maximally_entangled_ket_beyond_32_dimensions():
    shape = SystemShape((33, 33))
    amps = np.zeros(shape.total)
    amps[[shape.flat_index((i, i)) for i in range(33)]] = 33**-0.5
    ket = Ket(shape, amps)
    assert is_maximally_entangled(ket, Strict()).ok
    assert not is_maximally_entangled(ket, GhzType(2)).ok  # 33 values of 1/33


def test_is_maximally_entangled_requires_unit_ket():
    s = SystemShape((2, 2))
    v = Ket(s, [1, 0, 0, 1])
    cut = Bipartition(s, (0,))
    with pytest.raises(ValueError, match="not normalized"):
        is_maximally_entangled(v, Strict())
    with pytest.raises(ValueError, match="not normalized"):
        cut_residual(v, cut, Strict())
    with pytest.raises(ValueError, match="not normalized"):
        schmidt_coefficients(v, cut)


def test_cut_residual_validates_predicate_and_cut_against_ket_shape():
    v = bell22()
    cut = Bipartition(v.shape, (0,))
    elsewhere = Bipartition(SystemShape((2, 3)), (0,))
    for pred in (GhzType(3), CutRestricted(cut, 3), CutRestricted(elsewhere, 2)):
        with pytest.raises(ValueError):
            is_maximally_entangled(v, pred)
        with pytest.raises(ValueError):
            cut_residual(v, cut, pred)
    with pytest.raises(ValueError, match="cut is over 2x3"):
        cut_residual(v, elsewhere, Strict())
    with pytest.raises(ValueError, match="cut is over 2x3"):
        schmidt_coefficients(v, elsewhere)


def test_cut_residual_of_product_state():
    p = basis_ket(SystemShape((2, 2)), (0, 0))
    cut = Bipartition(p.shape, (0,))
    # reduced state diag(1, 0) vs I/2: Frobenius distance sqrt(1/2)
    assert cut_residual(p, cut, Strict()) == pytest.approx(2**-0.5, abs=1e-12)
    assert cut_residual(p, cut, GhzType(2)) == pytest.approx(2**-0.5, abs=1e-12)
    assert cut_residual(p, cut, CutRestricted(cut, 2)) == pytest.approx(
        np.linalg.norm([1 - 2**-0.5, 2**-0.5]), abs=1e-12
    )


def _oracle_residual(amps, dims, sites, pred):
    # the reduced state of ``sites`` by one einsum, and spectra by SVD: of
    # rho for ghz, of the regrouped amplitudes for Schmidt coefficients
    t = amps.reshape(dims)
    ket = "abcd"[: len(dims)]
    bra = "".join(c.upper() if i in sites else c for i, c in enumerate(ket))
    kept = "".join(ket[i] for i in sites) + "".join(bra[i] for i in sites)
    da = int(np.prod([dims[i] for i in sites]))
    rho = np.einsum(f"{ket},{bra}->{kept}", t, t.conj()).reshape(da, da)
    if isinstance(pred, Strict):
        return np.linalg.norm(rho - np.eye(da) / da)
    if isinstance(pred, GhzType):
        spec, level = np.linalg.svd(rho, compute_uv=False), 1 / pred.d
    else:
        m = np.moveaxis(t, sites, range(len(sites))).reshape(da, -1)
        spec, level = np.linalg.svd(m, compute_uv=False), pred.d**-0.5
    target = np.zeros(spec.size)
    target[: pred.d] = level
    return np.linalg.norm(spec - target)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    dims=st.sampled_from([(2, 2), (2, 3), (2, 2, 2), (2, 3, 3)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_residuals_match_einsum_and_svd_oracle(dims, seed):
    shape = SystemShape(dims)
    v = random_unit_ket(shape, np.random.default_rng(seed))
    cuts = all_bipartitions(shape)
    for pred in [Strict(), GhzType(2)] + [CutRestricted(c, 2) for c in cuts]:
        for cut, r in is_maximally_entangled(v, pred).residuals:
            assert abs(r - _oracle_residual(v.amps, dims, cut.sites, pred)) <= 1e-12
    for cut in cuts:  # both sides, e.g. the 6x6 state on sites (0, 2) of 2x3x3
        for sites in (cut.sites, cut.other_sites):
            side = Bipartition(shape, sites)
            for pred in (Strict(), GhzType(2), CutRestricted(cut, 2)):
                expect = _oracle_residual(v.amps, dims, sites, pred)
                assert abs(cut_residual(v, side, pred) - expect) <= 1e-12


def test_defect_zero_exactly_on_satisfying_states():
    g = ghz3().vector
    assert defect(g, Strict()) < 1e-28
    assert defect(g, GhzType(2)) < 1e-28
    p = basis_ket(SystemShape((2, 2, 2)), (0, 0, 0))
    assert defect(p, Strict()) == pytest.approx(3 * 0.5, abs=1e-12)
    assert defect(p, GhzType(2)) > 0.1


def test_defect_value_on_family_vector():
    # family vectors are GHZ-type but miss strict on the two 3-dim cuts,
    # each contributing ||diag(1/2,1/2,0) - I/3||_F^2 = 1/6
    ket = umeb_2x3x3_first().kets[0]
    assert defect(ket, Strict()) == pytest.approx(1 / 3, abs=1e-12)
    assert defect(ket, GhzType(2)) < 1e-28


def test_defect_is_global_phase_and_local_unitary_invariant():
    rng = np.random.default_rng(37)
    shape = SystemShape((2, 3, 3))
    for pred in (Strict(), GhzType(2), CutRestricted(Bipartition(shape, (1,)), 2)):
        for _ in range(5):
            v = random_unit_ket(shape, rng)
            base = defect(v, pred)
            rotated = Ket(shape, np.exp(1j * rng.uniform(0, 2 * np.pi)) * v.amps)
            assert defect(rotated, pred) == pytest.approx(base, abs=1e-14)
            ops = [random_unitary(d, rng) for d in shape.dims]
            assert defect(apply_local(ops, v), pred) == pytest.approx(base, abs=1e-12)


def test_coords_roundtrip_and_validation():
    fam = umeb_2x3_type1()
    frame = orthonormal_complement(fam.kets)
    w = np.zeros(2 * len(frame))
    w[0] = 3.0  # scale is divided out
    ket = coords_to_ket(w, frame)
    assert ket.is_unit(1e-12)
    assert np.allclose(ket.amps, frame[0].amps, atol=1e-12)
    with pytest.raises(ValueError):
        coords_to_ket(np.zeros(2 * len(frame)), frame)
    with pytest.raises(ValueError):
        coords_to_ket(np.ones(3), frame)


def _einsum_defect(amps, pred):
    # independent route for 2x3x3: reduced states by einsum, one string per
    # single-site cut, and the cut1 spectrum from eigvalsh
    t = amps.reshape(2, 3, 3)
    rhos = {
        (0,): np.einsum("ijk,ljk->il", t, t.conj()),
        (1,): np.einsum("ijk,ilk->jl", t, t.conj()),
        (2,): np.einsum("ijk,ijl->kl", t, t.conj()),
    }
    if isinstance(pred, Strict):
        return sum(np.sum(np.abs(r - np.eye(len(r)) / len(r)) ** 2) for r in rhos.values())
    if isinstance(pred, GhzType):
        return sum(np.sum(np.abs(r @ r - r / pred.d) ** 2) for r in rhos.values())
    mu = np.linalg.eigvalsh(rhos[pred.cut.sites])[::-1]
    return np.sum((mu[: pred.d] - 1 / pred.d) ** 2) + np.sum(mu[pred.d :] ** 2)


def test_defect_coords_agrees_with_scalar_defect():
    # both forms share one kernel, so each is checked against the oracle
    rng = np.random.default_rng(43)
    fam = umeb_2x3x3_first()
    frame = orthonormal_complement(fam.kets)
    shape = fam.shape
    preds = (Strict(), GhzType(2), CutRestricted(Bipartition(shape, (0,)), 2))
    for _ in range(20):
        w = rng.standard_normal(2 * len(frame))
        w /= np.linalg.norm(w)
        ket = coords_to_ket(w, frame)
        for pred in preds:
            expect = _einsum_defect(ket.amps, pred)
            assert defect_coords_batch(w[None, :], pred, frame)[0] == pytest.approx(expect, abs=1e-12)
            assert defect(ket, pred) == pytest.approx(expect, abs=1e-12)


def test_defect_coords_batch_matches_loop():
    rng = np.random.default_rng(47)
    fam = umeb_2x3x3_first()
    frame = orthonormal_complement(fam.kets)
    W = rng.standard_normal((16, 2 * len(frame)))
    for pred in (Strict(), GhzType(2)):
        batch = defect_coords_batch(W, pred, frame)
        single = [defect_coords_batch(w[None, :], pred, frame)[0] for w in W]
        assert np.allclose(batch, single, atol=1e-13)


def test_defect_coords_rejects_near_zero_rows():
    fam = umeb_2x3_type1()
    frame = orthonormal_complement(fam.kets)
    W = np.zeros((2, 2 * len(frame)))
    W[0, 0] = 1.0
    with pytest.raises(ValueError):
        defect_coords_batch(W, Strict(), frame)


def test_defect_coords_batch_spans_kernel_blocks():
    rng = np.random.default_rng(89)
    fam = umeb_2x3x3_first()
    frame = orthonormal_complement(fam.kets)
    shape = fam.shape
    rows = 2 * (_BLOCK_AMPS // shape.total) + 7  # three kernel blocks
    W = rng.standard_normal((rows, 2 * len(frame)))
    preds = (Strict(), GhzType(2), CutRestricted(Bipartition(shape, (0,)), 2))
    for pred in preds:
        batch = defect_coords_batch(W, pred, frame)
        single = np.array([defect_coords_batch(w[None, :], pred, frame)[0] for w in W])
        assert np.max(np.abs(batch - single)) <= 1e-12
    W[-1] *= 1e-9  # a near-zero row in the last block only
    for pred in preds:
        with pytest.raises(ValueError):
            defect_coords_batch(W, pred, frame)


def test_defect_gradient_matches_directional_secant():
    rng = np.random.default_rng(53)
    fam = umeb_2x3x3_first()
    frame = orthonormal_complement(fam.kets)
    pred = GhzType(2)
    for _ in range(10):
        w = rng.standard_normal(2 * len(frame))
        w /= np.linalg.norm(w)
        g = defect_gradient(w, pred, frame)
        d = rng.standard_normal(w.size)
        d /= np.linalg.norm(d)
        h = 1e-6
        hi, lo = defect_coords_batch(np.array([w + h * d, w - h * d]), pred, frame)
        secant = (hi - lo) / (2 * h)
        assert np.dot(g, d) == pytest.approx(secant, abs=1e-7)


def test_defect_gradient_zero_on_constant_landscape():
    # the 2x3 complement is spanned by |02>, |12>; every unit combination
    # has the same defect, so the gradient vanishes: to rounding in closed
    # form, and up to the difference noise floor of roughly eps/step ~ 1e-11
    # with finite differences
    fam = umeb_2x3_type1()
    frame = orthonormal_complement(fam.kets)
    rng = np.random.default_rng(59)
    w = rng.standard_normal(4)
    w /= np.linalg.norm(w)
    for step in (None, 1e-5):
        g = defect_gradient(w, GhzType(2), frame, step=step)
        assert np.max(np.abs(g)) < 1e-9


def test_defect_gradient_requires_unit_coordinates():
    fam = umeb_2x3_type1()
    frame = orthonormal_complement(fam.kets)
    with pytest.raises(ValueError):
        defect_gradient(np.full(4, 2.0), Strict(), frame)


def test_defect_gradient_of_block_matches_rows():
    # with step=1e-5, 20 rows of 24 coordinates make 960 probes, more than
    # one kernel block; the closed form evaluates the 20 rows once
    rng = np.random.default_rng(97)
    fam = umeb_2x3x3_first()
    frame = orthonormal_complement(fam.kets)
    W = rng.standard_normal((20, 2 * len(frame)))
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    preds = (Strict(), GhzType(2), CutRestricted(Bipartition(fam.shape, (0,)), 2))
    for step in (None, 1e-5):
        for pred in preds:
            block = defect_gradient(W, pred, frame, step=step)
            assert block.shape == W.shape
            rows = np.array([defect_gradient(w, pred, frame, step=step) for w in W])
            assert np.max(np.abs(block - rows)) <= 1e-9
        for bad in (0, 9, 19):
            V = W.copy()
            V[bad] *= 1.5
            with pytest.raises(ValueError):
                defect_gradient(V, Strict(), frame, step=step)


def _unit_rows(rng, m, n):
    W = rng.standard_normal((m, n))
    return W / np.linalg.norm(W, axis=1, keepdims=True)


def _frames():
    return {
        "2x3x3": orthonormal_complement(umeb_2x3x3_first().kets),
        "2x3x6": orthonormal_complement(lift_umeb(umeb_2x3_type1(), 6).kets),
    }


@pytest.mark.parametrize("frame_name", ["2x3x3", "2x3x6"])
def test_closed_form_gradient_matches_finite_differences(frame_name):
    rng = np.random.default_rng(101)
    frame = _frames()[frame_name]
    shape = frame[0].shape
    W = _unit_rows(rng, 12, 2 * len(frame))
    for pred in (Strict(), GhzType(2), CutRestricted(Bipartition(shape, (0,)), 2)):
        exact = defect_gradient(W, pred, frame)
        reference = defect_gradient(W, pred, frame, step=1e-5)
        assert np.max(np.abs(exact - reference)) <= 1e-7


def test_closed_form_gradient_below_the_small_side_dimension():
    # d = 2 on a three-dimensional side: the defect is not polynomial in
    # rho and the gradient goes through the eigenvectors of rho.  The
    # family complements keep site 1 pure, so take a random subspace
    rng = np.random.default_rng(103)
    shape = SystemShape((2, 3, 3))
    basis = random_unitary(shape.total, rng).entries[:6]
    frame = orthonormal_complement([Ket(shape, row) for row in basis])
    cut = Bipartition(shape, (1,))
    pred = CutRestricted(cut, 2)
    W = _unit_rows(rng, 12, 2 * len(frame))
    for w in W:  # the spectra at these rows are well separated
        mu = schmidt_coefficients(coords_to_ket(w, frame), cut).coefficients ** 2
        assert np.min(-np.diff(mu)) > 1e-3
    exact = defect_gradient(W, pred, frame)
    reference = defect_gradient(W, pred, frame, step=1e-5)
    assert np.max(np.abs(exact - reference)) <= 1e-7


def test_closed_form_gradient_is_tangent_to_scale_and_phase():
    rng = np.random.default_rng(107)
    for frame in _frames().values():
        shape = frame[0].shape
        W = _unit_rows(rng, 10, 2 * len(frame))
        iW = np.empty_like(W)  # the coordinates of i * z
        iW[:, 0::2], iW[:, 1::2] = -W[:, 1::2], W[:, 0::2]
        preds = (
            Strict(),
            GhzType(2),
            CutRestricted(Bipartition(shape, (0,)), 2),
            CutRestricted(Bipartition(shape, (1,)), 2),
        )
        for pred in preds:
            g = defect_gradient(W, pred, frame)
            assert np.max(np.abs(np.sum(g * W, axis=1))) < 1e-12
            assert np.max(np.abs(np.sum(g * iW, axis=1))) < 1e-12


def test_closed_form_gradient_spans_kernel_blocks():
    rng = np.random.default_rng(109)
    fam = umeb_2x3x3_first()
    frame = orthonormal_complement(fam.kets)
    rows = 2 * (_BLOCK_AMPS // fam.shape.total) + 7  # three kernel blocks
    W = _unit_rows(rng, rows, 2 * len(frame))
    preds = (Strict(), GhzType(2), CutRestricted(Bipartition(fam.shape, (1,)), 2))
    for pred in preds:
        block = defect_gradient(W, pred, frame)
        single = np.array([defect_gradient(w, pred, frame) for w in W])
        assert np.max(np.abs(block - single)) <= 1e-12
    V = W.copy()
    V[-1] *= 1.5
    with pytest.raises(ValueError, match="unit kets"):
        defect_gradient(V, Strict(), frame)
    # a frame whose last two kets coincide: a unit coordinate row can then
    # encode the zero vector, which the block kernel must refuse
    twin = frame[:-1] + frame[-2:-1]
    V = W.copy()
    V[-1] = 0.0
    V[-1, -4], V[-1, -2] = 2**-0.5, -(2**-0.5)
    with pytest.raises(ValueError, match="near-zero"):
        defect_gradient(V, Strict(), twin)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    dims=st.sampled_from([(2, 2), (2, 3), (2, 2, 2), (2, 3, 3)]),
    data=st.data(),
)
def test_closed_form_gradient_matches_finite_differences_on_random_bases(dims, data):
    shape = SystemShape(dims)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    kept = data.draw(st.integers(1, shape.total - 1), label="basis size")
    basis = random_unitary(shape.total, rng).entries[:kept]
    frame = orthonormal_complement([Ket(shape, row) for row in basis])
    if data.draw(st.booleans(), label="skewed frame"):
        # same span, no longer orthonormal: rows then encode non-unit vectors
        c = len(frame)
        mix = np.eye(c) + 0.3 * (rng.standard_normal((c, c)) + 1j * rng.standard_normal((c, c)))
        frame = [Ket(shape, row) for row in mix @ stack_amps(frame)]
    sites = data.draw(st.sampled_from(range(len(dims))), label="cut site")
    pred = data.draw(
        st.sampled_from([Strict(), GhzType(2), CutRestricted(Bipartition(shape, (sites,)), 2)]),
        label="predicate",
    )
    W = _unit_rows(rng, 3, 2 * len(frame))
    if isinstance(pred, CutRestricted):
        cut = _small_side(pred.cut)
        for w in W:  # finite differences need a gap at the d-th eigenvalue
            mu = schmidt_coefficients(coords_to_ket(w, frame), cut).coefficients ** 2
            assume(mu.size == pred.d or mu[pred.d - 1] - mu[pred.d] > 1e-3)
    exact = defect_gradient(W, pred, frame)
    reference = defect_gradient(W, pred, frame, step=1e-5)
    assert np.max(np.abs(exact - reference)) <= 1e-7
