"""Schmidt data, the three maximal-entanglement predicates, and the
defect machinery the search optimizes.  Residuals, defects and gradients
all come from one row-blocked kernel, which reads every defect off a
frame's real packed pair tensor on small complements and off state
vectors on large ones; they are checked against einsum/SVD oracles,
across kernel blocks on both paths, path against path, the packed path's
two routes against each other, and closed-form against finite-difference
gradients."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umeb.constructions import (
    ghz3,
    lift_umeb,
    meb8,
    umeb_2x3_type1,
    umeb_2x3_type2,
    umeb_2x3x3_first,
    umeb_2x3x3_second,
)
import umeb.entanglement as ent
from umeb.entanglement import (
    CutRestricted,
    GhzType,
    Strict,
    _small_side,
    coords_to_ket,
    defect,
    defect_coords_batch,
    defect_gradient,
    is_maximally_entangled,
    predicate_cuts,
    schmidt_coefficients,
)
from umeb.hilbert import (
    Bipartition,
    Ket,
    SystemShape,
    all_bipartitions,
    apply_local,
    basis_ket,
    orthonormal_complement,
    random_unit_ket,
    random_unitary,
    stack_amps,
)


def cut_restricted(shape, sites):
    """CutRestricted on ``sites``, with d its cut's smaller side."""
    cut = Bipartition(shape, sites)
    return CutRestricted(cut, min(cut.dim_a, cut.dim_b))


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
    sc = schmidt_coefficients(v, Bipartition(v.shape, (0,)))
    assert np.allclose(sc, [2**-0.5, 2**-0.5], atol=1e-12)
    p = basis_ket(SystemShape((2, 3)), (0, 1))
    sc = schmidt_coefficients(p, Bipartition(p.shape, (0,)))
    assert np.allclose(sc, [1.0, 0.0], atol=1e-12)


def test_schmidt_coefficients_against_svd_oracle():
    rng = np.random.default_rng(13)
    shape = SystemShape((2, 3, 3))
    for _ in range(25):
        v = random_unit_ket(shape, rng)
        for sites in ((0,), (1,), (2,)):
            cut = Bipartition(shape, sites)
            got = schmidt_coefficients(v, cut)
            t = v.amps.reshape(2, 3, 3)
            order = sites + tuple(s for s in range(3) if s not in sites)
            m = np.transpose(t, order).reshape(cut.dim_a, cut.dim_b)
            expect = np.linalg.svd(m, compute_uv=False)
            assert np.allclose(got, expect[: got.size], atol=1e-11)


def test_schmidt_spectrum_same_on_both_cut_orientations():
    rng = np.random.default_rng(19)
    shape = SystemShape((2, 3, 3))
    v = random_unit_ket(shape, rng)
    a = schmidt_coefficients(v, Bipartition(shape, (1,)))
    b = schmidt_coefficients(v, Bipartition(shape, (0, 2)))
    assert np.allclose(a, b[: a.size], atol=1e-11)
    assert np.allclose(b[a.size :], 0.0, atol=1e-11)


def test_predicate_validation():
    with pytest.raises(ValueError):
        GhzType(1)
    shape = SystemShape((2, 3, 3))
    with pytest.raises(ValueError, match="smallest subsystem"):
        predicate_cuts(GhzType(3), shape)
    # d must be the dimension of the cut's smaller side, neither below nor above it
    for d in (0, 1, 2, 4):
        with pytest.raises(ValueError, match=f"the cut's smaller side, 3; got d={d}"):
            CutRestricted(Bipartition(shape, (1,)), d)
    with pytest.raises(ValueError, match="the cut's smaller side, 2; got d=3"):
        CutRestricted(Bipartition(shape, (0,)), 3)
    # a cut listed from its larger side (9|2) takes the smaller side's d
    larger = Bipartition(shape, (1, 2))
    assert predicate_cuts(CutRestricted(larger, 2), shape) == [larger]
    wrong = Bipartition(SystemShape((2, 2)), (0,))
    with pytest.raises(ValueError, match="state is over"):
        predicate_cuts(CutRestricted(wrong, 2), shape)


def test_predicate_cut_enumeration_and_labels():
    shape = SystemShape((2, 3, 3))
    assert [c.sites for c in predicate_cuts(Strict(), shape)] == [(0,), (1,), (2,)]
    cut = Bipartition(shape, (1,))
    assert predicate_cuts(CutRestricted(cut, 3), shape) == [cut]


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


def test_strict_state_exists_in_2x3x3():
    # (|0>Phi_0 + |1>Phi_1)/sqrt(2), Phi_k = sum_j |j, j+k mod 3>/sqrt(3): unlike
    # the family vectors it is maximally mixed on every cut, so strict
    # states exist in 2x3x3
    shape = SystemShape((2, 3, 3))
    amps = np.zeros(shape.total)
    for k in range(2):
        for j in range(3):
            amps[shape.flat_index((k, j, (j + k) % 3))] = 6**-0.5
    v = Ket(shape, amps)
    strict = is_maximally_entangled(v, Strict())
    assert strict.ok
    assert [c.sites for c, _ in strict.residuals] == [(0,), (1,), (2,)]
    assert strict.max_residual <= 1e-15
    assert defect(v, Strict()) < 1e-28
    # I/3 on the two 3-dimensional cuts: ||I/9 - I/6||^2 = 1/108 each
    assert defect(v, GhzType(2)) == pytest.approx(1 / 54, abs=1e-15)
    assert not is_maximally_entangled(v, GhzType(2)).ok


def test_cut_restricted_d_is_bounded_by_the_cut_not_the_smallest_site():
    # (|000> + |011> + |122>)/sqrt(3) has Schmidt rank 3 across site 1 | sites
    # (0, 2), a 3|6 cut, although subsystem 0 has dimension 2
    shape = SystemShape((2, 3, 3))
    amps = np.zeros(shape.total)
    amps[[shape.flat_index(t) for t in ((0, 0, 0), (0, 1, 1), (1, 2, 2))]] = 3**-0.5
    v = Ket(shape, amps)
    cut = Bipartition(shape, (1,))
    assert np.allclose(schmidt_coefficients(v, cut), [3**-0.5] * 3, atol=1e-15)
    for side in (cut, Bipartition(shape, (0, 2))):
        chk = is_maximally_entangled(v, CutRestricted(side, 3))
        assert chk.ok and chk.max_residual < 1e-15
        assert defect(v, CutRestricted(side, 3)) < 1e-28
    with pytest.raises(ValueError, match="smaller side, 3; got d=2"):
        CutRestricted(cut, 2)


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
        schmidt_coefficients(v, cut)


def test_is_maximally_entangled_validates_tol():
    g = ghz3().vector
    for tol in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            is_maximally_entangled(g, Strict(), tol=tol)


def test_cut_residual_validates_predicate_and_cut_against_ket_shape():
    v = bell22()
    cut = Bipartition(v.shape, (0,))
    elsewhere = Bipartition(SystemShape((2, 3)), (0,))
    with pytest.raises(ValueError, match="smaller side"):
        CutRestricted(cut, 3)
    for pred in (GhzType(3), CutRestricted(elsewhere, 2)):
        with pytest.raises(ValueError):
            is_maximally_entangled(v, pred)
    with pytest.raises(ValueError, match="cut is over 2x3"):
        schmidt_coefficients(v, elsewhere)


def test_cut_residual_of_product_state():
    p = basis_ket(SystemShape((2, 2)), (0, 0))
    cut = Bipartition(p.shape, (0,))
    # reduced state diag(1, 0) vs I/2: Frobenius distance sqrt(1/2)
    expect = {
        Strict(): 2**-0.5,
        GhzType(2): 2**-0.5,
        CutRestricted(cut, 2): 2**-0.5,
    }
    for pred, r in expect.items():
        ((got_cut, got),) = is_maximally_entangled(p, pred).residuals
        assert got_cut == cut
        assert got == pytest.approx(r, abs=1e-12)


def _oracle_residual(amps, dims, sites, pred):
    # the reduced state of the cut's smaller side by one einsum, and the
    # ghz spectrum by SVD of rho
    da = int(np.prod([dims[i] for i in sites]))
    if da * da > amps.size:
        sites, da = tuple(i for i in range(len(dims)) if i not in sites), amps.size // da
    t = amps.reshape(dims)
    ket = "abcd"[: len(dims)]
    bra = "".join(c.upper() if i in sites else c for i, c in enumerate(ket))
    kept = "".join(ket[i] for i in sites) + "".join(bra[i] for i in sites)
    rho = np.einsum(f"{ket},{bra}->{kept}", t, t.conj()).reshape(da, da)
    if not isinstance(pred, GhzType):
        return np.linalg.norm(rho - np.eye(da) / da)
    target = np.zeros(da)
    target[: pred.d] = 1 / pred.d
    return np.linalg.norm(np.linalg.svd(rho, compute_uv=False) - target)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    dims=st.sampled_from([(2, 2), (2, 3), (2, 2, 2), (2, 3, 3)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_residuals_match_einsum_and_svd_oracle(dims, seed):
    shape = SystemShape(dims)
    v = random_unit_ket(shape, np.random.default_rng(seed))
    cuts = all_bipartitions(shape)
    # CutRestricted on either side of each cut, e.g. sites (0, 2) of 2x3x3
    flipped = [Bipartition(shape, c.other_sites) for c in cuts]
    for pred in [Strict(), GhzType(2)] + [cut_restricted(shape, c.sites) for c in cuts + flipped]:
        for cut, r in is_maximally_entangled(v, pred).residuals:
            assert abs(r - _oracle_residual(v.amps, dims, cut.sites, pred)) <= 1e-12


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
    for pred in (Strict(), GhzType(2), CutRestricted(Bipartition(shape, (1,)), 3)):
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


def test_maximally_entangled_rows_read_zero_without_cancellation(monkeypatch):
    # the complement of four kets of a locally rotated meb8 holds the other
    # four, each maximally mixed on every cut.  Their defects must sit at
    # rounding squared (about 1e-31); a difference of squares such as
    # ||rho||^2 - 1/d would leave rounding itself, about 1e-16
    rng = np.random.default_rng(139)
    ops = [random_unitary(2, rng) for _ in range(3)]
    kets = [apply_local(ops, k) for k in meb8().kets]
    frame = orthonormal_complement(kets[:4])
    W = (stack_amps(kets[4:]) @ stack_amps(frame).conj().T).view(np.float64)
    for pred, route in ((Strict(), "pair"), (cut_restricted(kets[0].shape, (0,)), "frame")):
        assert _kernel_path(pred, frame) == "packed" and _route(pred, frame) == route
        vals = defect_coords_batch(W, pred, frame)
        assert np.min(vals) >= 0.0 and np.max(vals) <= 1e-28
    # the same for GhzType(2), whose kets have rank-2 states on the two
    # 3-dimensional cuts of 2x3x3: the complement of six family kets holds
    # the other six.  A trace polynomial in |Y|^2 and det Y reads them at
    # about 1e-17 of either sign
    for fam in (umeb_2x3x3_first(), umeb_2x3x3_second()):
        frame = orthonormal_complement(fam.kets[:6])
        W = (stack_amps(fam.kets[6:]) @ stack_amps(frame).conj().T).view(np.float64)
        assert _kernel_path(GhzType(2), frame) == "packed" and _route(GhzType(2), frame) == "pair"
        vals = defect_coords_batch(W, GhzType(2), frame)
        assert len(vals) == 6 and np.min(vals) >= 0.0 and np.max(vals) <= 1e-28
    # and on a truncated row space: the complement of the first half of the
    # 2x3x6 lift's kets holds the other half, and its packed pair tensor has
    # rank 32 of 50 rows for GhzType(2) and 4 of 5 for the cut of site 0.
    # The packed path reads every predicate off its row-space map alone, the
    # state path off the complex reduced states, and both read the held kets
    # at rounding squared.  With c = 24 kets, GhzType(2) takes the pair route
    # and the cut of site 0 the frame route
    kets = lift_umeb(umeb_2x3_type1(), 6).kets
    frame = orthonormal_complement(kets[:12])
    W = (stack_amps(kets[12:]) @ stack_amps(frame).conj().T).view(np.float64)
    helpers = [_spy(monkeypatch, name) for name in ("_rho_terms",)]
    monkeypatch.setattr(ent, "_PAIR_MAX", 10**12)
    preds = [(GhzType(2), 32, "pair"), (cut_restricted(kets[0].shape, (0,)), 4, "frame")]
    for pred, rank, route in preds:
        assert _kernel_path(pred, frame) == "packed" and _row_rank(frame, pred) == rank
        assert _route(pred, frame) == route
        vals = defect_coords_batch(W, pred, frame)
        assert len(vals) == 12 and np.min(vals) >= 0.0 and np.max(vals) <= 1e-28
    for pred in (Strict(), GhzType(2), cut_restricted(kets[0].shape, (0,))):
        defect_coords_batch(W, pred, frame)
        defect_gradient(W, pred, frame)
    assert not any(helpers)
    monkeypatch.setattr(ent, "_PAIR_MAX", 0)
    for pred, _, _ in preds:
        assert _kernel_path(pred, frame) == "state"
        vals = defect_coords_batch(W, pred, frame)
        assert len(vals) == 12 and np.min(vals) >= 0.0 and np.max(vals) <= 1e-28
    defect_gradient(W, GhzType(2), frame)
    assert all(helpers)


def test_defect_coords_batch_spans_kernel_blocks(monkeypatch):
    rng = np.random.default_rng(89)
    blocks = _spy(monkeypatch, "_z_block")
    monkeypatch.setattr(ent, "_PAIR_BUDGET", _SPANNING_BUDGET)
    for frame in _frames().values():
        shape = frame[0].shape
        for pred in (Strict(), GhzType(2), CutRestricted(Bipartition(shape, (0,)), 2)):
            W = rng.standard_normal((_SPANNING_ROWS, 2 * len(frame)))
            blocks.clear()
            batch = defect_coords_batch(W, pred, frame)
            assert len(blocks) >= 3
            single = np.array([defect_coords_batch(w[None, :], pred, frame)[0] for w in W])
            assert np.max(np.abs(batch - single)) <= 1e-12
            W[-1] *= 1e-9  # a near-zero row in the last block only
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
    # has the same defect, so the gradient vanishes to rounding
    fam = umeb_2x3_type1()
    frame = orthonormal_complement(fam.kets)
    rng = np.random.default_rng(59)
    w = rng.standard_normal(4)
    w /= np.linalg.norm(w)
    assert np.max(np.abs(defect_gradient(w, GhzType(2), frame))) < 1e-9


@pytest.mark.parametrize("frame_name", ["2x3x3", "2x3x8"])
def test_defect_gradient_scales_inversely_with_row_norm(frame_name):
    # grad(s w) = grad(w) / s on either kernel path, for rows far from unit
    # norm; only a row encoding a near-zero vector raises
    rng = np.random.default_rng(61)
    frame = _frames()[frame_name]
    shape = frame[0].shape
    W = _unit_rows(rng, 3, 2 * len(frame))
    scales = np.array([[0.02], [1.0], [3.7]])
    for pred in (Strict(), GhzType(2), CutRestricted(Bipartition(shape, (0,)), 2)):
        unit = defect_gradient(W, pred, frame)
        scaled = defect_gradient(scales * W, pred, frame) * scales
        assert np.max(np.abs(scaled - unit)) <= 1e-13 * np.max(np.abs(unit))
        with pytest.raises(ValueError, match="near-zero"):
            defect_gradient(1e-7 * W, pred, frame)


def test_defect_gradient_of_block_matches_rows():
    rng = np.random.default_rng(97)
    fam = umeb_2x3x3_first()
    frame = orthonormal_complement(fam.kets)
    W = rng.standard_normal((20, 2 * len(frame)))
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    for pred in (Strict(), GhzType(2), CutRestricted(Bipartition(fam.shape, (0,)), 2)):
        block = defect_gradient(W, pred, frame)
        assert block.shape == W.shape
        rows = np.array([defect_gradient(w, pred, frame) for w in W])
        assert np.max(np.abs(block - rows)) <= 1e-9


def _unit_rows(rng, m, n):
    W = rng.standard_normal((m, n))
    return W / np.linalg.norm(W, axis=1, keepdims=True)


def _central_differences(W, pred, frame, step=1e-5):
    """Central-difference gradient of the coordinate-form defect at each row
    of ``W``, the reference the closed form is tested against: all 2 * 2c
    probes of all rows in one :func:`defect_coords_batch` call."""
    m, n = W.shape
    eye = np.eye(n) * step
    probes = np.concatenate([W[:, None, :] + eye, W[:, None, :] - eye], axis=1)
    vals = defect_coords_batch(probes.reshape(2 * m * n, n), pred, frame).reshape(m, 2 * n)
    return (vals[:, :n] - vals[:, n:]) / (2.0 * step)


# The packed-path block budget of the block-spanning tests, and more than
# twice the rows of the largest kernel block on the frames of _frames()
# under it (910, on the packed path of the 2x3x3 complement)
_SPANNING_BUDGET = 32768
_SPANNING_ROWS = 1827


def _spy(monkeypatch, name):
    """Record the arguments of every call to the kernel function ``name``."""
    calls, real = [], getattr(ent, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ent, name, spy)
    return calls


def _kernel_path(pred, frame):
    """The path the kernel takes on ``frame``: "packed" or "state"."""
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy(mp, "_row_space")
        defect_coords_batch(np.eye(1, 2 * len(frame)), pred, frame)
    return _path_of(calls)


def _route(pred, frame):
    """The route the packed path takes on ``frame``, forced onto that path:
    "frame" or "pair"."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ent, "_PAIR_MAX", 10**12)
        calls = _spy(mp, "_frame_route")
        defect_coords_batch(np.eye(1, 2 * len(frame)), pred, frame)
    return "frame" if calls else "pair"


def _path_of(calls):
    """The path of one kernel call, from the calls it made to ``_row_space``."""
    return "packed" if calls else "state"


def _row_rank(frame, pred):
    """The rank of the packed pair tensor the kernel found for ``pred``: the
    rows of its row-space map ``L`` but the trace row."""
    return len(_space(frame, pred)[0]) - 1


def _space(frame, pred):
    """The kernel's cached row-space maps of ``frame`` for ``pred``."""
    groups = ent._cut_plan(pred, frame[0].shape)[0]
    return ent._row_space(groups, tuple(frame), pred.d if isinstance(pred, GhzType) else None)


def _frames():
    """One complement frame per kernel path.

    On the 2x3x3 family's complement (c = 6, c^2 K = 792) every predicate
    takes the packed path.  On the 2x3x8 lift's (c = 16, c^2 K = 12544),
    above the crossover, strict and ghz2 take the state path and a one-site
    cut of the first two sites the packed path.
    """
    frames = {
        "2x3x3": orthonormal_complement(umeb_2x3x3_first().kets),
        "2x3x8": orthonormal_complement(lift_umeb(umeb_2x3_type1(), 8).kets),
    }
    for name, frame in frames.items():
        path = "packed" if name == "2x3x3" else "state"
        assert _kernel_path(Strict(), frame) == _kernel_path(GhzType(2), frame) == path
    return frames


@pytest.mark.parametrize("frame_name", ["2x3x3", "2x3x8"])
def test_closed_form_gradient_matches_finite_differences(frame_name):
    rng = np.random.default_rng(101)
    frame = _frames()[frame_name]
    shape = frame[0].shape
    W = _unit_rows(rng, 12, 2 * len(frame))
    for pred in (Strict(), GhzType(2), CutRestricted(Bipartition(shape, (0,)), 2)):
        exact = defect_gradient(W, pred, frame)
        reference = _central_differences(W, pred, frame)
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
            CutRestricted(Bipartition(shape, (1,)), 3),
        )
        for pred in preds:
            g = defect_gradient(W, pred, frame)
            assert np.max(np.abs(np.sum(g * W, axis=1))) < 1e-12
            assert np.max(np.abs(np.sum(g * iW, axis=1))) < 1e-12


def test_closed_form_gradient_spans_kernel_blocks(monkeypatch):
    rng = np.random.default_rng(109)
    blocks = _spy(monkeypatch, "_z_block")
    monkeypatch.setattr(ent, "_PAIR_BUDGET", _SPANNING_BUDGET)
    for frame in _frames().values():
        shape = frame[0].shape
        for pred in (Strict(), GhzType(2), CutRestricted(Bipartition(shape, (1,)), 3)):
            W = _unit_rows(rng, _SPANNING_ROWS, 2 * len(frame))
            blocks.clear()
            block = defect_gradient(W, pred, frame)
            assert len(blocks) >= 3
            single = np.array([defect_gradient(w, pred, frame) for w in W])
            assert np.max(np.abs(block - single)) <= 1e-12
        # a frame whose last two kets coincide: a unit coordinate row can then
        # encode the zero vector, which the block kernel must refuse
        twin = frame[:-1] + frame[-2:-1]
        V = W.copy()
        V[-1] = 0.0
        V[-1, -4], V[-1, -2] = 2**-0.5, -(2**-0.5)
        for pred in (Strict(), GhzType(2), cut_restricted(shape, (0,))):
            with pytest.raises(ValueError, match="near-zero"):
                defect_gradient(V, pred, twin)
            with pytest.raises(ValueError, match="near-zero"):
                defect_coords_batch(V, pred, twin)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2), (2, 3, 3), (2, 2, 2, 2)])
def test_pair_and_state_paths_agree(dims, monkeypatch):
    pair_calls = _spy(monkeypatch, "_row_space")
    shape = SystemShape(dims)
    rng = np.random.default_rng(sum(dims) * 113)
    for kept in sorted({1, shape.total // 2, shape.total - 2}):
        basis = random_unitary(shape.total, rng)[:kept]
        frame = orthonormal_complement([Ket(shape, row) for row in basis])
        c = len(frame)
        mix = np.eye(c) + 0.3 * (rng.standard_normal((c, c)) + 1j * rng.standard_normal((c, c)))
        skewed = [Ket(shape, row) for row in mix @ stack_amps(frame)]
        W = _unit_rows(rng, 40, 2 * c)
        preds = [Strict(), GhzType(2)]
        preds += [cut_restricted(shape, (s,)) for s in range(len(dims))]
        for fr in (frame, skewed):
            for pred in preds:
                _assert_paths_agree(W, pred, fr, monkeypatch, pair_calls)


@pytest.mark.parametrize("d3, rank", [(3, 12), (4, 19), (5, 28), (6, 4), (7, 4), (8, 4)])
def test_pair_and_state_paths_agree_on_low_rank_lifts(d3, rank, monkeypatch):
    # the random frames above give nearly full-rank pair tensors; the lifts'
    # complements give a rank far below the K + 1 rows (4 of 50 from d3 = 6
    # on), so every predicate runs on a truncated row space.  Strict reads
    # the cuts GhzType(2) reads; the one-site cut of site 0 has rank 4 of 5,
    # and that of site 1, whose reduced state is pure, rank 1 of 10.  An L
    # of r + 1 rows takes the frame route below c = 2 d3 kets: every
    # predicate from d3 = 6 on and both one-site cuts throughout
    pair_calls = _spy(monkeypatch, "_row_space")
    rng = np.random.default_rng(d3 * 137)
    for fam in (umeb_2x3_type1(), umeb_2x3_type2()):
        frame = orthonormal_complement(lift_umeb(fam, d3).kets)
        shape = frame[0].shape
        W = _unit_rows(rng, 40, 2 * len(frame))
        wide = "frame" if d3 >= 6 else "pair"
        ranks = [
            (GhzType(2), rank, wide),
            (Strict(), rank, wide),
            (CutRestricted(Bipartition(shape, (0,)), 2), 4, "frame"),
            (CutRestricted(Bipartition(shape, (1,)), 3), 1, "frame"),
        ]
        for pred, r, route in ranks:
            assert _row_rank(frame, pred) == r and _route(pred, frame) == route
            _assert_paths_agree(W, pred, frame, monkeypatch, pair_calls)


def _route_frames():
    """The 2x3x3 family complements and the lifts' complements, d3 = 3…8."""
    frames = [orthonormal_complement(fam.kets) for fam in (umeb_2x3x3_first(), umeb_2x3x3_second())]
    for fam in (umeb_2x3_type1(), umeb_2x3_type2()):
        frames += [orthonormal_complement(lift_umeb(fam, d3).kets) for d3 in range(3, 9)]
    return frames


def test_frame_and_pair_routes_agree(monkeypatch):
    # the packed path contracts L either with the pair coordinates q or,
    # never forming q, with the frame's parts Re z and Im z.  Either route
    # serves any L; forcing each on every frame, values agree within 1e-13
    # and gradients within 1e-12
    rng = np.random.default_rng(149)
    monkeypatch.setattr(ent, "_PAIR_MAX", 10**12)
    pair_route, frame_route = ent._pair_route, ent._frame_route
    for frame in _route_frames():
        shape = frame[0].shape
        W = _unit_rows(rng, 40, 2 * len(frame))
        preds = [Strict(), GhzType(2)] + [cut_restricted(shape, (s,)) for s in range(3)]
        for pred in preds:
            out = []
            for route in (pair_route, frame_route):
                monkeypatch.setattr(ent, "_pair_route", route)
                monkeypatch.setattr(ent, "_frame_route", route)
                out.append((defect_coords_batch(W, pred, frame), defect_gradient(W, pred, frame)))
            (v_pair, g_pair), (v_frame, g_frame) = out
            assert np.max(np.abs(v_pair - v_frame)) <= 1e-13
            assert np.max(np.abs(g_pair - g_frame)) <= 1e-12


def test_ghz_map_is_kept_at_its_rank():
    # GhzType's quartic map B has one row per coordinate of the cuts' X, K
    # of them, but rank 14 of 22 on the 2x3x3 complements and 5 of 49 on the
    # 2x3x6 lift's; the kernel keeps B's row space, and S to match
    frames = [orthonormal_complement(fam.kets) for fam in (umeb_2x3x3_first(), umeb_2x3x3_second())]
    frames.append(orthonormal_complement(lift_umeb(umeb_2x3_type1(), 6).kets))
    for frame, rows in zip(frames, (14, 14, 5)):
        _, B, S, i, _ = _space(frame, GhzType(2))
        assert B.shape == (rows, len(i)) and S.shape[1] == rows


def _assert_paths_agree(W, pred, frame, monkeypatch, pair_calls):
    """Values within 1e-13 and gradients within 1e-12 on the state path and
    on the packed path, each forced through ``_PAIR_MAX``."""
    out, paths = {}, []
    for crossover in (0, 10**12):  # state path, then packed path
        monkeypatch.setattr(ent, "_PAIR_MAX", crossover)
        before = len(pair_calls)
        out[crossover] = (defect_coords_batch(W, pred, frame), defect_gradient(W, pred, frame))
        paths.append(_path_of(pair_calls[before:]))
    assert paths == ["state", "packed"]
    (v_state, g_state), (v_packed, g_packed) = out[0], out[10**12]
    assert np.max(np.abs(v_state - v_packed)) <= 1e-13
    assert np.max(np.abs(g_state - g_packed)) <= 1e-12


def _einsum_defect_and_gradient(w, pred, frame):
    # per row, with reduced states and (D (x) I_B) v by einsum on the state
    # tensor: df = 2 Re <g, dv> with g = ((D (x) I_B) v - tr(D rho) v) / |v|^2
    # summed over the cuts, D = dF/drho, so df/dz = 2 conj(amps) g
    shape = frame[0].shape
    amps = stack_amps(frame)
    v = ((w[0::2] + 1j * w[1::2]) @ amps).reshape(shape.dims)
    vv = np.vdot(v, v).real
    f, g = 0.0, np.zeros(shape.dims, dtype=complex)
    for cut in predicate_cuts(pred, shape):
        if isinstance(pred, CutRestricted):
            cut = _small_side(cut)
        left = "abcdefgh"[: shape.nsys]
        right = "".join("ABCDEFGH"[s] if s in cut.sites else left[s] for s in range(shape.nsys))
        out = "".join(left[s] for s in cut.sites) + "".join(right[s] for s in cut.sites)
        rho = np.einsum(f"{left},{right}->{out}", v, v.conj()).reshape(cut.dim_a, cut.dim_a) / vv
        if isinstance(pred, GhzType):
            X = rho @ rho - rho / pred.d
            D = 2 * (X @ rho + rho @ X - X / pred.d)
        else:
            X = rho - np.eye(cut.dim_a) / cut.dim_a
            D = 2 * X
        f += np.sum(np.abs(X) ** 2)
        site_dims = [shape.dims[s] for s in cut.sites]
        Dv = np.einsum(f"{out},{right}->{left}", D.reshape(site_dims + site_dims), v)
        g += (Dv - np.trace(D @ rho).real * v) / vv
    gz = 2 * amps.conj() @ g.ravel()
    return f, np.column_stack([gz.real, gz.imag]).ravel()


@pytest.mark.parametrize("dims", [(2, 3, 3), (2, 3, 6), (4, 4, 4), (8, 8)])
def test_rows_last_kernel_matches_einsum_oracle(dims, monkeypatch):
    # the cuts' tiny products run from 2x2x2 to 8x8x8; every predicate is
    # checked on the state path and on the packed path, whatever c^2 K
    pair_calls = _spy(monkeypatch, "_row_space")
    shape = SystemShape(dims)
    rng = np.random.default_rng(sum(dims) * 131)
    basis = random_unitary(shape.total, rng)[: shape.total // 2]
    frame = orthonormal_complement([Ket(shape, row) for row in basis])
    c = len(frame)
    mix = np.eye(c) + 0.3 * (rng.standard_normal((c, c)) + 1j * rng.standard_normal((c, c)))
    skewed = [Ket(shape, row) for row in mix @ stack_amps(frame)]
    W = _unit_rows(rng, 3, 2 * c)
    preds = [Strict(), GhzType(2)] + [cut_restricted(shape, (s,)) for s in range(len(dims))]
    if min(dims) >= 3:
        # X = Y^2 + aY + bI, Y = rho - I/d_A, where a and b weigh d and d_A apart
        preds.append(GhzType(3))
    for fr in (frame, skewed):
        for pred in preds:
            oracle = [_einsum_defect_and_gradient(w, pred, fr) for w in W]
            values, grads = (np.array(col) for col in zip(*oracle))
            for crossover, path in ((0, "state"), (10**12, "packed")):
                monkeypatch.setattr(ent, "_PAIR_MAX", crossover)
                before = len(pair_calls)
                assert np.max(np.abs(defect_coords_batch(W, pred, fr) - values)) <= 1e-13
                assert np.max(np.abs(defect_gradient(W, pred, fr) - grads)) <= 1e-12
                assert _path_of(pair_calls[before:]) == path


def test_large_complement_takes_the_state_path_uncached(monkeypatch):
    # the 1088-ket complement of the 33x33 maximally entangled ket would need
    # a packed pair tensor of 1088^2 x 1090 reals (about 10 GB, built from a
    # complex one of about 20 GB); the state path
    # must leave nothing that keeps its 19 MB frame alive
    shape = SystemShape((33, 33))
    amps = np.zeros(shape.total)
    amps[:: 33 + 1] = 33**-0.5
    frame = orthonormal_complement([Ket(shape, amps)])
    assert len(frame) == 1088
    rng = np.random.default_rng(127)
    W = _unit_rows(rng, 3, 2 * len(frame))
    d = _unit_rows(rng, 1, 2 * len(frame))[0]
    h = 1e-6
    pair_calls = _spy(monkeypatch, "_row_space")
    for pred in (Strict(), GhzType(2)):
        vals = defect_coords_batch(W, pred, frame)
        for w, v in zip(W, vals):
            assert v == pytest.approx(defect(coords_to_ket(w, frame), pred), abs=1e-12)
        g = defect_gradient(W, pred, frame)
        assert np.max(np.abs(np.sum(g * W, axis=1))) < 1e-12
        hi, lo = defect_coords_batch(np.array([W[0] + h * d, W[0] - h * d]), pred, frame)
        assert np.dot(g[0], d) == pytest.approx((hi - lo) / (2 * h), abs=1e-7)
    assert not pair_calls
    kept = weakref.ref(frame[0])
    del frame
    gc.collect()
    assert kept() is None


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    dims=st.sampled_from([(2, 2), (2, 3), (2, 2, 2), (2, 3, 3)]),
    data=st.data(),
)
def test_closed_form_gradient_matches_finite_differences_on_random_bases(dims, data):
    shape = SystemShape(dims)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    kept = data.draw(st.integers(1, shape.total - 1), label="basis size")
    basis = random_unitary(shape.total, rng)[:kept]
    frame = orthonormal_complement([Ket(shape, row) for row in basis])
    if data.draw(st.booleans(), label="skewed frame"):
        # same span, no longer orthonormal: rows then encode non-unit vectors
        c = len(frame)
        mix = np.eye(c) + 0.3 * (rng.standard_normal((c, c)) + 1j * rng.standard_normal((c, c)))
        frame = [Ket(shape, row) for row in mix @ stack_amps(frame)]
    sites = data.draw(st.sampled_from(range(len(dims))), label="cut site")
    pred = data.draw(
        st.sampled_from([Strict(), GhzType(2), cut_restricted(shape, (sites,))]),
        label="predicate",
    )
    W = _unit_rows(rng, 3, 2 * len(frame))
    exact = defect_gradient(W, pred, frame)
    reference = _central_differences(W, pred, frame)
    assert np.max(np.abs(exact - reference)) <= 1e-7
