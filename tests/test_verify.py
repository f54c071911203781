"""Orthonormality/completeness checks, the sphere optimizer, the
unextendibility search, and overlap reports."""

import itertools

import numpy as np
import pytest

import umeb.constructions
import umeb.verify
from umeb.cli import basis_file_text, main, search_json_text
from umeb.constructions import (
    DecomposedVector,
    LabeledBasis,
    meb8,
    umeb_2x3_type1,
    umeb_2x3x3_first,
    umeb_2x3x3_second,
)
from umeb.entanglement import (
    CutRestricted,
    GhzType,
    Strict,
    coords_to_ket,
    is_maximally_entangled,
)
from umeb.hilbert import (
    Bipartition,
    Ket,
    SystemShape,
    basis_ket,
    orthonormal_complement,
    stack_amps,
)
from umeb.verify import (
    CAVEATS,
    SearchConfig,
    check_completeness,
    check_orthonormal,
    minimize_on_sphere,
    mub_overlap,
    set_match_distance,
    unextendibility_search,
)


def small_cfg(restarts=4, seed=0):
    return SearchConfig(restarts=restarts, seed=seed)


def test_check_orthonormal_accepts_and_rejects():
    assert check_orthonormal(meb8()).ok
    s = SystemShape((2, 2))
    tilted = LabeledBasis(
        "tilted",
        s,
        ("a", "b"),
        (
            DecomposedVector(basis_ket(s, (0, 0))),
            DecomposedVector(Ket(s, np.array([1, 1, 0, 0]) / np.sqrt(2))),
        ),
    )
    chk = check_orthonormal(tilted)
    assert not chk.ok
    assert chk.residual == pytest.approx(2**-0.5, abs=1e-12)


def test_check_completeness():
    assert check_completeness(meb8()) == (8, True)
    fam = umeb_2x3x3_first()
    assert check_completeness(fam) == (12, False)


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(restarts=0)
    with pytest.raises(ValueError):
        SearchConfig(shrink=1.0)
    with pytest.raises(ValueError):
        SearchConfig(step=0.0)
    with pytest.raises(ValueError):
        SearchConfig(grad_tol=-1.0)
    # a NaN step or grad_tol, or an infinite grad_tol, would stop every
    # restart at its start and report a start value as the minimum
    for field in ("step", "grad_tol"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite and positive"):
                SearchConfig(**{field: value})


def test_search_config_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        SearchConfig(seed=-1)
    assert SearchConfig(seed=0).seed == 0


def quadratic(diag):
    """Block callbacks of w.Aw for diagonal A; its minimum on the unit
    sphere is the smallest eigenvalue, reached at the matching unit vector."""
    a = np.diag(diag)
    return (lambda W: np.einsum("ij,jk,ik->i", W, a, W)), (lambda W: 2.0 * (W @ a))


def test_minimize_on_sphere_finds_smallest_eigenvalue():
    value, grad = quadratic([3.0, 2.0, 0.5, 1.0])
    rng = np.random.default_rng(67)
    W0 = rng.standard_normal((5, 4))
    W, f, histories = minimize_on_sphere(value, grad, W0, SearchConfig())
    assert W.shape == (5, 4) and f.shape == (5,) and len(histories) == 5
    for w, fr, history in zip(W, f, histories):
        assert fr == pytest.approx(0.5, abs=1e-9)
        assert abs(w[2]) == pytest.approx(1.0, abs=1e-4)
        assert all(b <= a_ for a_, b in zip(history, history[1:]))
        assert history[-1] == fr


def test_minimize_on_sphere_rows_descend_independently():
    # a stiff landscape, so each row backtracks to its own step sizes; row 2
    # starts at the minimum and stops at once while the others keep
    # descending, and every row ends where it ends when run alone
    value, grad = quadratic([100.0, 20.0, 0.5, 1.0])
    rng = np.random.default_rng(71)
    W0 = rng.standard_normal((5, 4))
    W0[2] = [0.0, 0.0, 1.0, 0.0]
    value_rows, grad_rows = [], []

    def counted_value(W):
        value_rows.append(len(W))
        return value(W)

    def counted_grad(W):
        grad_rows.append(len(W))
        return grad(W)

    cfg = SearchConfig()
    W, f, histories = minimize_on_sphere(counted_value, counted_grad, W0, cfg)
    assert value_rows[0] == 5 and max(value_rows[1:]) <= 4
    assert grad_rows[:2] == [5, 4]
    assert histories[2] == [0.5]
    assert np.array_equal(W[2], W0[2])
    assert all(len(h) > 1 for r, h in enumerate(histories) if r != 2)
    for r in range(5):
        w1, f1, h1 = minimize_on_sphere(value, grad, W0[r : r + 1], cfg)
        assert abs(f1[0] - f[r]) <= 1e-12
        assert np.allclose(w1[0], W[r], atol=1e-9)
        assert len(h1[0]) == len(histories[r])


def test_minimize_on_sphere_stops_where_rounding_hides_any_decrease():
    # a flat landscape at 1/4 with a tangent gradient of norm 5e-8, above
    # grad_tol: no step can show a decrease above the rounding of 1/4, so
    # each row gives up after a trial or two instead of halving its step
    # down to 1e-14
    turn = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    value_calls = []

    def value(W):
        value_calls.append(len(W))
        return np.full(len(W), 0.25)

    def grad(W):  # turn @ w is orthogonal to w and as long
        return 5e-8 * (W @ turn.T)

    W0 = np.random.default_rng(73).standard_normal((3, 4))
    W, f, histories = minimize_on_sphere(value, grad, W0, SearchConfig())
    assert 1 < len(value_calls) <= 3
    assert histories == [[0.25]] * 3
    assert np.array_equal(W, W0 / np.linalg.norm(W0, axis=1)[:, None])
    # the stop leaves a stiff quadratic's descent to its minimum intact
    value, grad = quadratic([100.0, 20.0, 0.5, 1.0])
    W0 = np.random.default_rng(79).standard_normal((4, 4))
    W, f, histories = minimize_on_sphere(value, grad, W0, SearchConfig())
    assert np.all(np.abs(f - 0.5) <= 1e-9)


def test_minimize_on_sphere_rejects_zero_start():
    cfg = SearchConfig()
    with pytest.raises(ValueError):
        minimize_on_sphere(lambda w: 0.0, lambda w: w, np.zeros(4), cfg)
    W0 = np.ones((3, 4))
    W0[1] = 0.0
    with pytest.raises(ValueError):
        minimize_on_sphere(*quadratic([3.0, 2.0, 0.5, 1.0]), W0, cfg)


def test_search_on_complete_basis_reports_complete():
    res = unextendibility_search(meb8(), Strict(), small_cfg())
    assert res.verdict == "complete"
    assert res.complement_dim == 0
    assert res.min_defect is None
    assert res.argmin is None
    assert res.witness is None
    assert res.per_restart_minima == ()


def test_search_is_deterministic():
    # the first search builds its starts and the second reads them cached
    fam = umeb_2x3_type1()
    cfg = small_cfg()
    umeb.verify._starts.cache_clear()
    r1 = unextendibility_search(fam, GhzType(2), cfg)
    r2 = unextendibility_search(fam, GhzType(2), cfg)
    assert umeb.verify._starts.cache_info()[:2] == (1, 1)  # hits, misses
    assert r1.per_restart_minima == r2.per_restart_minima
    assert np.array_equal(r1.argmin.amps, r2.argmin.amps)
    assert search_json_text(fam, "ghz2", r1, cfg) == search_json_text(fam, "ghz2", r2, cfg)


def test_search_reuses_the_complement_kept_with_the_basis(monkeypatch):
    calls, real = [], umeb.constructions.orthonormal_complement
    monkeypatch.setattr(
        umeb.constructions, "orthonormal_complement", lambda kets: calls.append(kets) or real(kets)
    )
    cfg = small_cfg()

    def search_text(basis):
        return search_json_text(basis, "ghz2", unextendibility_search(basis, GhzType(2), cfg), cfg)

    basis = umeb_2x3x3_first()
    texts = [search_text(basis), search_text(basis)]
    assert len(calls) == 1
    assert texts == [search_text(umeb_2x3x3_first())] * 2
    assert len(calls) == 2
    s = SystemShape((2, 2))
    twice = DecomposedVector(basis_ket(s, (0, 1)))
    dependent = LabeledBasis("dependent", s, ("a", "b"), (twice, twice))
    for _ in range(2):
        with pytest.raises(ValueError, match="numerical rank"):
            unextendibility_search(dependent, Strict(), cfg)
    assert len(calls) == 4


def test_search_result_invariants():
    fam = umeb_2x3x3_first()
    cfg = small_cfg(restarts=3)
    res = unextendibility_search(fam, GhzType(2), cfg)
    assert res.complement_dim == 6
    assert len(res.per_restart_minima) == 3
    assert res.min_defect == res.per_restart_minima[0]
    assert list(res.per_restart_minima) == sorted(res.per_restart_minima)
    assert res.argmin.is_unit(1e-10)
    cross = stack_amps(fam.kets).conj() @ res.argmin.amps
    assert np.max(np.abs(cross)) < 1e-10


def test_search_certifies_bipartite_family():
    fam = umeb_2x3_type1()
    res = unextendibility_search(fam, GhzType(2), small_cfg())
    assert res.verdict == "unextendible"
    assert res.min_defect == pytest.approx(0.25, abs=1e-9)
    res = unextendibility_search(fam, Strict(), small_cfg())
    assert res.min_defect == pytest.approx(0.5, abs=1e-9)


def test_search_tie_break_takes_lowest_restart_index():
    # the 2x3 complement landscape is constant, so every restart ties and
    # the argmin must be restart 0's (immediately converged) start point
    fam = umeb_2x3_type1()
    frame = orthonormal_complement(fam.kets)
    res = unextendibility_search(fam, GhzType(2), small_cfg(restarts=5, seed=9))
    rng = np.random.default_rng((9, 0))
    w0 = rng.standard_normal(2 * len(frame))
    expect = coords_to_ket(w0 / np.linalg.norm(w0), frame)
    assert np.allclose(res.argmin.amps, expect.amps, atol=1e-14)


def test_search_beyond_one_lockstep_group_keeps_seeds_and_tie_rule():
    # 35 restarts run as two lockstep groups; on the constant 2x3 landscape
    # every restart ties, and the argmin is still restart 0's start point.
    # Each group's starts are built once, as one read-only block of the
    # default_rng((seed, r)) draws
    fam = umeb_2x3_type1()
    frame = orthonormal_complement(fam.kets)
    umeb.verify._starts.cache_clear()
    res = unextendibility_search(fam, GhzType(2), small_cfg(restarts=35, seed=3))
    assert len(res.per_restart_minima) == 35
    assert max(res.per_restart_minima) == pytest.approx(0.25, abs=1e-12)
    w0 = np.random.default_rng((3, 0)).standard_normal(2 * len(frame))
    expect = coords_to_ket(w0 / np.linalg.norm(w0), frame)
    assert np.allclose(res.argmin.amps, expect.amps, atol=1e-14)
    ncoord = 2 * len(frame)
    blocks = [umeb.verify._starts(3, 0, 32, ncoord), umeb.verify._starts(3, 32, 3, ncoord)]
    assert umeb.verify._starts.cache_info()[:2] == (2, 2)  # hits, misses
    draws = [np.random.default_rng((3, r)).standard_normal(ncoord) for r in range(35)]
    assert np.array_equal(np.concatenate(blocks), draws)
    for block in blocks:
        with pytest.raises(ValueError, match="read-only"):
            block[0, 0] = 0.0


def test_search_work_is_pinned(monkeypatch):
    # callback counts do not depend on the machine: Barzilai–Borwein steps
    # and the rounding-aware stop take each default search to its floor
    # in a few dozen batched calls (several hundred with fixed capped steps),
    # and the move cap leaves at most one backtracking retry per search
    calls = {"defect_coords_batch": 0, "defect_gradient": 0}
    for name in calls:
        kernel = getattr(umeb.verify, name)

        def counted(*args, kernel=kernel, name=name, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)

        monkeypatch.setattr(umeb.verify, name, counted)
    for fam in (umeb_2x3x3_first(), umeb_2x3x3_second()):
        cut1 = CutRestricted(Bipartition(fam.shape, (0,)), 2)
        for pred, floor in ((GhzType(2), 0.25), (Strict(), 5.0 / 6.0), (cut1, 0.0)):
            calls.update(dict.fromkeys(calls, 0))
            res = unextendibility_search(fam, pred, SearchConfig())
            values, grads = calls["defect_coords_batch"], calls["defect_gradient"]
            assert values + grads <= 24
            assert values - grads <= 1
            assert len(res.per_restart_minima) == 32
            assert max(abs(m - floor) for m in res.per_restart_minima) <= 1e-12


def test_minimize_on_sphere_caps_every_move():
    # on an indefinite quadratic one row's first Barzilai–Borwein step sees
    # s.y <= 0; still no trial moves a point by a tangent length alpha |g|
    # above 0.5.  One row per descent, so every trial starts from the point
    # w of the last gradient call: a trial c is w - alpha g renormalized,
    # with g orthogonal to w, so alpha g = w - c / (c.w)
    value, grad = quadratic([-3.0, 2.0, 0.3, 1.0])
    first_sy = []
    for w0 in np.random.default_rng(83).standard_normal((6, 4)):
        at, tangents, moves = [], [], []

        def traced_grad(W):
            w, g = W[0].copy(), grad(W)
            at.append(w)
            tangents.append(g[0] - (g[0] @ w) * w)
            return g

        def traced_value(W):
            if at:
                w, c = at[-1], W[0]
                moves.append(np.linalg.norm(w - c / (c @ w)))
            return value(W)

        W, f, _ = minimize_on_sphere(traced_value, traced_grad, w0, SearchConfig())
        assert abs(f[0] + 3.0) <= 1e-9
        assert max(moves) <= 0.5 + 1e-12
        first_sy.append((at[1] - at[0]) @ (tangents[1] - tangents[0]))
    assert min(first_sy) <= 0.0


def test_proper_subsets_of_meb8_extend():
    # the three-qubit claim on a fixed sample: the first three subsets of
    # every size 1..7 leave a strictly maximally entangled state in the
    # complement, and the search returns it as a checked witness
    m8 = meb8()
    for size in range(1, 8):
        for subset in itertools.islice(itertools.combinations(range(8), size), 3):
            part = LabeledBasis(
                "part",
                m8.shape,
                tuple(m8.labels[i] for i in subset),
                tuple(m8.vectors[i] for i in subset),
            )
            res = unextendibility_search(part, Strict(), small_cfg())
            assert res.verdict == "me_state_found", subset
            assert res.min_defect <= 1e-8
            assert is_maximally_entangled(res.witness, Strict()).ok
            cross = stack_amps(part.kets).conj() @ res.witness.amps
            assert np.max(np.abs(cross)) <= 1e-10


@pytest.mark.parametrize("subset", [(0, 2, 3, 4), (1, 4, 5, 6), (1, 2, 3, 4, 6), (1, 2, 3, 4, 7)])
def test_witness_is_the_minimizing_restart(subset):
    # restarts on these subsets stop at defects from about 1e-22 to 1e-16;
    # an absolute 1e-12 tie once returned a 1e-16 restart as the witness,
    # whose strict residual (about 1e-8) failed the package's own check
    m8 = meb8()
    part = LabeledBasis(
        "part",
        m8.shape,
        tuple(m8.labels[i] for i in subset),
        tuple(m8.vectors[i] for i in subset),
    )
    res = unextendibility_search(part, Strict(), small_cfg())
    assert res.verdict == "me_state_found"
    assert is_maximally_entangled(res.witness, Strict()).ok


def test_search_finds_witness_under_cut_predicate():
    fam = umeb_2x3x3_first()
    pred = CutRestricted(Bipartition(fam.shape, (0,)), 2)
    res = unextendibility_search(fam, pred, small_cfg())
    assert res.verdict == "me_state_found"
    assert res.min_defect < 1e-8
    assert res.witness is not None
    cross = stack_amps(fam.kets).conj() @ res.witness.amps
    assert np.max(np.abs(cross)) < 1e-10


def test_mub_overlap_of_unbiased_pair():
    s = SystemShape((2, 2))
    comp = LabeledBasis(
        "comp",
        s,
        tuple(f"c{i}" for i in range(4)),
        tuple(DecomposedVector(basis_ket(s, divmod(i, 2))) for i in range(4)),
    )
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    hh = np.kron(h, h)
    had = LabeledBasis(
        "had",
        s,
        tuple(f"h{i}" for i in range(4)),
        tuple(DecomposedVector(Ket(s, hh[:, i])) for i in range(4)),
    )
    rep = mub_overlap(comp, had)
    assert rep.unbiased
    assert rep.first_violation is None
    assert rep.max_deviation < 1e-12
    assert rep.target == pytest.approx(0.5)
    assert rep.note == ""


def test_mub_overlap_flags_biased_pair():
    m8 = meb8()
    rep = mub_overlap(m8, m8)
    assert not rep.unbiased
    assert rep.first_violation == (0, 0)
    assert rep.magnitudes[0, 0] == pytest.approx(1.0)
    fam = umeb_2x3x3_first()
    rep = mub_overlap(fam, fam)
    assert "listed vectors only" in rep.note
    with pytest.raises(ValueError):
        mub_overlap(m8, fam)


def test_set_match_distance():
    fam = umeb_2x3x3_first()
    assert set_match_distance(fam, fam) == 0.0
    reversed_fam = LabeledBasis(
        "rev",
        fam.shape,
        tuple(reversed(fam.labels)),
        tuple(reversed(fam.vectors)),
    )
    assert set_match_distance(fam, reversed_fam) < 1e-15
    with pytest.raises(ValueError):
        set_match_distance(fam, meb8())


def _verify(capsys, *argv):
    code = main(["verify", *argv])
    return code, capsys.readouterr().out


def test_full_report_on_complete_basis(capsys):
    # the report that umeb verify prints: every check passes on meb8 under
    # both predicates, the empty complement reads as complete, then the caveats
    assert len(CAVEATS) == 3
    for flag in ("strict", "ghz2"):
        code, out = _verify(capsys, "meb8", "--predicate", flag, "--restarts", "4")
        assert code == 0
        assert "orthonormal: yes" in out
        assert "rank: 8/8 (complete)\n" in out
        assert f"predicate {flag}:\n  maximally entangled: all 8 vectors" in out
        assert "  search: complement is empty -> complete\n" in out
        assert out.endswith("caveats:\n" + "".join(f"  - {c}\n" for c in CAVEATS))


def test_full_report_flags_predicate_failures(capsys):
    code, out = _verify(capsys, "umeb-2x3x3-1", "--predicate", "strict", "--restarts", "2")
    assert code == 2
    assert "  maximally entangled: NO -- failing: " in out
    assert "(not complete)\n" in out
    assert out.splitlines()[5].endswith("-> unextendible")


def test_full_report_skips_search_for_dependent_sets(tmp_path, capsys):
    s = SystemShape((2, 2))
    v = basis_ket(s, (0, 0))
    dup = LabeledBasis(
        "dup", s, ("a", "b"), (DecomposedVector(v), DecomposedVector(v))
    )
    path = tmp_path / "dup.json"
    path.write_text(basis_file_text(dup))
    code, out = _verify(capsys, str(path), "--predicate", "strict", "--restarts", "4")
    assert code == 2
    assert "orthonormal: NO" in out
    assert "rank: 1/4 (not complete)\n" in out
    assert "  search: skipped (vectors are linearly dependent)\n" in out
