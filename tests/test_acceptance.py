"""End-to-end acceptance checks for every headline claim, at the stated
tolerances.  Each criterion prints one pass/fail line (run with
``pytest -s`` to see them) and asserts the same condition.

The unextendibility criteria are checked against an oracle written from
scratch in this file: the orthogonal complement comes from an SVD null
space and the defects from direct einsum contractions, sharing no code
with the package's optimizer path.
"""

import math
import time

import numpy as np

from umeb.cli import main
from umeb.constructions import (
    lift_umeb,
    meb8,
    umeb_2x3_type1,
    umeb_2x3_type2,
    umeb_2x3x3_first,
    umeb_2x3x3_second,
)
from umeb.entanglement import (
    CutRestricted,
    GhzType,
    Strict,
    defect_coords_batch,
    is_maximally_entangled,
    schmidt_coefficients,
)
from umeb.hilbert import (
    Bipartition,
    Ket,
    SystemShape,
    gram_matrix,
    numerical_rank,
    orthonormal_complement,
    stack_amps,
)
from umeb.verify import mub_overlap, set_match_distance, unextendibility_search


def _line(num: int, desc: str, ok: bool) -> bool:
    print(f"criterion {num} ({desc}): {'PASS' if ok else 'FAIL'}")
    return ok


# --- independent oracle helpers -----------------------------------------


def null_frame(kets) -> np.ndarray:
    """Orthonormal rows spanning everything orthogonal to the kets (SVD route)."""
    a = np.array([k.amps for k in kets])
    _, svals, vh = np.linalg.svd(a.conj())
    rank = int(np.sum(svals > 1e-10))
    return vh[rank:].conj()


def oracle_defect(batch: np.ndarray, dims: tuple, kind: str) -> np.ndarray:
    """Strict/ghz2 defects of unit rows, by direct einsum contractions."""
    if dims == (2, 3):
        m = batch.reshape(-1, 2, 3)
        rhos = [(np.einsum("nij,nkj->nik", m, m.conj()), 2)]
    elif dims == (2, 3, 3):
        t = batch.reshape(-1, 2, 3, 3)
        rhos = [
            (np.einsum("nijk,nljk->nil", t, t.conj()), 2),
            (np.einsum("nijk,nilk->njl", t, t.conj()), 3),
            (np.einsum("nijk,nijl->nkl", t, t.conj()), 3),
        ]
    else:
        raise ValueError(dims)
    out = np.zeros(batch.shape[0])
    for rho, d in rhos:
        if kind == "strict":
            x = rho - np.eye(d) / d
        else:
            x = rho @ rho - rho / 2.0
        out += np.sum(np.abs(x) ** 2, axis=(1, 2))
    return out


def sampled_min_defect(kets, dims, kind, seed, n=1_000_000, chunk=200_000):
    """Smallest defect among seeded random unit vectors of the complement."""
    frame = null_frame(kets)
    rng = np.random.default_rng(seed)
    best = np.inf
    done = 0
    while done < n:
        m = min(chunk, n - done)
        c = rng.standard_normal((m, frame.shape[0])) + 1j * rng.standard_normal(
            (m, frame.shape[0])
        )
        v = c @ frame
        v /= np.linalg.norm(v, axis=1)[:, None]
        best = min(best, float(oracle_defect(v, dims, kind).min()))
        done += m
    return best


def _central_differences(w, pred, frame, step):
    """Central-difference gradient of the coordinate-form defect at ``w``."""
    probes = w + step * np.concatenate([np.eye(w.size), -np.eye(w.size)])
    vals = defect_coords_batch(probes, pred, frame)
    return (vals[: w.size] - vals[w.size :]) / (2.0 * step)


# --- criteria ------------------------------------------------------------


def test_criterion_1_complete_basis_in_2x2x2():
    t0 = time.perf_counter()
    m8 = meb8()
    g = gram_matrix(m8.kets)
    ortho_ok = float(np.max(np.abs(g - np.eye(8)))) < 1e-12
    me_ok = all(
        is_maximally_entangled(k, Strict(), tol=1e-12).ok for k in m8.kets
    )
    complete_ok = numerical_rank(m8.kets) == 8
    elapsed = time.perf_counter() - t0
    ok = ortho_ok and me_ok and complete_ok and elapsed < 1.0
    assert _line(1, "complete maximally entangled basis in 2x2x2", ok)


def test_criterion_2_families_are_not_unbiased():
    first, second = umeb_2x3x3_first(), umeb_2x3x3_second()
    rep = mub_overlap(first, second)
    mag00 = float(rep.magnitudes[0, 0])
    ok = (
        abs(mag00 - 0.4082482904638630) < 1e-12
        and abs(mag00 - 1 / math.sqrt(6)) < 1e-12
        and not rep.unbiased
        and abs(rep.target - 0.2357022603955158) < 1e-12
    )
    assert _line(2, "overlap 1/sqrt(6) breaks unbiasedness target 1/sqrt(18)", ok)


def test_criterion_3_bipartite_families():
    ok = True
    for fam in (umeb_2x3_type1(), umeb_2x3_type2()):
        g = gram_matrix(fam.kets)
        ok = ok and float(np.max(np.abs(g - np.eye(4)))) < 1e-12
        cut = Bipartition(fam.shape, (0,))
        for k in fam.kets:
            sc = schmidt_coefficients(k, cut)
            ok = ok and float(np.max(np.abs(sc - 1 / math.sqrt(2)))) < 1e-12
    # the second family's |x>, |y>, read off its first vector's product terms
    x, y = (t.factors[1] for t in umeb_2x3_type2().vectors[0].terms)
    ok = ok and abs(x.norm() - 1) < 1e-12 and abs(y.norm() - 1) < 1e-12
    ok = ok and abs(np.vdot(x.amps, y.amps)) < 1e-12
    assert _line(3, "2x3 families orthonormal with flat Schmidt spectra", ok)


def test_criterion_4_lift_matches_explicit_families():
    d1 = set_match_distance(lift_umeb(umeb_2x3_type1(), 3), umeb_2x3x3_first())
    d2 = set_match_distance(lift_umeb(umeb_2x3_type2(), 3), umeb_2x3x3_second())
    ok = d1 < 1e-12 and d2 < 1e-12
    assert _line(4, "lift reproduces both 2x3x3 families as sets", ok)


def test_criterion_5_unextendibility_certificates():
    cases = [
        (umeb_2x3_type1(), GhzType(2), "ghz2", 0.25),
        (umeb_2x3_type1(), Strict(), "strict", 0.5),
        (umeb_2x3x3_first(), GhzType(2), "ghz2", 0.25),
        (umeb_2x3x3_first(), Strict(), "strict", 5.0 / 6.0),
        (umeb_2x3x3_second(), GhzType(2), "ghz2", 0.25),
        (umeb_2x3x3_second(), Strict(), "strict", 5.0 / 6.0),
    ]
    ok = True
    for idx, (fam, pred, kind, target) in enumerate(cases):
        t0 = time.perf_counter()
        res = unextendibility_search(fam, pred)
        elapsed = time.perf_counter() - t0
        sample_min = sampled_min_defect(fam.kets, fam.shape.dims, kind, seed=900 + idx)
        case_ok = (
            elapsed <= 10.0
            and res.verdict == "unextendible"
            and abs(res.min_defect - target) <= 1e-6
            and sample_min >= target - 1e-9
            and res.min_defect <= sample_min + 1e-9
        )
        ok = ok and case_ok
    assert _line(5, "search minima match targets and random sampling", ok)


def test_criterion_6_witness_under_cut_predicate():
    fam = umeb_2x3x3_first()
    pred = CutRestricted(Bipartition(fam.shape, (0,)), 2)
    res = unextendibility_search(fam, pred)
    ok = res.verdict == "me_state_found" and res.min_defect < 1e-8
    if res.witness is None:
        ok = False
    else:
        cross = stack_amps(fam.kets).conj() @ res.witness.amps
        ok = ok and float(np.max(np.abs(cross))) < 1e-10
    assert _line(6, "cut-restricted search finds an orthogonal witness", ok)


def test_criterion_7_reduced_state_condition_on_first_cut():
    # canonical three-qubit form: lam_0..lam_4 on |000>, |100>, |101>, |110>,
    # |111>, with the phase theta on |100>
    rng = np.random.default_rng(71)
    shape_cut = Bipartition(SystemShape((2, 2, 2)), (0,))
    counterexamples = 0
    for i in range(1000):
        if i % 10 == 0:
            # exercise the satisfying branch: lam0^2 = 1/2, lam1 = 0
            rest = np.sqrt(0.5 * rng.dirichlet(np.ones(3)))
            lams = np.array([1 / math.sqrt(2), 0.0, rest[0], rest[1], rest[2]])
        elif i % 10 == 1:
            # lam0^2 = 1/2 but lam1 well away from zero
            rest = np.sqrt(0.3 * rng.dirichlet(np.ones(3)))
            lams = np.array([1 / math.sqrt(2), math.sqrt(0.2), *rest])
        else:
            lams = np.sqrt(rng.dirichlet(np.ones(5)))
        theta = rng.uniform(0.0, math.pi)
        amps = np.zeros(8, dtype=complex)
        amps[[0, 4, 5, 6, 7]] = lams
        amps[4] *= np.exp(1j * theta)
        v = Ket(shape_cut.shape, amps)
        residual = dict(is_maximally_entangled(v, Strict()).residuals)[shape_cut]
        residual_small = residual < 1e-10
        condition = abs(lams[0] ** 2 - 0.5) < 1e-10 and lams[1] < 1e-10
        if residual_small != condition:
            counterexamples += 1
    ok = counterexamples == 0
    assert _line(7, "maximal mixing on the first cut iff lam0^2=1/2 and lam1=0", ok)


def test_criterion_8_gradient_step_consistency():
    fam = umeb_2x3x3_first()
    frame = orthonormal_complement(fam.kets)
    preds = (
        Strict(),
        GhzType(2),
        CutRestricted(Bipartition(fam.shape, (0,)), 2),
    )
    rng = np.random.default_rng(83)
    ok = True
    for pred in preds:
        for _ in range(100):
            w = rng.standard_normal(2 * len(frame))
            w /= np.linalg.norm(w)
            g4 = _central_differences(w, pred, frame, 1e-4)
            g5 = _central_differences(w, pred, frame, 1e-5)
            rel = np.linalg.norm(g4 - g5) / max(np.linalg.norm(g5), 1e-12)
            ok = ok and rel < 1e-3
    assert _line(8, "finite-difference gradients agree across step sizes", ok)


def test_criterion_9_byte_stable_outputs(tmp_path):
    ok = True
    for name in ("meb8", "umeb-2x3-1", "umeb-2x3-2", "umeb-2x3x3-1", "umeb-2x3x3-2", "ghz3"):
        p1, p2 = tmp_path / f"{name}-a.json", tmp_path / f"{name}-b.json"
        ok = ok and main(["export", name, "-o", str(p1)]) == 0
        ok = ok and main(["export", name, "-o", str(p2)]) == 0
        ok = ok and p1.read_bytes() == p2.read_bytes()
    src = tmp_path / "fam.json"
    main(["export", "umeb-2x3x3-1", "-o", str(src)])
    s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
    for out in (s1, s2):
        code = main(
            ["search", str(src), "--predicate", "ghz2", "--restarts", "6", "-o", str(out)]
        )
        ok = ok and code == 0
    ok = ok and s1.read_bytes() == s2.read_bytes()
    assert _line(9, "search JSON and exports are byte-stable", ok)
