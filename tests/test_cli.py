"""CLI surface: exports, file loading, verify/search exit codes, overlap
output, and the demo run, all through ``main``."""

import contextlib
import dataclasses
import importlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umeb.cli import basis_file_text, load_basis_file, main, search_json_text
from umeb.constructions import basis_names, meb8, named_basis, umeb_2x3_type1, umeb_2x3x3_first
from umeb.entanglement import GhzType, Strict
from umeb.hilbert import Ket, SystemShape
from umeb.verify import CAVEATS, SearchConfig, UnextendibilityResult, mub_overlap

GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_export_stdout_is_stable_json(capsys):
    code1, out1, _ = run(capsys, "export", "meb8")
    code2, out2, _ = run(capsys, "export", "meb8")
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["name"] == "meb8"
    assert data["shape"] == [2, 2, 2]
    assert len(data["vectors"]) == 8
    assert len(data["terms"]) == 8


def test_export_unknown_name_fails(capsys):
    code, _, err = run(capsys, "export", "nope")
    assert code == 1
    assert "unknown basis" in err


def test_export_round_trips_bit_exactly(tmp_path, capsys):
    for name in ("meb8", "umeb-2x3x3-2", "ghz3"):
        path = tmp_path / f"{name}.json"
        code, _, _ = run(capsys, "export", name, "-o", str(path))
        assert code == 0
        loaded = load_basis_file(str(path))
        built = named_basis(name)
        assert loaded.name == name
        assert loaded.shape == built.shape
        assert loaded.labels == tuple(f"v{i}" for i in range(len(built)))
        for got, expect in zip(loaded.kets, built.kets):
            assert np.array_equal(got.amps, expect.amps)
        # decompositions survive the trip and re-validate on load
        assert all(dv.terms is not None for dv in loaded.vectors)
        assert basis_file_text(loaded).replace(f'"{name}"', '"x"') == basis_file_text(
            built
        ).replace(f'"{name}"', '"x"')


def test_verify_complete_basis_passes(capsys):
    assert len(CAVEATS) == 3
    for flag in ("strict", "ghz2"):
        code, out, _ = run(capsys, "verify", "meb8", "--predicate", flag)
        assert code == 0
        assert "rank: 8/8 (complete)\n" in out
        assert f"predicate {flag}:\n" in out
        assert "  search: complement is empty -> complete\n" in out
        assert out.endswith("caveats:\n" + "".join(f"  - {c}\n" for c in CAVEATS))


def test_verify_exit_code_tracks_predicate(capsys):
    code, out, _ = run(capsys, "verify", "umeb-2x3x3-1", "--predicate", "ghz2", "--restarts", "4")
    assert code == 0
    assert "unextendible" in out
    code, out, _ = run(capsys, "verify", "umeb-2x3x3-1", "--predicate", "strict", "--restarts", "2")
    assert code == 2
    assert "NO -- failing" in out


def test_verify_missing_file_fails(capsys):
    code, _, err = run(capsys, "verify", "no-such-file.json")
    assert code == 1
    assert "neither" in err


def test_verify_rejects_malformed_files(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 1
    assert "not valid JSON" in err
    bad.write_text(json.dumps({"name": "x", "shape": [2, 2], "vectors": [[[1, 0]]]}))
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 1
    bad.write_text(
        json.dumps(
            {
                "name": "x",
                "shape": [2, 2],
                "vectors": [[[1, 0], [0, 0], [0, 0], [0, 0]]],
                "terms": [None, None],
            }
        )
    )
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 1
    assert "parallel" in err


def test_verify_non_orthonormal_file_fails(tmp_path, capsys):
    v = [[1, 0], [0, 0], [0, 0], [0, 0]]
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"name": "dup", "shape": [2, 2], "vectors": [v, v]}))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 2
    assert "orthonormal: NO" in out
    assert "rank: 1/4 (not complete)\n" in out
    assert "  search: skipped (vectors are linearly dependent)\n" in out


def test_search_json_is_byte_identical_across_runs(tmp_path, capsys):
    src = tmp_path / "fam.json"
    run(capsys, "export", "umeb-2x3x3-1", "-o", str(src))
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out_a, out_b):
        code, _, _ = run(
            capsys,
            "search",
            str(src),
            "--predicate",
            "ghz2",
            "--restarts",
            "4",
            "-o",
            str(out),
        )
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    data = json.loads(out_a.read_text())
    assert data["verdict"] == "unextendible"
    assert data["complement_dim"] == 6
    assert data["config"]["restarts"] == 4
    assert abs(data["min_defect"] - 0.25) < 1e-6
    assert data["witness"] is None
    assert len(data["per_restart_minima"]) == 4


def test_search_emits_witness_for_cut_predicate(capsys):
    code, out, _ = run(
        capsys, "search", "umeb-2x3x3-1", "--predicate", "cut1", "--restarts", "4"
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "me_state_found"
    assert data["min_defect"] < 1e-8
    assert data["witness"] is not None
    w = np.array([complex(re, im) for re, im in data["witness"]])
    basis = np.array([k.amps for k in umeb_2x3x3_first().kets])
    assert np.max(np.abs(basis.conj() @ w)) < 1e-10


def test_search_refuses_non_orthonormal_input(tmp_path, capsys):
    v1 = [[1, 0], [0, 0], [0, 0], [0, 0]]
    v2 = [[0.8, 0], [0.6, 0], [0, 0], [0, 0]]
    path = tmp_path / "tilted.json"
    path.write_text(json.dumps({"name": "tilted", "shape": [2, 2], "vectors": [v1, v2]}))
    code, _, err = run(capsys, "search", str(path))
    assert code == 2
    assert "not orthonormal" in err


def test_overlap_reports_violation_and_target(capsys):
    code, out, _ = run(capsys, "overlap", "umeb-2x3x3-1", "umeb-2x3x3-2")
    assert code == 0
    assert "0.2357022603955158" in out
    assert "0.4082482904638630" in out
    assert "not mutually unbiased" in out


def test_overlap_writes_csv(tmp_path, capsys):
    path = tmp_path / "mags.csv"
    code, _, _ = run(capsys, "overlap", "umeb-2x3x3-1", "umeb-2x3x3-2", "-o", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert len(lines) == 13
    assert lines[0].startswith(",psi00,")
    first = lines[1].split(",")
    assert first[0] == "phi00"
    assert float(first[1]) == pytest.approx(6**-0.5, abs=1e-14)


@pytest.mark.parametrize("tol", ["nan", "inf", "-0.5", "-1e-8", "-inf"])
def test_overlap_rejects_non_finite_or_negative_tol(capsys, tol):
    code, out, err = run(capsys, "overlap", "meb8", "meb8", "--tol", tol)
    assert code == 1
    assert out == ""
    assert "tol must be finite and nonnegative" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-0.5", "-1e-3"])
def test_search_rejects_non_finite_or_negative_witness_tol(capsys, tol):
    argv = ("search", "umeb-2x3x3-1", "--predicate", "cut1", "--restarts", "2")
    code, out, err = run(capsys, *argv, "--witness-tol", tol)
    assert code == 1
    assert out == ""
    assert "witness_tol must be finite and nonnegative" in err


@pytest.mark.parametrize("command", ["search", "verify"])
def test_negative_seed_exits_one_naming_seed(capsys, command):
    code, out, err = run(capsys, command, "umeb-2x3-1", "--seed", "-1")
    assert code == 1
    assert out == ""
    assert "seed must be nonnegative" in err


def test_demo_prints_headline_facts(capsys):
    code, out, _ = run(capsys, "demo", "--restarts", "2")
    assert code == 0
    assert "meb8: complete (rank 8/8)" in out
    assert "overlap(phi00,psi00) = 0.4082482904638630" in out
    assert "me_state_found" in out
    assert "[ok] umeb-2x3-2: all 4 vectors maximally entangled" in out
    assert "[ok] umeb-2x3-1: complement is C^2 x w, product states only" in out
    assert "[ok] umeb-2x3x3-2: strict residual 1/sqrt(6) on every vector" in out
    assert "values 0, 1/sqrt(12), 1/sqrt(6) (72, 48, 24 of 144 pairs)" in out
    assert "demo: all checks passed" in out
    assert "[FAIL]" not in out


def test_demo_failing_check_exits_two(capsys, monkeypatch):
    def biased_as_unbiased(a, b):
        return dataclasses.replace(mub_overlap(a, b), unbiased=True)

    monkeypatch.setattr("umeb.cli.mub_overlap", biased_as_unbiased)
    code, out, _ = run(capsys, "demo", "--restarts", "2")
    assert code == 2
    assert out.count("[FAIL]") == 1
    assert "  [FAIL] not mutually unbiased" in out
    assert out.endswith("demo: FAILURES above\n")


def test_usage_errors_exit_one(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    code, _, err = run(capsys, "verify", "meb8", "--predicate", "bogus")
    assert code == 1
    code, _, err = run(capsys, "export")
    assert code == 1


def test_basis_file_text_uses_17_significant_digits():
    text = basis_file_text(meb8())
    assert "0.70710678118654746" in text


@pytest.mark.parametrize("name", basis_names())
def test_export_matches_golden_bytes(capsys, name):
    code, out, _ = run(capsys, "export", name)
    assert code == 0
    assert out.encode() == (GOLDEN / f"export-{name}.json").read_bytes()


def test_verify_matches_golden_text(tmp_path, monkeypatch, capsys):
    # the benchmark's whole seed-0 command script, with its comparisons:
    # exports and the overlap CSV byte for byte, verify and overlap text with
    # numbers equal to 1e-12, and each search's JSON by check_search_json,
    # its repeat byte for byte
    monkeypatch.syspath_prepend(str(GOLDEN.parent))
    workloads = importlib.import_module("workloads")
    monkeypatch.chdir(tmp_path)
    ran = []
    for argv in workloads.cli_script(0):
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        ran.append(argv[0])
        golden = GOLDEN / workloads.golden_name(argv)
        if argv[0] == "export":
            assert (tmp_path / argv[3]).read_bytes() == golden.read_bytes(), argv
        elif argv[0] == "verify":
            assert workloads.same_text(out, golden.read_text(encoding="utf-8")), argv
        elif argv[0] == "overlap":
            assert (tmp_path / "overlap.csv").read_bytes() == golden.with_suffix(".csv").read_bytes()
            assert workloads.same_text(out, golden.with_suffix(".txt").read_text(encoding="utf-8"))
        else:
            first = (tmp_path / golden.name).read_bytes()
            want = json.loads(golden.read_text(encoding="utf-8"))
            assert workloads.check_search_json(first.decode(), want, 0) is None, argv
            assert run(capsys, *argv)[0] == 0
            assert (tmp_path / golden.name).read_bytes() == first, argv
    assert sorted(ran) == sorted(["export"] * 6 + ["verify"] * 4 + ["search"] * 2 + ["overlap"])


def test_search_json_layout_is_pinned():
    # -0.0 is written as 0; floats get 17 digits, config keeps its settings' reprs
    argmin = Ket(SystemShape((2, 3)), [complex(-0.0, 0.6), complex(0.8, -0.0), 0.1, -1 / 3, 0, 0])
    res = UnextendibilityResult(
        predicate=GhzType(2),
        complement_dim=2,
        min_defect=0.25000000000000006,
        argmin=argmin,
        per_restart_minima=(0.25000000000000006, 0.5),
        verdict="unextendible",
        witness=None,
    )
    assert search_json_text(umeb_2x3_type1(), "ghz2", res, SearchConfig(restarts=2, seed=7)) == (
        '{\n  "basis": "umeb-2x3-1",\n  "shape": [2, 3],\n  "predicate": "ghz2",\n'
        '  "config": {"restarts": 2, "max_iters": 2000, "step": 0.1, "shrink": 0.5, '
        '"grad_tol": 1e-09, "seed": 7},\n  "complement_dim": 2,\n'
        '  "min_defect": 0.25000000000000006,\n  "verdict": "unextendible",\n'
        '  "per_restart_minima": [0.25000000000000006, 0.5],\n'
        '  "argmin": [[0, 0.59999999999999998], [0.80000000000000004, 0], '
        "[0.10000000000000001, 0], [-0.33333333333333331, 0], [0, 0], [0, 0]],\n"
        '  "witness": null\n}\n'
    )
    res = UnextendibilityResult(
        predicate=Strict(),
        complement_dim=0,
        min_defect=None,
        argmin=None,
        per_restart_minima=(),
        verdict="complete",
        witness=None,
    )
    assert search_json_text(meb8(), "strict", res, SearchConfig()) == (
        '{\n  "basis": "meb8",\n  "shape": [2, 2, 2],\n  "predicate": "strict",\n'
        '  "config": {"restarts": 32, "max_iters": 2000, "step": 0.1, "shrink": 0.5, '
        '"grad_tol": 1e-09, "seed": 0},\n  "complement_dim": 0,\n  "min_defect": null,\n'
        '  "verdict": "complete",\n  "per_restart_minima": [],\n  "argmin": null,\n'
        '  "witness": null\n}\n'
    )


def test_load_rejects_factors_that_do_not_match_grouping(tmp_path, capsys):
    path = tmp_path / "fam.json"
    data = json.loads(basis_file_text(umeb_2x3_type1()))
    product = data["terms"][1]["products"][0]
    for factors in (product["factors"][:1], 7):  # one short, not a list
        product["factors"] = factors
        path.write_text(json.dumps(data))
        for cmd in ("verify", "search"):
            code, _, err = run(capsys, cmd, str(path), "--restarts", "1")
            assert code == 1
            assert f"{path}: terms[1] product 0: factors must be a list of 2" in err


def test_verify_rejects_non_finite_coefficient(tmp_path, capsys):
    path = tmp_path / "fam.json"
    for bad in (float("nan"), float("inf")):
        data = json.loads(basis_file_text(umeb_2x3_type1()))
        data["terms"][2]["products"][0]["coefficient"] = bad
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "verify", str(path), "--restarts", "1")
        assert code == 1
        assert f"{path}: vector 2: term coefficients must be finite" in err


def test_load_rejects_grouping_that_is_not_integer_sites(tmp_path, capsys):
    path = tmp_path / "fam.json"
    for grouping in ([[0.9], [1.2]], [[True], [1]], ["0", [1]], [[0], {"1": 1}]):
        data = json.loads(basis_file_text(umeb_2x3_type1()))
        data["terms"][1]["grouping"] = grouping
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "verify", str(path), "--restarts", "1")
        assert code == 1
        assert f"{path}: terms[1]: grouping must be lists of integer sites" in err


def test_load_names_empty_products_and_grouping_sites_outside_the_shape(tmp_path, capsys):
    path = tmp_path / "fam.json"
    cases = (
        ("products", [], "terms[1]: products must be a non-empty list"),
        ("grouping", [[0], [2]], "terms[1]: grouping site 2 is outside 0..1"),
        ("grouping", [[-1], [0]], "terms[1]: grouping site -1 is outside 0..1"),
    )
    for key, value, message in cases:
        data = json.loads(basis_file_text(umeb_2x3_type1()))
        data["terms"][1][key] = value
        path.write_text(json.dumps(data))
        for cmd in ("verify", "search"):
            code, _, err = run(capsys, cmd, str(path), "--restarts", "1")
            assert code == 1
            assert err == f"error: {path}: {message}\n"


def test_load_rejects_json_booleans_as_numbers(tmp_path, capsys):
    path = tmp_path / "fam.json"

    def vector(data):  # |00> spelled with booleans
        data["vectors"][0] = [[True, False]] + [[False, False]] * 5
        data["terms"][0] = None
        return "vector 0: entry 0 is not an [re, im] pair"

    def factor(data):  # the qubit factor |0> spelled with booleans
        data["terms"][0]["products"][0]["factors"][0] = [[True, False], [False, False]]
        return "terms[0] product 0 factor 0: entry 0 is not an [re, im] pair"

    def coefficient(data):
        data["terms"][0]["products"][0]["coefficient"] = True
        return "terms[0] product 0 is malformed"

    for edit in (vector, factor, coefficient):
        data = json.loads(basis_file_text(umeb_2x3_type1()))
        message = edit(data)
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "verify", str(path), "--restarts", "1")
        assert code == 1
        assert f"{path}: {message}" in err


def test_load_rejects_integers_beyond_float_range(tmp_path, capsys):
    path = tmp_path / "fam.json"
    huge = 10**400  # a valid JSON integer that no float can hold

    def amplitude(data):
        data["vectors"][0][0][0] = huge
        return "vector 0: entry 0 is beyond float range"

    def coefficient(data):
        data["terms"][0]["products"][0]["coefficient"] = huge
        return "terms[0] product 0: coefficient is beyond float range"

    for edit in (amplitude, coefficient):
        data = json.loads(basis_file_text(umeb_2x3_type1()))
        message = edit(data)
        path.write_text(json.dumps(data))
        for cmd in ("verify", "search"):
            code, _, err = run(capsys, cmd, str(path), "--restarts", "1")
            assert code == 1
            assert f"{path}: {message}" in err
            assert "Traceback" not in err


def test_load_rejects_parts_and_coefficients_above_one(tmp_path, capsys):
    # no unit vector has them; a part near 1e155 or more once overflowed the
    # norm and Gram products, warning before the error line
    path = tmp_path / "fam.json"

    def amplitude(data):
        data["vectors"][0][1][1] = 1e300
        return "vector 0: entry 1 has a part above 1 in magnitude"

    def factor(data):
        data["terms"][0]["products"][0]["factors"][1][0][0] = -1e200
        return "terms[0] product 0 factor 1: entry 0 has a part above 1 in magnitude"

    def coefficient(data):
        data["terms"][0]["products"][0]["coefficient"] = 1e300
        return "terms[0] product 0: coefficient is above 1"

    for edit in (amplitude, factor, coefficient):
        data = json.loads(basis_file_text(umeb_2x3_type1()))
        message = edit(data)
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "verify", str(path), "--restarts", "1")
        assert code == 1
        assert err == f"error: {path}: {message}\n"


def test_verify_cut1_bounds_d_by_the_first_cut(tmp_path, capsys):
    # cut1 takes d = d_1; on 3x2x2 the first cut is 3|4, so d = 3 fits
    path = tmp_path / "w.json"
    shape = SystemShape((3, 2, 2))
    amps = np.zeros(shape.total)
    amps[[shape.flat_index(t) for t in ((0, 0, 0), (1, 0, 1), (2, 1, 0))]] = 3**-0.5
    vectors = [[[float(a), 0.0] for a in amps]]
    path.write_text(json.dumps({"name": "w", "shape": [3, 2, 2], "vectors": vectors}))
    code, out, err = run(capsys, "verify", str(path), "--predicate", "cut1", "--restarts", "1")
    assert code == 0, err
    assert "predicate cut1:\n  maximally entangled: all 1 vectors" in out
    # on 3x2 the first cut is 3|2, and d = 3 is not its smaller side
    vectors = [[[2**-0.5, 0], [0, 0], [0, 0], [2**-0.5, 0], [0, 0], [0, 0]]]
    path.write_text(json.dumps({"name": "b", "shape": [3, 2], "vectors": vectors}))
    code, out, err = run(capsys, "verify", str(path), "--predicate", "cut1", "--restarts", "1")
    assert code == 1
    assert out == ""
    assert "d equal to the cut's smaller side, 2; got d=3" in err


_EXPORT = basis_file_text(umeb_2x3_type1())
_LEAF = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**400), 2**64, 1e300, -1e200, -1, 0, 1, 2, 3, 6])
    | st.floats()
    | st.text(max_size=4)
)
_JSON = _LEAF | st.recursive(
    _LEAF,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(), kids, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_verify_survives_any_one_value_replaced(tmp_path_factory, data):
    # start from an exported file and replace the value at one drawn path
    # (possibly the whole document) with drawn JSON; each step descends with
    # probability 7/8, so single amplitude parts are often the target
    doc = json.loads(_EXPORT)
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and data.draw(st.integers(0, 7)):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        key = data.draw(st.sampled_from(keys))
        parent, node = node, node[key]
    value = data.draw(_JSON)
    if parent is None:
        doc = value
    else:
        parent[key] = value
    path = tmp_path_factory.getbasetemp() / "fuzzed-basis.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["verify", str(path), "--restarts", "1"])
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("error: ")
