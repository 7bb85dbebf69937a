import json
import os

import numpy as np
import pytest

from dysonmc.cli import run
from dysonmc.io import read_cmat

WIGNER = {"model": {"radius_r": 1,
                    "coefficients": [[[[0.0, 0.0, 0.0],
                                       [0.0, 1.0, 0.0],
                                       [0.0, 0.0, 0.0]]]]}}


def model_file(tmp_path, body, name="model.json"):
    p = tmp_path / name
    p.write_text(json.dumps(body))
    return str(p)


def deep_merge(base, extra):
    out = dict(base)
    out.update(extra)
    return out


def load_report(out_dir, kind):
    with open(os.path.join(out_dir, f"{kind}.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# validate

def test_validate_ok(tmp_path, capsys):
    m = model_file(tmp_path, WIGNER)
    out = str(tmp_path / "out")
    assert run(["validate", "--model", m, "--out", out]) == 0
    assert "validate: ok" in capsys.readouterr().out
    rep = load_report(out, "validate")
    assert rep["kind"] == "validate"
    assert rep["data"]["passed"] is True
    assert rep["data"]["positivity"]["passes"] is True


def test_validate_flags_broken_kernel(tmp_path):
    bad = np.zeros((1, 1, 3, 3))
    bad[0, 0, 1, 1] = 1.0
    bad[0, 0, 2, 1] = 0.3  # unmirrored offset
    m = model_file(tmp_path, {"model": {"K": 1, "values": bad.tolist()}})
    assert run(["validate", "--model", m, "--out", str(tmp_path / "o")]) == 2


def test_validate_positivity_gate(tmp_path):
    v = np.zeros((1, 1, 3, 3))
    v[0, 0, 1, 1] = 1.0
    v[0, 0, 2, 1] = v[0, 0, 0, 1] = 0.6  # symbol dips to -0.2
    m = model_file(tmp_path, {"model": {"K": 1, "values": v.tolist()}})
    assert run(["validate", "--model", m, "--out", str(tmp_path / "o")]) == 1


def test_validate_strict_escalates_notes(tmp_path, models_dir):
    m = os.path.join(models_dir, "two_tap.json")
    out = str(tmp_path / "o")
    assert run(["validate", "--model", m, "--out", out]) == 0
    assert run(["validate", "--model", m, "--out", out, "--strict"]) == 1


def test_missing_model_file_is_config_error(tmp_path, capsys):
    rc = run(["validate", "--model", str(tmp_path / "nope.json"),
              "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_energies_without_eta_is_config_error(tmp_path, capsys):
    m = model_file(tmp_path, deep_merge(WIGNER, {
        "experiment": {"N": 50, "energies": [0.5]}}))
    rc = run(["verify-global", "--model", m, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "eta" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# density

def test_density_curve_and_csv(tmp_path):
    m = model_file(tmp_path, deep_merge(WIGNER, {
        "experiment": {"energies": {"start": -2.5, "stop": 2.5, "count": 51},
                       "eta0": 1e-3}}))
    out = str(tmp_path / "out")
    assert run(["density", "--model", m, "--out", out]) == 0

    rep = load_report(out, "density")
    E = np.asarray(rep["data"]["E_grid"])
    rho = np.asarray(rep["data"]["rho"])
    mid = int(np.argmin(np.abs(E)))
    assert abs(rho[mid] - 1.0 / np.pi) < 1e-3
    cdf = np.asarray(rep["data"]["cdf"])
    assert np.all(np.diff(cdf) >= -1e-12)

    lines = open(os.path.join(out, "density.csv")).read().strip().splitlines()
    assert lines[0] == "E,rho,cdf"
    assert len(lines) == 52
    row = [float(v) for v in lines[1 + mid].split(",")]
    assert row[1] == rho[mid]


# ---------------------------------------------------------------------------
# solve-n

def test_solve_n_writes_solutions(tmp_path):
    m = model_file(tmp_path, deep_merge(WIGNER, {
        "experiment": {"N": [24], "z": [[0.5, 0.5]]}}))
    out = str(tmp_path / "out")
    assert run(["solve-n", "--model", m, "--out", out]) == 0

    dump = read_cmat(os.path.join(out, "solution_N24_z0.cmat"))
    assert dump["kind"] == "solution"
    assert dump["N"] == 24 and dump["E"] == 0.5 and dump["eta"] == 0.5
    assert dump["matrix"].shape == (24, 24)

    row = load_report(out, "solve-n")["data"]["solutions"][0]
    assert row["converged"] is True
    assert row["decay_ok"] is True
    assert row["final_residual"] <= 1e-8
    assert 0.0 < row["stability_ratio"] < 2.0


def test_solve_n_iteration_budget_is_numerical_failure(tmp_path, capsys):
    m = model_file(tmp_path, deep_merge(WIGNER, {
        "solver": {"max_iter": 2},
        "experiment": {"N": [24], "z": [[0.5, 0.5]]}}))
    rc = run(["solve-n", "--model", m, "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sample

def test_sample_round_trip_and_determinism(tmp_path):
    m = model_file(tmp_path, deep_merge(WIGNER, {
        "experiment": {"N": 16, "samples": 2}}))
    out1, out2, out3 = (str(tmp_path / d) for d in ("a", "b", "c"))
    assert run(["sample", "--model", m, "--out", out1, "--seed", "5"]) == 0
    assert run(["sample", "--model", m, "--out", out2, "--seed", "5"]) == 0
    assert run(["sample", "--model", m, "--out", out3, "--seed", "9"]) == 0

    name = "sample_N16_000.cmat"
    b1 = open(os.path.join(out1, name), "rb").read()
    assert b1 == open(os.path.join(out2, name), "rb").read()

    d1 = read_cmat(os.path.join(out1, name))
    d3 = read_cmat(os.path.join(out3, name))
    assert d1["N"] == 16 and d1["seed"] != d3["seed"]
    assert not np.array_equal(d1["matrix"], d3["matrix"])
    assert np.array_equal(d1["matrix"], d1["matrix"].T)

    files = load_report(out1, "sample")["data"]["files"]
    assert [f["file"] for f in files] == ["sample_N16_000.cmat",
                                          "sample_N16_001.cmat"]


def test_sample_with_flow_time(tmp_path):
    m = model_file(tmp_path, deep_merge(WIGNER, {
        "experiment": {"N": 16, "samples": 1, "time_t": 0.3}}))
    out = str(tmp_path / "out")
    assert run(["sample", "--model", m, "--out", out, "--seed", "1"]) == 0
    dump = read_cmat(os.path.join(out, "sample_N16_000.cmat"))
    assert dump["time_t"] == 0.3


# ---------------------------------------------------------------------------
# consistency and law checks

def test_consistency_gate(tmp_path):
    m = model_file(tmp_path, deep_merge(WIGNER, {
        "experiment": {"N": [80], "z": [[0.0, 0.6]]}}))
    out = str(tmp_path / "out")
    assert run(["consistency", "--model", m, "--out", out]) == 0
    row = load_report(out, "consistency")["data"]["checks"][0]
    assert row["gap_ok"] is True
    assert row["fixed_point_gap"] <= 10.0 / 80


def test_verify_global_small_matrix(tmp_path):
    m = model_file(tmp_path, deep_merge(WIGNER, {
        "experiment": {"N": 100, "z": [[0.5, 1.0]], "seeds": 2}}))
    out = str(tmp_path / "out")
    assert run(["verify-global", "--model", m, "--out", out, "--seed", "3"]) == 0
    data = load_report(out, "verify-global")["data"]
    assert data["entry_fraction"] == 1.0
    assert data["trace_fraction"] == 1.0
    assert len(data["records"]) == 2


def test_verify_local_eta_exponent(tmp_path):
    m = model_file(tmp_path, deep_merge(WIGNER, {
        "experiment": {"N": 200, "energies": [0.0], "eta_exponent": -0.6,
                       "seeds": 2}}))
    out = str(tmp_path / "out")
    assert run(["verify-local", "--model", m, "--out", out, "--seed", "3"]) == 0
    data = load_report(out, "verify-local")["data"]
    assert data["mode"] == "local"
    assert data["trace_fraction"] >= 0.8
    # eta baked into the z list: 200 ** -0.6
    z_im = data["records"][0]["z"][1]
    assert abs(z_im - 200.0 ** -0.6) < 1e-12


# ---------------------------------------------------------------------------
# spectral statistics

CURVE_61 = {"energies": {"start": -3.0, "stop": 3.0, "count": 61},
            "eta0": 1e-3}


def test_delocalization_gate(tmp_path):
    m = model_file(tmp_path, deep_merge(WIGNER, {
        "experiment": {"N": 200, "curve": CURVE_61}}))
    out = str(tmp_path / "out")
    assert run(["delocalization", "--model", m, "--out", out, "--seed", "2"]) == 0
    data = load_report(out, "delocalization")["data"]
    assert data["passed"] is True
    assert data["q50"] <= data["q99"] <= 40.0


def test_spacing_against_surmise(tmp_path):
    m = model_file(tmp_path, deep_merge(WIGNER, {
        "experiment": {"N": 200, "samples": 2, "curve": CURVE_61,
                       "window": [0.25, 0.75], "ks_threshold": 0.2}}))
    out = str(tmp_path / "out")
    assert run(["spacing", "--model", m, "--out", out, "--seed", "2"]) == 0
    data = load_report(out, "spacing")["data"]
    assert data["reference"] == "surmise"
    assert data["n_gaps"] >= 100
    assert data["ks"] <= 0.2
    assert os.path.exists(os.path.join(out, "gaps.csv"))


def test_spacing_against_sampled_ensemble(tmp_path):
    m = model_file(tmp_path, deep_merge(WIGNER, {
        "experiment": {"N": 200, "samples": 2, "curve": CURVE_61,
                       "reference": "ensemble", "reference_samples": 2,
                       "ks_threshold": 0.25}}))
    out = str(tmp_path / "out")
    assert run(["spacing", "--model", m, "--out", out, "--seed", "2"]) == 0
    data = load_report(out, "spacing")["data"]
    assert data["reference_samples"] == 2
    assert data["ks"] <= 0.25


def test_spacing_needs_enough_gaps(tmp_path, capsys):
    m = model_file(tmp_path, deep_merge(WIGNER, {
        "experiment": {"N": 60, "samples": 1, "curve": CURVE_61,
                       "window": [0.45, 0.55]}}))
    rc = run(["spacing", "--model", m, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "100 pooled gaps" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# flow

def test_ou_flow_gate(tmp_path):
    m = model_file(tmp_path, deep_merge(WIGNER, {
        "experiment": {"N": 30, "t": 0.5, "n_paths": 4000}}))
    out = str(tmp_path / "out")
    assert run(["ou-flow", "--model", m, "--out", out, "--seed", "4"]) == 0
    checks = load_report(out, "ou-flow")["data"]["checks"]
    assert len(checks) == 1
    assert checks[0]["covariance_ok"] is True
    assert checks[0]["max_sigma"] <= 5.0


def test_ou_flow_spacing_uses_the_curve_window_and_solver_grid(tmp_path, models_dir):
    # two_tap.json asks for K_trunc 64; its density solves fail on coarser grids
    with open(os.path.join(models_dir, "two_tap.json")) as fh:
        body = json.load(fh)
    body["experiment"] = {"N": 100, "t": [0.5], "n_paths": 200, "spacing_seeds": 1,
                          "curve": {"energies": {"start": -3.0, "stop": 3.0,
                                                 "count": 13}}}
    m = model_file(tmp_path, body)
    out = str(tmp_path / "out")
    assert run(["ou-flow", "--model", m, "--out", out, "--seed", "2"]) == 0
    checks = load_report(out, "ou-flow")["data"]["checks"]
    assert 0.0 < checks[0]["spacing_ks"] < 1.0


def test_ou_flow_rejects_table_models(tmp_path):
    v = np.zeros((1, 1, 3, 3))
    v[0, 0, 1, 1] = 1.0
    m = model_file(tmp_path, {"model": {"K": 1, "values": v.tolist()},
                              "experiment": {"N": 20, "t": 0.1,
                                             "n_paths": 100}})
    assert run(["ou-flow", "--model", m, "--out", str(tmp_path / "o")]) == 2


# ---------------------------------------------------------------------------
# report hygiene

def test_reports_identical_up_to_timestamp(tmp_path):
    m = model_file(tmp_path, deep_merge(WIGNER, {
        "experiment": {"N": 16, "samples": 1}}))
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    run(["sample", "--model", m, "--out", out1, "--seed", "5"])
    run(["sample", "--model", m, "--out", out2, "--seed", "5"])
    r1 = load_report(out1, "sample")
    r2 = load_report(out2, "sample")
    r1.pop("generated_at")
    r2.pop("generated_at")
    assert r1 == r2
