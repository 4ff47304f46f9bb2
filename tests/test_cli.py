import json
import os
from pathlib import Path

import numpy as np
import pytest

from symreg import FitConfig, construct_init, evaluate, fit_sym_tensor, solvers
from symreg.cli import main
from symreg.glm import GlmConvergenceError
from symreg.solvers import NumericalError
from symreg.io import read_dataset, read_matrix_csv, write_dataset
from symreg.simulate import synth_dataset
from symreg.tensor_ops import symcp_to_full

from conftest import overflow_dataset


def run(*argv):
    return main([str(a) for a in argv])


def read_lines(path):
    return Path(path).read_text(encoding="utf-8").splitlines()


@pytest.fixture
def sim_dir(tmp_path):
    out = tmp_path / "ds"
    code = run("simulate", "--shape", "two_box", "--p", "16", "--n", "40",
               "--sigma", "0.5", "--seed", "3", "--out", out)
    assert code == 0
    return out


# ---------------------------------------------------------------- simulate

def test_simulate_file_counts(tmp_path):
    out = tmp_path / "d"
    assert run("simulate", "--shape", "two_box", "--p", "32", "--n", "100",
               "--seed", "7", "--out", out) == 0
    assert len(read_lines(out / "subjects.csv")) == 101  # header + 100 rows
    assert len(list((out / "matrices").glob("*.csv"))) == 100
    assert (out / "manifest.json").is_file()


def test_simulate_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("simulate", "--shape", "cross", "--p", "16", "--n", "15",
                   "--seed", "5", "--out", out) == 0
    assert (a / "subjects.csv").read_bytes() == (b / "subjects.csv").read_bytes()
    for f in sorted((a / "matrices").glob("*.csv")):
        assert f.read_bytes() == (b / "matrices" / f.name).read_bytes()


def test_simulate_invalid_p_exits_2(tmp_path):
    assert run("simulate", "--shape", "two_box", "--p", "17", "--n", "5",
               "--out", tmp_path / "x") == 2


def test_simulate_invalid_shape_exits_2(tmp_path):
    assert run("simulate", "--shape", "hexagon", "--p", "16", "--n", "5",
               "--out", tmp_path / "x") == 2


def test_simulate_unwritable_out_exits_3(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("file, not a directory")
    assert run("simulate", "--shape", "two_box", "--p", "16", "--n", "5",
               "--out", blocker / "sub") == 3


# ---------------------------------------------------------------- fit

def test_fit_outputs_and_roundtrip(sim_dir, tmp_path):
    out = tmp_path / "fit"
    code = run("fit", sim_dir, "--estimator", "pipeline", "--rank", "2",
               "--rho", "0.1", "--seed", "1", "--out", out)
    assert code in (0, 4)
    for name in ("gamma.csv", "factors.csv", "coef_full.csv", "trace.csv",
                 "metrics.json", "manifest.json"):
        assert (out / name).is_file()
    metrics = json.loads((out / "metrics.json").read_text())
    assert set(metrics) >= {"mse_pred_in", "nnz_B", "converged", "iterations"}
    # CSV round trip preserves the coefficient matrix exactly
    reread = read_matrix_csv(out / "coef_full.csv")
    data, _ = read_dataset(sim_dir)
    cfg = FitConfig(rank=2, rho=0.1, seed=1)
    from symreg import default_pipeline

    res = default_pipeline(data, cfg)
    assert np.max(np.abs(reread - res.coef_full)) <= 1e-12


def test_fit_huge_rho_zero_coef(sim_dir, tmp_path):
    out = tmp_path / "fit0"
    code = run("fit", sim_dir, "--estimator", "sym_tensor", "--rank", "2",
               "--rho", "1e12", "--out", out)
    assert code in (0, 4)
    coef = read_matrix_csv(out / "coef_full.csv")
    assert np.array_equal(coef, np.zeros((16, 16)))


def test_fit_trace_non_increasing(sim_dir, tmp_path):
    out = tmp_path / "fit1"
    assert run("fit", sim_dir, "--estimator", "pipeline", "--rank", "2",
               "--rho", "0.0", "--out", out) in (0, 4)
    rows = read_lines(out / "trace.csv")
    assert rows[0] == "iteration,objective"
    objs = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert np.all(np.diff(objs) <= 1e-10 * np.maximum(np.abs(objs[:-1]), 1.0))


def test_fit_noiseless_rank1_recovery(tmp_path):
    rng = np.random.default_rng(2)
    w = rng.standard_normal(8)
    b0 = symcp_to_full(np.array([1.0]), (w / np.linalg.norm(w))[:, None])
    data = synth_dataset(b0, 80, p0=3, sigma=0.0, seed=0)
    ds = tmp_path / "rank1"
    write_dataset(data, ds)
    out = tmp_path / "fitr1"
    code = run("fit", ds, "--estimator", "sym_tensor", "--rank", "1",
               "--rho", "0.0", "--out", out)
    assert code == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["mse_pred_in"] <= 1e-8


def test_fit_malformed_matrix_exits_2(sim_dir, tmp_path):
    victim = next(iter((sim_dir / "matrices").glob("*.csv")))
    victim.write_text("1.0,2.0\nnot-a-number,1.0\n")
    assert run("fit", sim_dir, "--out", tmp_path / "f") == 2


def test_fit_asymmetric_matrix_exits_2(sim_dir, tmp_path):
    victim = next(iter((sim_dir / "matrices").glob("*.csv")))
    m = np.zeros((16, 16))
    m[0, 1] = 1.0  # asymmetric beyond 1e-8
    from symreg.io import write_matrix_csv

    write_matrix_csv(victim, m)
    assert run("fit", sim_dir, "--out", tmp_path / "f") == 2


@pytest.mark.parametrize("victim", ["subjects", "matrix"])
def test_fit_non_finite_input_exits_2(sim_dir, tmp_path, victim):
    if victim == "subjects":
        path, row, col = sim_dir / "subjects.csv", 1, 1  # a response
    else:
        path, row, col = next(iter((sim_dir / "matrices").glob("*.csv"))), 0, 0
    lines = read_lines(path)
    cells = lines[row].split(",")
    cells[col] = "nan"
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run("fit", sim_dir, "--out", tmp_path / "f") == 2


def test_fit_bernoulli_response_outside_0_1_exits_2(sim_dir, tmp_path):
    meta = json.loads((sim_dir / "meta.json").read_text(encoding="utf-8"))
    meta["family"] = "bernoulli"
    (sim_dir / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    assert run("fit", sim_dir, "--out", tmp_path / "f") == 2


@pytest.mark.parametrize("error", [GlmConvergenceError, NumericalError])
def test_fit_solver_failure_exits_5(sim_dir, tmp_path, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error("forced failure")

    monkeypatch.setattr(solvers, "default_pipeline", fail)
    out = tmp_path / "f"
    assert run("fit", sim_dir, "--estimator", "pipeline", "--out", out) == 5
    assert not (out / "metrics.json").exists()
    assert not (out / "manifest.json").exists()
    # a usage error on the same command is still a usage error
    assert run("fit", sim_dir, "--tol", "2", "--out", tmp_path / "g") == 2


@pytest.mark.parametrize("estimator", ["cp", "sym_cp", "sym_tensor", "pipeline"])
def test_fit_overflowing_data_exits_5(tmp_path, estimator):
    ds = tmp_path / "ovf"
    write_dataset(overflow_dataset(), ds)
    out = tmp_path / "f"
    with np.errstate(all="ignore"):
        code = run("fit", ds, "--estimator", estimator, "--rank", "1", "--out", out)
    assert code == 5
    assert not (out / "metrics.json").exists()


def test_fit_non_finite_least_squares_fails_quietly(tmp_path, capfd):
    # the overflow reaches a least-squares solve; LAPACK must not see it
    ds = tmp_path / "ovf"
    write_dataset(overflow_dataset(), ds)
    with np.errstate(all="ignore"):
        code = run("fit", ds, "--rank", "1", "--out", tmp_path / "f")
    assert code == 5
    err = capfd.readouterr().err
    assert "least squares requires a finite design and response" in err
    assert "DLASCL" not in err


def test_cv_overflowing_data_counts_failures_and_exits_5(tmp_path):
    ds = tmp_path / "ovf"
    write_dataset(overflow_dataset(), ds)
    with np.errstate(all="ignore"):
        code = run("cv", ds, "--k", "2", "--rho-grid", "0", "--rank-grid", "1",
                   "--estimator", "cp", "--out", tmp_path / "cv")
    assert code == 5


def test_dataset_roundtrip_preserves_family_and_values(tmp_path):
    from symreg import BERNOULLI

    b0 = np.eye(6) * 0.4
    data = synth_dataset(b0, 12, p0=2, seed=3, family=BERNOULLI)
    ds = tmp_path / "bern"
    write_dataset(data, ds)
    back, _ = read_dataset(ds)
    assert back.family is BERNOULLI or back.family == BERNOULLI
    assert np.array_equal(back.y, data.y)
    assert np.array_equal(back.Z, data.Z)
    assert np.array_equal(back.X, data.X)


# ---------------------------------------------------------------- cv

def make_strata_dataset(tmp_path, n_controls=6, n_cases=3):
    rng = np.random.default_rng(0)
    n = n_controls + n_cases
    b0 = np.zeros((16, 16))
    data = synth_dataset(b0, n, p0=2, gamma0=np.ones(2), sigma=0.5, seed=4)
    ds = tmp_path / "strata_ds"
    write_dataset(data, ds)
    # append a group column: first n_controls are controls (0), rest cases (1)
    lines = read_lines(ds / "subjects.csv")
    lines[0] += ",group"
    for i in range(1, len(lines)):
        lines[i] += ",0" if i - 1 < n_controls else ",1"
    (ds / "subjects.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ds


def test_cv_outputs_and_stratification(tmp_path):
    ds = make_strata_dataset(tmp_path)
    out = tmp_path / "cv"
    code = run("cv", ds, "--k", "3", "--rho-grid", "0.5", "--rank-grid", "1",
               "--strata-column", "group", "--estimator", "cp",
               "--max-outer-iters", "30", "--out", out)
    assert code == 0
    rows = read_lines(out / "cv_table.csv")
    assert len(rows) == 1 + 3 + 1  # header, k folds, overall
    selected = json.loads((out / "selected.json").read_text())
    assert selected == {"rho": 0.5, "rank": 1}
    assert json.loads((out / "failures.json").read_text()) == []


def test_cv_missing_strata_column_exits_2(tmp_path):
    ds = make_strata_dataset(tmp_path)
    assert run("cv", ds, "--rho-grid", "0.1", "--rank-grid", "1",
               "--strata-column", "nope", "--out", tmp_path / "cv2") == 2


def test_cv_every_grid_point_failing_exits_5(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise GlmConvergenceError("forced failure")

    monkeypatch.setattr(evaluate, "_fit_one", fail)
    ds = make_strata_dataset(tmp_path)
    out = tmp_path / "cv"
    assert run("cv", ds, "--k", "3", "--rho-grid", "0.5", "--rank-grid", "1",
               "--out", out) == 5
    # the reasons reach stderr, each distinct one once with its count
    err = capsys.readouterr().err
    assert "3 failed fits: forced failure [x3]" in err
    assert err.count("forced failure") == 1
    assert list(out.iterdir()) == []


# ---------------------------------------------------------------- replicate

def test_replicate_row_count_and_sd(tmp_path):
    out = tmp_path / "rep"
    code = run("replicate", "--shape", "two_box,cross", "--p", "16",
               "--n-list", "40,50", "--replications", "1",
               "--estimators", "cp,sym_cp", "--rank", "1", "--seed", "2",
               "--max-outer-iters", "30", "--out", out)
    assert code == 0
    rows = read_lines(out / "summary.csv")
    header = rows[0].split(",")
    assert len(rows) == 1 + 2 * 2 * 2  # header + shapes*n*estimators
    assert json.loads((out / "failures.json").read_text(encoding="utf-8")) == []
    sd_cols = [i for i, h in enumerate(header) if h.endswith("_sd")]
    for row in rows[1:]:
        cells = row.split(",")
        for i in sd_cols:
            assert float(cells[i]) == 0.0


def test_replicate_cp_symcp_identical_pred_means(tmp_path):
    out = tmp_path / "rep2"
    assert run("replicate", "--shape", "two_box", "--p", "16", "--n-list", "45",
               "--replications", "2", "--estimators", "cp,sym_cp", "--rank", "2",
               "--seed", "8", "--max-outer-iters", "30", "--out", out) == 0
    rows = read_lines(out / "summary.csv")
    header = rows[0].split(",")
    idx_in = header.index("mse_pred_in_mean")
    idx_out = header.index("mse_pred_out_mean")
    by_est = {r.split(",")[2]: r.split(",") for r in rows[1:]}
    for idx in (idx_in, idx_out):
        assert abs(float(by_est["cp"][idx]) - float(by_est["sym_cp"][idx])) <= 1e-10


def test_replicate_failures_json(tmp_path, monkeypatch):
    metrics = evaluate._replication_metrics

    def fail_on_replication_1(spec, rep):
        if rep == 1:
            raise NumericalError("forced failure")
        return metrics(spec, rep)

    monkeypatch.setattr(evaluate, "_replication_metrics", fail_on_replication_1)
    out = tmp_path / "rep"
    assert run("replicate", "--shape", "two_box,cross", "--p", "16", "--n-list", "40",
               "--replications", "2", "--estimators", "cp", "--rank", "1",
               "--max-outer-iters", "5", "--out", out) == 0
    assert json.loads((out / "failures.json").read_text(encoding="utf-8")) == [
        {"shape": shape, "n": 40, "replication": 1, "reason": "forced failure"}
        for shape in ("two_box", "cross")
    ]
    assert [row.split(",")[-1] for row in read_lines(out / "summary.csv")[1:]] == [
        "1", "1"
    ]


def test_replicate_unknown_estimator_exits_2(tmp_path):
    assert run("replicate", "--shape", "two_box", "--p", "16", "--n-list", "40",
               "--replications", "1", "--estimators", "magic",
               "--out", tmp_path / "r") == 2


# ---------------------------------------------------------------- manifest

MANIFEST_KEYS = {"argv", "command", "config", "duration_seconds", "environment",
                 "inputs", "output_dir", "rng", "version"}
SOLVER_DEFAULTS = {"delta0": 1.0, "prox_steps": 5, "renormalize_columns": False,
                   "seed": 0, "tol": 0.0001}

MANIFEST_CASES = {
    "simulate": (
        ["simulate", "--shape", "cross", "--p", "16", "--n", "12", "--seed", "4"], 0,
        {"shape": "cross", "p": 16, "n": 12, "p0": 5, "sigma": 1.0},
    ),
    "fit": (
        ["fit", "DATA", "--estimator", "sym_cp", "--rank", "2", "--rho", "0.25",
         "--max-outer-iters", "2"], 4,  # the iteration cap still writes a manifest
        {**SOLVER_DEFAULTS, "estimator": "sym_cp", "rank": 2, "rho": 0.25,
         "max_outer_iters": 2},
    ),
    "cv": (
        ["cv", "DATA", "--k", "2", "--rho-grid", "0.5,0", "--rank-grid", "1",
         "--estimator", "cp", "--max-outer-iters", "5", "--seed", "3"], 0,
        {**SOLVER_DEFAULTS, "k": 2, "rho_grid": [0.5, 0.0], "rank_grid": [1],
         "estimator": "cp", "strata_column": None, "rank": 1, "rho": 0.5,
         "max_outer_iters": 5, "seed": 3},
    ),
    "replicate": (
        ["replicate", "--shape", "two_box", "--p", "16", "--n-list", "20",
         "--replications", "1", "--estimators", "cp", "--rank", "1",
         "--max-outer-iters", "5"], 0,
        {**SOLVER_DEFAULTS, "shape": ["two_box"], "p": 16, "n_list": [20],
         "estimators": ["cp"], "replications": 1, "sigma": 1.0, "rank": 1,
         "rho": 0.0, "max_outer_iters": 5},
    ),
}


@pytest.mark.parametrize("command", sorted(MANIFEST_CASES))
def test_manifest_contract(sim_dir, tmp_path, monkeypatch, command):
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    template, code, config = MANIFEST_CASES[command]
    out = tmp_path / "out"
    argv = [str(sim_dir) if a == "DATA" else a for a in template] + ["--out", str(out)]
    assert main(argv) == code
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert set(manifest) == MANIFEST_KEYS
    assert manifest["command"] == command
    assert manifest["config"] == config
    assert manifest["argv"] == argv
    assert manifest["inputs"] == [str(sim_dir)] * template.count("DATA")
    assert manifest["output_dir"] == str(out)
    seed = int(argv[argv.index("--seed") + 1]) if "--seed" in argv else 0
    assert manifest["rng"] == {"algorithm": "numpy-pcg64", "seed": seed}
    assert manifest["duration_seconds"] > 0
    env = manifest["environment"]
    assert env["numpy"] == np.__version__
    assert set(env["blas"]) == {"name", "version"}
    assert env["threads"] == {
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": None,
        "SYMREG_THREADS": os.environ.get("SYMREG_THREADS"),
    }


def test_cv_failures_json_and_manifest_replay(tmp_path, monkeypatch):
    fit_one = evaluate._fit_one

    def fail_at_rho_half(data, config, estimator):
        if config.rho == 0.5:
            raise GlmConvergenceError("forced failure")
        return fit_one(data, config, estimator)

    monkeypatch.setattr(evaluate, "_fit_one", fail_at_rho_half)
    ds = make_strata_dataset(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("cv", ds, "--k", "3", "--rho-grid", "0,0.5", "--rank-grid", "1",
               "--strata-column", "group", "--estimator", "cp",
               "--max-outer-iters", "10", "--out", a) == 0
    failures = json.loads((a / "failures.json").read_text(encoding="utf-8"))
    assert failures == [
        {"rho": 0.5, "rank": 1, "fold": fold, "reason": "forced failure"}
        for fold in (1, 2, 3)
    ]
    assert json.loads((a / "selected.json").read_text()) == {"rho": 0.0, "rank": 1}

    argv = json.loads((a / "manifest.json").read_text())["argv"]
    argv[argv.index("--out") + 1] = str(b)
    assert main(argv) == 0
    for name in ("cv_table.csv", "selected.json", "failures.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
