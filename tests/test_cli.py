import hashlib
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from symreg import FitConfig, construct_init, evaluate, fit_sym_tensor
from symreg.cli import main
from symreg.glm import BERNOULLI, GAUSSIAN, GlmConvergenceError
from symreg.solvers import NumericalError
from symreg.io import read_dataset, read_matrix_csv, write_dataset, write_matrix_csv
from symreg.simulate import SignalShape, shape_signal, synth_dataset
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


def _digests(root):
    """sha256 of every file under root but manifest.json, by relative path."""
    return {str(f.relative_to(root)): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(root.rglob("*")) if f.is_file() and f.name != "manifest.json"}


def test_simulate_and_fit_files_byte_pinned(tmp_path):
    # every byte simulate writes, and those of a sym_tensor fit on its
    # output: a change to the dataset path or the fit that moves a byte fails.
    # The fit files were re-recorded when the gaussian B block became one
    # prox-linear step: the fit (rank 3, rho 0, n = 40 < pR = 48) now
    # converges at outer iteration 46 at objective 7.306 (exit 0), where the
    # prox steps interpolated towards 0.0085 and stopped at the cap of 200
    # (exit 4); held-out MSE on 2000 fresh draws 5.25 against 12.74.
    # metrics.json was re-recorded when it gained the fit's lasso counts
    # (lasso_calls, lasso_iterations, lasso_capped: 0, 0, 0 at rho = 0); the
    # other fit files are unchanged. It was re-recorded again when it came to
    # hold the fit's whole meta record, which adds "ridged": true (the rho = 0
    # B block at R = 3 is a ridged solve); the other fit files are unchanged.
    # It was re-recorded again when the record gained "extrapolated", the
    # count of extrapolated points fit_cp accepts: 0 here, since a symmetric
    # fit never extrapolates; the other fit files are unchanged
    ds, fit = tmp_path / "ds", tmp_path / "fit"
    assert run("simulate", "--shape", "two_box", "--p", "16", "--n", "40",
               "--seed", "3", "--out", ds) == 0
    assert run("fit", ds, "--estimator", "sym_tensor", "--out", fit) == 0
    written = _digests(ds)
    assert len(written) == 42  # subjects.csv, meta.json and 40 matrices
    listing = "".join(f"{name} {digest}\n" for name, digest in written.items())
    assert hashlib.sha256(listing.encode()).hexdigest() == (
        "ba8a17a00d6a81672d80cddd4ed1bb0f2ab24d9ca2e82c544a4fc737d4434b95")
    assert _digests(fit) == {
        "coef_full.csv": "2ffce8f45983c94f7ddbadea8c0076ceaa4bfdeefc46434eae22de002d9132b8",
        "factors.csv": "0ef9728cc25d3097a26bcb0bcaeec90cb6276cfed811c31353a33290669e1576",
        "gamma.csv": "d7ed6267336cfd11c1bb13e13bb623e2db0f577d84220bf72969fb054e185378",
        "metrics.json": "58fcd96ad3df0c2a3d0877a8fb9a60e744997bbfd81ca024bc43a335cd6ccff9",
        "trace.csv": "5ea79100f0cdb3b8e02b5b52e8edaac7b3807973064cc10898e1e79880e95bc9",
    }


def test_simulate_bernoulli_writes_the_synth_dataset_bytes(tmp_path):
    # --family bernoulli with --signal-scale writes exactly what io writes for
    # the same synth_dataset draw, so scripts can build logistic data by CLI
    out = tmp_path / "cli"
    assert run("simulate", "--shape", "two_box", "--p", "16", "--n", "30", "--p0", "2",
               "--seed", "22", "--family", "bernoulli", "--signal-scale", "0.3",
               "--out", out) == 0
    b0 = 0.3 * shape_signal(SignalShape("two_box", 16))
    write_dataset(synth_dataset(b0, 30, p0=2, seed=22, family=BERNOULLI), tmp_path / "io")
    assert _digests(out) == _digests(tmp_path / "io")
    assert json.loads((out / "meta.json").read_text())["family"] == "bernoulli"
    assert set(read_dataset(out)[0].y) == {0.0, 1.0}


def test_simulate_bad_family_or_scale_exits_2(tmp_path):
    base = ["simulate", "--shape", "two_box", "--p", "16", "--n", "5", "--out", tmp_path / "x"]
    assert run(*base, "--signal-scale", "nan") == 2
    with pytest.raises(SystemExit) as exc:  # argparse rejects the choice
        run(*base, "--family", "poisson")
    assert exc.value.code == 2


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


def test_fit_metrics_report_the_lasso_counts(sim_dir, tmp_path):
    # metrics.json carries the fit's whole record (FitResult.meta): a gaussian
    # sym_tensor fit runs one B-block lasso per outer iteration at rho > 0; a
    # bernoulli one runs none and reports zeros
    out = tmp_path / "lasso"
    run("fit", sim_dir, "--estimator", "sym_tensor", "--rank", "2", "--rho", "0.5",
        "--max-outer-iters", "5", "--out", out)
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["lasso_calls"] == metrics["iterations"]
    assert metrics["lasso_iterations"] >= metrics["lasso_calls"]
    assert metrics["lasso_capped"] == 0
    ds = tmp_path / "logistic"
    assert run("simulate", "--shape", "two_box", "--p", "16", "--n", "60", "--seed", "1",
               "--family", "bernoulli", "--out", ds) == 0
    run("fit", ds, "--estimator", "sym_tensor", "--rank", "2", "--rho", "0.5",
        "--max-outer-iters", "3", "--out", tmp_path / "logit")
    metrics = json.loads((tmp_path / "logit" / "metrics.json").read_text())
    assert metrics["lasso_calls"] == metrics["lasso_iterations"] == 0
    assert metrics["lasso_capped"] == 0


def test_fit_pipeline_metrics_report_the_cp_baseline(sim_dir, tmp_path):
    # the pipeline's CP fit is fitted once and its record written beside the
    # symmetric fit's own, with whether it converged or stopped at the cap;
    # at rho > 0 every CP block is a lasso call
    out = tmp_path / "pipe"
    run("fit", sim_dir, "--estimator", "pipeline", "--rank", "2", "--rho", "0.5",
        "--max-outer-iters", "5", "--out", out)
    metrics = json.loads((out / "metrics.json").read_text())
    base = metrics["baseline_cp"]
    assert set(base) == {
        "converged", "iterations", "ridged", "lasso_calls", "lasso_iterations",
        "lasso_capped", "extrapolated",
    }
    assert type(base["converged"]) is bool
    assert 1 <= base["iterations"] <= 5
    assert base["converged"] or base["iterations"] == 5
    assert base["lasso_calls"] == 2 * base["iterations"]
    assert 0 <= base["extrapolated"] <= base["iterations"]
    assert base["lasso_iterations"] >= base["lasso_calls"] >= base["lasso_capped"]
    assert metrics["lasso_calls"] == metrics["iterations"]


def test_fit_malformed_matrix_exits_2(sim_dir, tmp_path):
    victim = next(iter((sim_dir / "matrices").glob("*.csv")))
    victim.write_text("1.0,2.0\nnot-a-number,1.0\n")
    assert run("fit", sim_dir, "--out", tmp_path / "f") == 2


# the last subject's matrix file: its content (None: the file is deleted) and
# the error that names it; the earlier files are 16 x 16 and set p
MATRIX_FILE_ERRORS = {
    "missing": (None, "missing matrix file {}"),
    "wrong_size": ("1.0,0.0\n0.0,1.0\n", "matrix file {} has wrong dimensions"),
    "two_by_three": ("1,2,3\n4,5,6\n", "matrix file {} is not a square grid"),
    "empty": ("", "matrix file {} is not a square grid"),
    # np.asarray of ragged rows raised a ValueError that read as a bad number
    "ragged": ("1,2\n3\n", "matrix file {} is not a square grid"),
    # the reader parses above the diagonal, and below it only a token whose
    # text differs from its mirror's
    "non_numeric_upper": ("1.0,x1\nx1,1.0\n", "non-numeric entry in matrix file {}: "
                          "could not convert string to float: 'x1'"),
    "non_numeric_lower": ("1.0,0.5\nx2,1.0\n", "non-numeric entry in matrix file {}: "
                          "could not convert string to float: 'x2'"),
    "nan": ("1.0,nan\nnan,1.0\n", "matrix file {} holds a non-finite value"),
    "inf": ("1.0,0.5\ninf,1.0\n", "matrix file {} holds a non-finite value"),
}


@pytest.mark.parametrize("case", sorted(MATRIX_FILE_ERRORS))
def test_fit_bad_matrix_file_exits_2_naming_it(sim_dir, tmp_path, capsys, case):
    content, message = MATRIX_FILE_ERRORS[case]
    victim = sorted((sim_dir / "matrices").glob("*.csv"))[-1]
    if content is None:
        victim.unlink()
    else:
        victim.write_text(content, encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / "f"
    assert run("fit", sim_dir, "--out", out) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"symreg: invalid input: {message.format(victim)}"]
    assert not (out / "manifest.json").exists()


def _raise_one_entry(ds, by):
    """Raise entry (0, 1) of the first matrix by `by`; returns its path and it."""
    victim = sorted((ds / "matrices").glob("*.csv"))[0]
    m = read_matrix_csv(victim)
    m[0, 1] += by
    write_matrix_csv(victim, m)
    return victim, m


def test_fit_and_cv_warn_on_symmetrized_matrices(sim_dir, tmp_path, capsys):
    # an asymmetry within 1e-8 is symmetrized at ingest: the fit equals the fit
    # on the symmetrized input written out, plus one warning line on stderr
    exact = tmp_path / "exact"
    shutil.copytree(sim_dir, exact)
    victim, m = _raise_one_entry(sim_dir, 1e-9)
    assert 0 < abs(m[0, 1] - m[1, 0]) <= 1e-8
    write_matrix_csv(exact / "matrices" / victim.name, (m + m.T) / 2.0)

    def fit(ds, out):
        return run("fit", ds, "--estimator", "sym_tensor", "--rank", "2", "--rho",
                   "0.1", "--max-outer-iters", "3", "--out", tmp_path / out)

    capsys.readouterr()
    assert fit(exact, "f_exact") in (0, 4)
    assert capsys.readouterr().err == ""
    assert fit(sim_dir, "f_warn") in (0, 4)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(
        "symreg: warning: symmetrized 1 of 40 matrices (max asymmetry 1.0"
    )
    for name in ("coef_full.csv", "factors.csv", "gamma.csv", "metrics.json",
                 "trace.csv"):
        assert (tmp_path / "f_warn" / name).read_bytes() == (
            tmp_path / "f_exact" / name).read_bytes()

    assert run("cv", sim_dir, "--k", "2", "--rho-grid", "0.5", "--rank-grid", "1",
               "--estimator", "cp", "--max-outer-iters", "3",
               "--out", tmp_path / "cv") == 0
    assert capsys.readouterr().err.splitlines() == err


def test_fit_asymmetric_matrix_exits_2(sim_dir, tmp_path, capsys):
    _raise_one_entry(sim_dir, 1e-7)  # asymmetric beyond 1e-8
    out = tmp_path / "f"
    assert run("fit", sim_dir, "--out", out) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("symreg: invalid input:")
    assert "asymmetric beyond 1e-08" in err[0]
    assert not out.exists()


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


def _set_family(ds, family):
    meta = json.loads((ds / "meta.json").read_text(encoding="utf-8"))
    meta["family"] = family
    (ds / "meta.json").write_text(json.dumps(meta), encoding="utf-8")


def test_fit_bernoulli_response_outside_0_1_exits_2(sim_dir, tmp_path, capsys):
    _set_family(sim_dir, "bernoulli")
    assert run("fit", sim_dir, "--out", tmp_path / "f") == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["symreg: invalid input: bernoulli responses must be 0 or 1"]


@pytest.mark.parametrize("family", ["Bernoulli", "poisson"])
def test_fit_unknown_family_exits_2(sim_dir, tmp_path, capsys, family):
    _set_family(sim_dir, family)
    out = tmp_path / "f"
    assert run("fit", sim_dir, "--out", out) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"symreg: invalid input: {sim_dir / 'meta.json'}: "
                   f"unknown family {family!r}"]
    assert not out.exists()


@pytest.mark.parametrize("missing", ["key", "file"])
def test_dataset_without_family_is_gaussian(sim_dir, missing):
    meta = sim_dir / "meta.json"
    if missing == "key":
        meta.write_text(json.dumps({"p": 16}), encoding="utf-8")
    else:
        meta.unlink()
    assert read_dataset(sim_dir)[0].family == GAUSSIAN


@pytest.mark.parametrize("content", ["[]", '"gaussian"', "3"])
def test_fit_meta_json_not_an_object_exits_2(sim_dir, tmp_path, capsys, content):
    (sim_dir / "meta.json").write_text(content, encoding="utf-8")
    out = tmp_path / "f"
    assert run("fit", sim_dir, "--out", out) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"symreg: invalid input: {sim_dir / 'meta.json'} "
                   f"must hold a JSON object"]
    assert not out.exists()


@pytest.mark.parametrize("shape", ["header_id_only", "row_short", "header_only"])
def test_fit_short_subjects_csv_exits_2(sim_dir, tmp_path, capsys, shape):
    path = sim_dir / "subjects.csv"
    lines = read_lines(path)
    if shape == "header_id_only":
        lines = ["id"] + [line.split(",")[0] for line in lines[1:]]
    elif shape == "row_short":
        lines[2] = ",".join(lines[2].split(",")[:-1])  # drops the last covariate
    else:
        lines = lines[:1]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "f"
    assert run("fit", sim_dir, "--out", out) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("symreg: invalid input:")
    if shape == "header_only":
        assert err == [f"symreg: invalid input: {path} lists no subjects"]
    assert not out.exists()


# a subject id that would name a file outside matrices/: an absolute path or
# one through ../ names a valid matrix (copied there), which must not be read
SUBJECT_IDS = {
    "absolute": None,
    "parent": "../outside",
    "dot_dot": "..",
    "dot": ".",
    "empty": "",
    "backslash": "sub\\000001",
}


@pytest.mark.parametrize("case", sorted(SUBJECT_IDS))
def test_fit_subject_id_outside_dataset_exits_2(sim_dir, tmp_path, capsys, case):
    victim = sorted((sim_dir / "matrices").glob("*.csv"))[0]
    sid = SUBJECT_IDS[case]
    if sid is None:
        sid = str(tmp_path / "elsewhere")
        shutil.copy(victim, tmp_path / "elsewhere.csv")
    elif sid.startswith("../"):
        shutil.copy(victim, sim_dir / "outside.csv")
    path = sim_dir / "subjects.csv"
    lines = read_lines(path)
    lines[2] = ",".join([sid] + lines[2].split(",")[1:])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / "f"
    assert run("fit", sim_dir, "--out", out) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"symreg: invalid input: line 3 of {path} has invalid id {sid!r}"]
    assert not (out / "manifest.json").exists()


def test_fit_repeated_subject_id_exits_2(sim_dir, tmp_path, capsys):
    # a repeated id would fit one matrix file twice, each with its own y
    path = sim_dir / "subjects.csv"
    lines = read_lines(path)
    sid = lines[1].split(",")[0]
    lines[2] = ",".join([sid] + lines[2].split(",")[1:])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / "f"
    assert run("fit", sim_dir, "--out", out) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"symreg: invalid input: line 3 of {path} repeats id {sid!r}"]
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("error", [GlmConvergenceError, NumericalError])
def test_fit_solver_failure_exits_5(sim_dir, tmp_path, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error("forced failure")

    monkeypatch.setitem(evaluate.ESTIMATORS, "sym_tensor", fail)
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


def test_cv_strata_column_of_text_labels(tmp_path):
    # a label column whose name starts with z is an extra column, not a
    # covariate: the covariates are z1..z{p0}
    ds = make_strata_dataset(tmp_path)
    header, *rows = read_lines(ds / "subjects.csv")
    labels = ["north"] * 6 + ["south"] * 3
    rows = [row.rsplit(",", 1)[0] + "," + label for row, label in zip(rows, labels)]
    lines = [header.replace(",group", ",zone")] + rows
    (ds / "subjects.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    data, extras = read_dataset(ds)
    assert data.p0 == 2
    assert extras == {"zone": labels}
    code = run("cv", ds, "--k", "3", "--rho-grid", "0.5", "--rank-grid", "1",
               "--strata-column", "zone", "--estimator", "cp",
               "--max-outer-iters", "30", "--out", tmp_path / "cv")
    assert code in (0, 4)


def test_cv_missing_strata_column_exits_2(tmp_path):
    ds = make_strata_dataset(tmp_path)
    assert run("cv", ds, "--rho-grid", "0.1", "--rank-grid", "1",
               "--strata-column", "nope", "--out", tmp_path / "cv2") == 2


def test_cv_every_grid_point_failing_exits_5(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise GlmConvergenceError("forced failure")

    monkeypatch.setitem(evaluate.ESTIMATORS, "sym_tensor", fail)
    ds = make_strata_dataset(tmp_path)
    out = tmp_path / "cv"
    assert run("cv", ds, "--k", "3", "--rho-grid", "0.5", "--rank-grid", "1",
               "--out", out) == 5
    # the reasons reach stderr, each distinct one once with its count
    err = capsys.readouterr().err
    assert "3 failed fits: forced failure [x3]" in err
    assert err.count("forced failure") == 1
    assert list(out.iterdir()) == []


def test_fit_pipeline_at_the_cv_selection_is_the_cv_estimator(sim_dir, tmp_path):
    # cv scores evaluate.ESTIMATORS["sym_tensor"]; fit --estimator pipeline at
    # the selected (rho, rank) writes that estimator's full-data fit
    cv = tmp_path / "cv"
    assert run("cv", sim_dir, "--k", "2", "--rho-grid", "0.5,2", "--rank-grid", "1,2",
               "--max-outer-iters", "20", "--out", cv) == 0
    selected = json.loads((cv / "selected.json").read_text())
    out = tmp_path / "fit"
    assert run("fit", sim_dir, "--estimator", "pipeline", "--rank", selected["rank"],
               "--rho", selected["rho"], "--max-outer-iters", "20", "--out", out) in (0, 4)
    data, _ = read_dataset(sim_dir)
    cfg = FitConfig(rank=selected["rank"], rho=selected["rho"], max_outer_iters=20)
    res = evaluate.ESTIMATORS["sym_tensor"](data, cfg)
    write_matrix_csv(tmp_path / "want.csv", res.coef_full)
    assert (out / "coef_full.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert read_matrix_csv(out / "coef_full.csv").tobytes() == res.coef_full.tobytes()


def test_cv_rank_above_p_exits_2_before_any_fit(sim_dir, tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setitem(evaluate.ESTIMATORS, "sym_tensor", lambda *args: calls.append(args))
    out = tmp_path / "cv"
    assert run("cv", sim_dir, "--k", "2", "--rho-grid", "0.5", "--rank-grid", "1,17",
               "--out", out) == 2
    assert calls == []
    assert "rank must lie in [1, 16], got 17" in capsys.readouterr().err


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
    header, *rows = [row.split(",") for row in read_lines(out / "summary.csv")]
    assert [row[header.index("failures")] for row in rows] == ["1", "1"]


def test_replicate_summary_counts_capped_fits(tmp_path):
    out = tmp_path / "rep"
    assert run("replicate", "--shape", "two_box", "--p", "16", "--n-list", "40",
               "--replications", "2", "--rank", "1", "--max-outer-iters", "1",
               "--out", out) == 0
    header, *rows = [row.split(",") for row in read_lines(out / "summary.csv")]
    assert header[-3:] == ["replications", "failures", "capped"]
    # one outer iteration never meets the tolerance: every fit is capped
    assert {row[2]: (row[-3], row[-1]) for row in rows} == {
        est: ("2", "2") for est in ("cp", "sym_cp", "sym_tensor")
    }


def test_replicate_unknown_estimator_exits_2(tmp_path):
    assert run("replicate", "--shape", "two_box", "--p", "16", "--n-list", "40",
               "--replications", "1", "--estimators", "magic",
               "--out", tmp_path / "r") == 2


# ---------------------------------------------------------------- usage errors

REPLICATE = ["replicate", "--shape", "two_box", "--p", "16", "--n-list", "20",
             "--replications", "1"]
USAGE_ERRORS = {
    "cv_k_above_n": ["cv", "DATA", "--k", "100", "--rho-grid", "0", "--rank-grid", "1"],
    "cv_rank_0": ["cv", "DATA", "--rho-grid", "0", "--rank-grid", "1,0"],
    "cv_rho_negative": ["cv", "DATA", "--rho-grid", "0,-1", "--rank-grid", "1"],
    # construct_init needs rank <= p; the pipeline checks it before its CP fit
    "fit_pipeline_rank_above_p": ["fit", "DATA", "--estimator", "pipeline",
                                  "--rank", "17"],
    "replicate_rank_above_p": REPLICATE + ["--rank", "17"],
    "replicate_empty_shape": REPLICATE[:2] + [","] + REPLICATE[3:],
    "replicate_empty_estimators": REPLICATE + ["--estimators", ","],
    "fit_rho_nan": ["fit", "DATA", "--rho", "nan"],
    "fit_rho_inf": ["fit", "DATA", "--rho", "inf"],
    "simulate_sigma_nan": ["simulate", "--shape", "two_box", "--p", "16", "--n", "5",
                           "--sigma", "nan"],
    "replicate_sigma_nan": REPLICATE + ["--sigma", "nan"],
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_error_exits_2_with_one_line(sim_dir, tmp_path, capsys, case):
    capsys.readouterr()
    out = tmp_path / "out"
    argv = [str(sim_dir) if a == "DATA" else a for a in USAGE_ERRORS[case]]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("symreg:")] == [
        err.strip()
    ]
    assert not (out / "manifest.json").exists()


# ---------------------------------------------------------------- manifest

MANIFEST_KEYS = {"argv", "command", "config", "duration_seconds", "environment",
                 "inputs", "output_dir", "rng", "version"}
SOLVER_DEFAULTS = {"seed": 0, "tol": 0.0001}

MANIFEST_CASES = {
    "simulate": (
        ["simulate", "--shape", "cross", "--p", "16", "--n", "12", "--seed", "4"], 0,
        {"shape": "cross", "p": 16, "n": 12, "p0": 5, "sigma": 1.0, "family": "gaussian",
         "signal_scale": 1.0},
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
    }


def test_cv_failures_json_and_manifest_replay(tmp_path, monkeypatch):
    fit_cp = evaluate.ESTIMATORS["cp"]

    def fail_at_rho_half(data, config, cp_result=None):
        if config.rho == 0.5:
            raise GlmConvergenceError("forced failure")
        return fit_cp(data, config, cp_result)

    monkeypatch.setitem(evaluate.ESTIMATORS, "cp", fail_at_rho_half)
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
