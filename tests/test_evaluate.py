import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symreg import (
    CvPlan,
    Dataset,
    ExperimentSpec,
    FitConfig,
    GAUSSIAN,
    SignalShape,
    SimSpec,
    cv_select,
    kfold_split,
    mse_coef,
    mse_pred,
    replicate_experiment,
)
from symreg import evaluate
from symreg.simulate import synth_dataset
from symreg.solvers import NumericalError
from symreg.tensor_ops import symcp_to_full

from conftest import random_symmetric


# ---------------------------------------------------------------- metrics

def test_mse_coef_examples():
    b = np.zeros((2, 2))
    assert mse_coef(b, b) == 0.0
    assert mse_coef(np.array([[1.0, 0.0], [0.0, 0.0]]), b) == 0.25
    assert mse_coef(np.ones((2, 2)), b) == 1.0


def test_mse_coef_shape_mismatch():
    with pytest.raises(ValueError):
        mse_coef(np.zeros((2, 2)), np.zeros((3, 3)))


def test_mse_pred_examples():
    y = np.array([1.0, 2.0])
    assert mse_pred(y, y) == 0.0
    assert mse_pred(y + np.array([1.0, -1.0]), y) == 1.0
    assert mse_pred(np.array([3.0]), np.array([0.0])) == 9.0


# ---------------------------------------------------------------- kfold

def test_kfold_even_split():
    folds = kfold_split(6, CvPlan(rho_grid=(0.0,), rank_grid=(1,), k=3))
    assert sorted(len(f) for f in folds) == [2, 2, 2]


def test_kfold_stratified_counts():
    strata = np.array([0.0] * 6 + [1.0] * 3)
    plan = CvPlan(rho_grid=(0.0,), rank_grid=(1,), k=3, strata=strata)
    for fold in kfold_split(9, plan):
        labels = strata[fold]
        assert (labels == 0).sum() == 2
        assert (labels == 1).sum() == 1


def test_kfold_deterministic_and_partition():
    plan = CvPlan(rho_grid=(0.0,), rank_grid=(1,), k=4, seed=11)
    a = kfold_split(13, plan)
    b = kfold_split(13, plan)
    for fa, fb in zip(a, b):
        assert np.array_equal(fa, fb)
    allidx = np.concatenate(a)
    assert len(allidx) == 13 and len(set(allidx.tolist())) == 13


def test_kfold_small_class_spread_one_per_fold():
    strata = np.array([0.0] * 8 + [1.0] * 2)  # class of 2 with k=3
    plan = CvPlan(rho_grid=(0.0,), rank_grid=(1,), k=3, strata=strata)
    folds = kfold_split(10, plan)
    case_counts = sorted(int((strata[f] == 1).sum()) for f in folds)
    assert case_counts == [0, 1, 1]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(5, 30),
    st.integers(2, 5),
    st.booleans(),
    st.integers(0, 100),
)
def test_kfold_partition_property(n, k, use_strata, seed):
    if n < k:
        return
    strata = None
    if use_strata:
        strata = (np.arange(n) % 2).astype(float)
    folds = kfold_split(n, CvPlan(rho_grid=(0.0,), rank_grid=(1,), k=k,
                                  strata=strata, seed=seed))
    allidx = np.concatenate(folds)
    assert len(allidx) == n
    assert len(np.unique(allidx)) == n
    sizes = [len(f) for f in folds]
    if strata is None:
        assert max(sizes) - min(sizes) <= 1
    else:
        for v in (0.0, 1.0):
            counts = [int((strata[f] == v).sum()) for f in folds]
            assert max(counts) - min(counts) <= 1


# ---------------------------------------------------------------- cv_select

def small_dataset(seed=0, n=24, p=4, b0=None, gamma0=None, sigma=0.3):
    if b0 is None:
        rng = np.random.default_rng(99)
        b0 = symcp_to_full(np.array([1.0]), rng.standard_normal((p, 1)))
    return synth_dataset(b0, n, p0=2, gamma0=gamma0, sigma=sigma, seed=seed)


FAST = dict(max_outer_iters=40, lasso_max_iter=120)


def test_cv_single_grid_point():
    data = small_dataset()
    plan = CvPlan(rho_grid=(0.1,), rank_grid=(1,), k=3, seed=5)
    sel = cv_select(data, plan, FitConfig(rank=1, rho=0.1, **FAST))
    assert sel.rho == 0.1 and sel.rank == 1
    assert sel.fold_mse.shape == (3, 1)
    assert len(sel.table_rows()) == 4  # k fold rows + overall


def test_cv_pure_noise_prefers_null_model():
    wins = 0
    for seed in range(10):
        data = synth_dataset(
            np.zeros((16, 16)), 36, p0=3, gamma0=np.zeros(3), sigma=1.0, seed=seed
        )
        plan = CvPlan(rho_grid=(0.0, 1e8), rank_grid=(1,), k=3, seed=seed)
        sel = cv_select(data, plan, FitConfig(rank=1, rho=0.0, seed=seed, **FAST))
        wins += sel.rho == 1e8
    assert wins >= 8


def test_cv_identical_samples_equal_fold_mse():
    one = small_dataset(n=1, sigma=0.0)
    y = np.repeat(one.y, 9)
    Z = np.repeat(one.Z, 9, axis=0)
    X = np.repeat(one.X, 9, axis=0)
    data = Dataset(y, Z, X, GAUSSIAN)
    plan = CvPlan(rho_grid=(0.5,), rank_grid=(1,), k=3, seed=2)
    sel = cv_select(data, plan, FitConfig(rank=1, rho=0.5, **FAST))
    spread = np.max(sel.fold_mse) - np.min(sel.fold_mse)
    assert spread <= 1e-10


def test_cv_selection_is_argmin_with_parsimony_ties():
    data = small_dataset(n=30)
    plan = CvPlan(rho_grid=(0.0, 0.2), rank_grid=(1, 2), k=3, seed=7)
    sel = cv_select(data, plan, FitConfig(rank=1, rho=0.0, **FAST))
    finite = np.isfinite(sel.mean_mse)
    assert finite[sel.grid.index((sel.rho, sel.rank))]
    best_val = np.nanmin(sel.mean_mse)
    chosen_val = sel.mean_mse[sel.grid.index((sel.rho, sel.rank))]
    assert chosen_val == best_val
    # no strictly-better grid point exists; among exact ties the chosen one
    # carries the largest rho, then the smallest rank
    for g, (rho, rank) in enumerate(sel.grid):
        if sel.mean_mse[g] == chosen_val:
            assert (-(rho), rank) >= (-(sel.rho), sel.rank)


# ---------------------------------------------------------------- replicate

def test_replicate_single_run_has_zero_sd():
    spec = ExperimentSpec(
        sim=SimSpec(shape=SignalShape("two_box", 16), n=40, seed=5),
        config=FitConfig(rank=2, rho=0.0, seed=5, **FAST),
        estimators=("cp", "sym_cp"),
        replications=1,
    )
    out = replicate_experiment(spec)
    for est in ("cp", "sym_cp"):
        row = out["summary"][est]
        for metric in ("mse_coef", "mse_pred_in", "mse_pred_out"):
            assert row[f"{metric}_sd"] == 0.0


def test_replicate_equivalence_of_cp_and_sym_cp_predictions():
    spec = ExperimentSpec(
        sim=SimSpec(shape=SignalShape("two_box", 16), n=50, seed=9),
        config=FitConfig(rank=2, rho=0.1, seed=9, **FAST),
        estimators=("cp", "sym_cp"),
        replications=2,
    )
    out = replicate_experiment(spec)
    s = out["summary"]
    for metric in ("mse_pred_in", "mse_pred_out"):
        assert abs(s["cp"][f"{metric}_mean"] - s["sym_cp"][f"{metric}_mean"]) <= 1e-10


def test_replicate_counts_capped_fits():
    def run(max_outer_iters):
        spec = ExperimentSpec(
            sim=SimSpec(shape=SignalShape("two_box", 16), n=60, seed=3),
            config=FitConfig(rank=2, rho=0.0, seed=3, max_outer_iters=max_outer_iters),
            replications=2,
        )
        return replicate_experiment(spec)

    assert all(row["capped"] == 2 for row in run(1)["summary"].values())
    # n=60 against pR=32: both CP fits stop at the cap, the symmetric fits converge
    out = run(200)
    assert {est: row["capped"] for est, row in out["summary"].items()} == {
        "cp": 2,
        "sym_cp": 2,
        "sym_tensor": 0,
    }
    assert [m["cp"]["converged"] for m in out["per_replication"]] == [False, False]


@pytest.mark.parametrize("threads", ["0", "2"])
def test_replicate_records_failure_reasons(monkeypatch, threads):
    metrics = evaluate._replication_metrics

    def fail_on_replication_1(spec, rep):
        if rep == 1:
            raise NumericalError("forced failure")
        return metrics(spec, rep)

    monkeypatch.setattr(evaluate, "_replication_metrics", fail_on_replication_1)
    monkeypatch.setenv("SYMREG_THREADS", threads)
    spec = ExperimentSpec(
        sim=SimSpec(shape=SignalShape("two_box", 16), n=40, seed=5),
        config=FitConfig(rank=1, rho=0.0, seed=5, **FAST),
        estimators=("cp",),
        replications=3,
    )
    out = replicate_experiment(spec)
    assert out["failures"] == [{"replication": 1, "reason": "forced failure"}]
    assert [m is None for m in out["per_replication"]] == [False, True, False]
    assert out["summary"]["cp"]["failures"] == 1
    assert out["summary"]["cp"]["replications"] == 3


def test_replicate_deterministic_per_seed():
    spec = ExperimentSpec(
        sim=SimSpec(shape=SignalShape("cross", 16), n=40, seed=21),
        config=FitConfig(rank=1, rho=0.0, seed=21, **FAST),
        estimators=("sym_tensor",),
        replications=2,
    )
    a = replicate_experiment(spec)["summary"]["sym_tensor"]
    b = replicate_experiment(spec)["summary"]["sym_tensor"]
    assert a == b


def test_noiseless_oracle_init_recovery():
    # exact-recovery check: truth-initialized symmetric fit on noiseless data
    from symreg import construct_init, fit_sym_tensor

    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    b0 = symcp_to_full(np.array([2.0, -1.0]), q[:, :2])
    errs = []
    for rep in range(3):
        data = synth_dataset(b0, 80, p0=2, sigma=0.0, seed=rep)
        res = fit_sym_tensor(
            data, FitConfig(rank=2, rho=0.0), construct_init(b0, 2)
        )
        errs.append(mse_coef(res.coef_full, b0))
    assert np.mean(errs) <= 1e-8
