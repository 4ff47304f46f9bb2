# Metrics, (stratified) k-fold cross-validation with a rho/rank grid, and the
# multi-replication experiment harness that mirrors the simulation tables:
# per-estimator mean/sd of coefficient and prediction MSE across seeded
# replications. Replications draw derived seeds and run in order, as do CV
# folds, so every reduction follows the replication or fold index.

from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .glm import NumericalError
from .simulate import SimSpec, shape_signal, synth_dataset
from .solvers import (
    FitConfig,
    check_rank,
    default_pipeline,
    fit_cp,
    fit_sym_cp,
)

# The one estimator table of cv_select, replicate_experiment and the CLI:
# name -> fit(data, config, cp_result=None). cp_result, a CP fit on the same
# data and config, spares each fit a CP fit of its own. sym_tensor is the
# constructed-init pipeline. cp looks fit_cp up at call time, so a wrapper
# set on this module's fit_cp sees its calls.
ESTIMATORS = {
    "cp": lambda data, config, cp_result=None: cp_result or fit_cp(data, config),
    "sym_cp": fit_sym_cp,
    "sym_tensor": default_pipeline,
}
# constant XOR'ed into a replication seed to draw its held-out evaluation set
TEST_SEED_SALT = 0x5EED5EED


def worker_count():
    """Replication workers the benchmark records; 0, as replications run in order."""
    return 0


@dataclass
class CvPlan:
    rho_grid: tuple
    rank_grid: tuple
    k: int = 3
    strata: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        self.rho_grid = tuple(float(r) for r in self.rho_grid)
        self.rank_grid = tuple(int(r) for r in self.rank_grid)
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if not self.rho_grid or not self.rank_grid:
            raise ValueError("grids must be non-empty")
        if self.strata is not None:
            self.strata = np.asarray(self.strata).ravel()


@dataclass
class ExperimentSpec:
    sim: SimSpec
    config: FitConfig
    estimators: tuple = tuple(ESTIMATORS)
    replications: int = 1

    def __post_init__(self):
        self.estimators = tuple(self.estimators)
        unknown = set(self.estimators) - set(ESTIMATORS)
        if unknown:
            raise ValueError(f"unknown estimators {sorted(unknown)}")
        if not self.estimators:
            raise ValueError("estimators must be non-empty")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        # the pipeline's rank bound, checked before any replication's CP fit
        if "sym_tensor" in self.estimators:
            check_rank(self.config.rank, self.sim.shape.p)


def mse_coef(b_hat, b0):
    """Per-entry mean squared error ||b_hat - b0||_F^2 / p^2."""
    b_hat = np.asarray(b_hat, dtype=float)
    b0 = np.asarray(b0, dtype=float)
    if b_hat.shape != b0.shape:
        raise ValueError(f"shape mismatch {b_hat.shape} vs {b0.shape}")
    return float(np.mean((b_hat - b0) ** 2))


def mse_pred(y_hat, y):
    y_hat = np.asarray(y_hat, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if y_hat.size != y.size:
        raise ValueError(f"length mismatch {y_hat.size} vs {y.size}")
    return float(np.mean((y_hat - y) ** 2))


def kfold_split(n, plan):
    """Deterministic partition of range(n) into plan.k folds.

    With strata, each class is shuffled and split independently so per-fold
    class counts differ by at most one; a class smaller than k is spread one
    sample per fold until exhausted.
    """
    if n < plan.k:
        raise ValueError(f"need n >= k, got n={n}, k={plan.k}")
    rng = np.random.default_rng(plan.seed)
    folds = [[] for _ in range(plan.k)]
    if plan.strata is None:
        groups = [np.arange(n)]
    else:
        if plan.strata.size != n:
            raise ValueError("strata length must equal n")
        groups = [np.flatnonzero(plan.strata == v) for v in np.unique(plan.strata)]
    for members in groups:
        perm = members[rng.permutation(members.size)]
        for f, chunk in enumerate(np.array_split(perm, plan.k)):
            folds[f].extend(chunk.tolist())
    return [np.sort(np.asarray(f, dtype=int)) for f in folds]


def predict_mean(result, data):
    eta = result.predict_eta(data.Z, data.X)
    return data.family.mean(eta)


@dataclass
class CvSelection:
    rho: float
    rank: int
    grid: list                     # (rho, rank) per grid column
    fold_mse: np.ndarray           # (k, n_grid); nan where a fit failed
    mean_mse: np.ndarray           # (n_grid,)
    failures: list = field(default_factory=list)

    def table_rows(self):
        """Rows fold 1..k then the across-fold mean, one column per grid point."""
        rows = [list(r) for r in self.fold_mse]
        rows.append(list(self.mean_mse))
        return rows


def cv_select(data, plan, config, estimator="sym_tensor"):
    """Grid search (rho, rank) by k-fold CV on held-out prediction MSE.

    estimator names an ESTIMATORS entry; any other name is a ValueError
    before the first fit. Failed fits exclude their grid point (recorded in
    failures). Ties prefer larger rho, then smaller rank. When every grid
    point fails, the NumericalError names the number of failed fits and
    each distinct reason once, with its count.
    """
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}")
    folds = kfold_split(data.n, plan)
    grid = [(rho, rank) for rho in plan.rho_grid for rank in plan.rank_grid]
    fold_mse = np.full((plan.k, len(grid)), np.nan)
    failures = []
    all_idx = np.arange(data.n)
    # every grid point's config, and the pipeline's rank bound, are checked
    # before the first fold is fit
    configs = [replace(config, rank=rank, rho=rho) for rho, rank in grid]
    if estimator == "sym_tensor":
        for rank in plan.rank_grid:
            check_rank(rank, data.p)
    for g, cfg in enumerate(configs):
        for f, test_idx in enumerate(folds):
            train_idx = np.setdiff1d(all_idx, test_idx)
            try:
                res = ESTIMATORS[estimator](data.take(train_idx), cfg)
            except NumericalError as exc:
                failures.append((g, f, str(exc)))
                continue
            test = data.take(test_idx)
            fold_mse[f, g] = mse_pred(predict_mean(res, test), test.y)

    # grid points with any failed fold are excluded from selection entirely
    complete = np.all(np.isfinite(fold_mse), axis=0)
    mean_mse = np.full(len(grid), np.nan)
    mean_mse[complete] = fold_mse[:, complete].mean(axis=0)

    candidates = [g for g in range(len(grid)) if complete[g]]
    if not candidates:
        reasons = Counter(why for _, _, why in failures)
        raise NumericalError(
            f"every grid point failed in cross-validation ({len(failures)} failed "
            "fits: " + "; ".join(f"{why} [x{k}]" for why, k in reasons.items()) + ")"
        )
    best = min(candidates, key=lambda g: (mean_mse[g], -grid[g][0], grid[g][1]))
    return CvSelection(
        rho=grid[best][0],
        rank=grid[best][1],
        grid=grid,
        fold_mse=fold_mse,
        mean_mse=mean_mse,
        failures=failures,
    )


def _replication_metrics(spec, rep):
    """Metrics for every requested estimator on one seeded replication.

    Shares work: CP is fitted once and passed to every ESTIMATORS entry as
    cp_result, so it is the cp result, the base of sym_cp and the init
    source of the sym_tensor pipeline.
    Both samples are drawn as gen_dataset draws sim, in sim.family from the
    true B = signal_scale * shape signal, which mse_coef scores against.
    mse_pred_in is on the training sample (seed rep_seed); mse_pred_out on a
    fresh draw of the same size with seed (rep_seed XOR salt).
    """
    sim = spec.sim
    rep_seed = sim.seed ^ rep
    b0 = sim.signal_scale * shape_signal(sim.shape)
    data, test = (
        synth_dataset(b0, sim.n, sim.p0, sigma=sim.sigma, seed=seed, family=sim.family)
        for seed in (rep_seed, rep_seed ^ TEST_SEED_SALT)
    )

    cp_result = fit_cp(data, spec.config)
    out = {}
    for est in spec.estimators:
        res = ESTIMATORS[est](data, spec.config, cp_result)
        out[est] = {
            "mse_coef": mse_coef(res.coef_full, b0),
            "mse_pred_in": mse_pred(predict_mean(res, data), data.y),
            "mse_pred_out": mse_pred(predict_mean(res, test), test.y),
            "converged": bool(res.converged),
        }
    return out


METRIC_NAMES = ("mse_coef", "mse_pred_in", "mse_pred_out")


def replicate_experiment(spec):
    """Mean and sd of each metric per estimator across seeded replications.

    Failed replications are excluded from the summary and counted
    ("failures"); "capped" counts the successful ones whose fit stopped at
    max_outer_iters without converging. The returned "failures" lists each
    failed replication r (seed sim.seed ^ r) with its reason.
    """
    per_rep, failures = [None] * spec.replications, []
    for r in range(spec.replications):
        try:
            per_rep[r] = _replication_metrics(spec, r)
        except NumericalError as exc:
            failures.append({"replication": r, "reason": str(exc)})

    summary = {}
    done = [m for m in per_rep if m is not None]
    for est in spec.estimators:
        row = {
            "failures": spec.replications - len(done),
            "replications": spec.replications,
            "capped": sum(1 for m in done if not m[est]["converged"]),
        }
        for metric in METRIC_NAMES:
            vals = np.array([m[est][metric] for m in done])
            row[f"{metric}_mean"] = float(vals.mean()) if vals.size else float("nan")
            row[f"{metric}_sd"] = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
        summary[est] = row
    return {"summary": summary, "per_replication": per_rep, "failures": failures}
