"""The benchmark's workloads: inputs from a seed, one timed operation per
input, output checks, and the quality of what the operation produced.

A run of a workload builds `size.ops` distinct inputs from its seed and
times one operation on each. Fits keep the default tolerance, and
`size.max_outer_iters` sits below the number of outer iterations that CP, or
on `cli_logit_sym` most logistic fits, need on these inputs. The fit that
does most of the work then does about the same amount of it on every input.
See README.md for why each workload exists.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from symreg import cli, evaluate, io, simulate, solvers
from symreg.glm import BERNOULLI


@dataclass(frozen=True)
class Size:
    p: int
    n: int
    ops: int  # distinct inputs, one timed operation each, per run
    max_outer_iters: int
    replications: int = 2  # replicate_rho0 only


# held-out draws per input for mse_pred_out on the CLI workloads; one draw of
# n records leaves sampling noise of several per cent in a Gaussian MSE
HELD_OUT_DRAWS = 4


class OperationFailed(RuntimeError):
    """The program reported a failure: an exit code other than 0 or 4."""


def _read_vector(path):
    return np.array([float(line) for line in Path(path).read_text().split()])


class _Workload:
    def __init__(self, seed, size, workdir):
        self.seed, self.size, self.workdir = seed, size, workdir


class _CliFit(_Workload):
    """Shared run, checks and quality for a `symreg fit` output directory.

    Subclasses set `b0`, the simulated signal, and `draw(seed)`, a dataset
    of the input's size and family.
    """

    def data_seeds(self, i):
        return self.seed * self.size.ops + i

    def fit_argv(self, data_dir, out_dir, estimator):
        return [
            "fit", str(data_dir), "--estimator", estimator,
            "--rank", "3", "--rho", "0.5",
            "--max-outer-iters", str(self.size.max_outer_iters),
            "--out", str(out_dir),
        ]

    def run_fit(self, argv):
        code = cli.main(argv)
        # 4 is the documented iteration cap: results are written
        if code not in (0, 4):
            raise OperationFailed(f"symreg {argv[0]} exited {code}")
        return code

    def held_out_mse(self, gamma, coef, seed):
        """Prediction MSE on HELD_OUT_DRAWS fresh draws, drawn one at a time.

        The first has seed `seed ^ TEST_SEED_SALT`, as the replication harness
        uses; the others add multiples of 2**32, so no two inputs share one.
        """
        total = 0.0
        for j in range(HELD_OUT_DRAWS):
            test = self.draw((seed ^ evaluate.TEST_SEED_SALT) + j * 2**32)
            eta = test.Z @ gamma + test.x_rows @ coef.ravel()
            total += float(np.mean((test.family.mean(eta) - test.y) ** 2))
        return total / HELD_OUT_DRAWS

    def inspect_fit(self, fit_dir, seed):
        failed = []
        rows = Path(fit_dir, "trace.csv").read_text().splitlines()[1:]
        trace = np.array([float(r.split(",")[1]) for r in rows])
        if np.any(np.diff(trace) > 0):
            failed.append("trace.csv objective increases")
        coef = io.read_matrix_csv(Path(fit_dir, "coef_full.csv"))
        if not np.array_equal(coef, coef.T):
            failed.append("coef_full.csv not exactly symmetric")
        metrics = json.loads(Path(fit_dir, "metrics.json").read_text())
        if metrics["objective"] != trace[-1]:
            failed.append("metrics.json objective differs from the last trace row")
        gamma = _read_vector(Path(fit_dir, "gamma.csv"))
        quality = {
            "mse_pred_out": self.held_out_mse(gamma, coef, seed),
            "mse_coef": evaluate.mse_coef(coef, self.b0),
            "objective": float(metrics["objective"]),
        }
        return failed, quality


class ReplicateRho0(_Workload):
    name = "replicate_rho0"

    def data_seeds(self, i):
        # replication r draws seed sim_seed ^ r; even sim seeds keep them apart
        sim_seed = 2 * (self.seed * self.size.ops + i)
        return sim_seed, [sim_seed ^ r for r in range(self.size.replications)]

    def build(self, i):
        sim_seed, _ = self.data_seeds(i)
        return evaluate.ExperimentSpec(
            sim=simulate.SimSpec(
                shape=simulate.SignalShape("circle", self.size.p),
                n=self.size.n, p0=5, sigma=1.0, seed=sim_seed,
            ),
            config=solvers.FitConfig(
                rank=3, rho=0.0, max_outer_iters=self.size.max_outer_iters
            ),
            estimators=("cp", "sym_cp", "sym_tensor"),
            replications=self.size.replications,
        )

    def run(self, spec, out_dir):
        return evaluate.replicate_experiment(spec)

    def inspect(self, spec, result, out_dir):
        rows = result["summary"]
        failed = []
        if rows["sym_tensor"]["failures"] != 0:
            failed.append(f"{rows['sym_tensor']['failures']} replications failed")
        # criterion 3: symmetrizing CP leaves predictions on symmetric X unchanged
        if abs(rows["cp"]["mse_pred_out_mean"] - rows["sym_cp"]["mse_pred_out_mean"]) > 1e-10:
            failed.append("cp and sym_cp held-out MSE differ")
        st = rows["sym_tensor"]
        quality = {
            "mse_pred_out": st["mse_pred_out_mean"],
            "mse_coef": st["mse_coef_mean"],
            # Gaussian, rho=0: the objective is the residual sum of squares / 2
            "objective": 0.5 * spec.sim.n * st["mse_pred_in_mean"],
        }
        return failed, quality


class CliPipelineSparse(_CliFit):
    name = "cli_pipeline_sparse"

    @property
    def b0(self):
        return simulate.shape_signal(simulate.SignalShape("cross", self.size.p))

    def draw(self, seed):
        return simulate.synth_dataset(self.b0, self.size.n, p0=5, sigma=1.0, seed=seed)

    def build(self, i):
        seed = self.data_seeds(i)
        data_dir = Path(self.workdir, f"ds{i}")
        code = cli.main([
            "simulate", "--shape", "cross", "--p", str(self.size.p),
            "--n", str(self.size.n), "--seed", str(seed), "--out", str(data_dir),
        ])
        if code != 0:
            raise RuntimeError(f"symreg simulate exited {code}")
        return data_dir, seed

    def run(self, inp, out_dir):
        data_dir, _ = inp
        return self.run_fit(self.fit_argv(data_dir, out_dir, "pipeline"))

    def inspect(self, inp, code, out_dir):
        return self.inspect_fit(out_dir, inp[1])


class CliLogitSym(_CliFit):
    name = "cli_logit_sym"

    @property
    def b0(self):
        return 0.1 * simulate.shape_signal(simulate.SignalShape("two_box", self.size.p))

    def draw(self, seed):
        return simulate.synth_dataset(self.b0, self.size.n, seed=seed, family=BERNOULLI)

    def build(self, i):
        seed = self.data_seeds(i)
        return self.draw(seed), seed

    def run(self, inp, out_dir):
        data, _ = inp
        io.write_dataset(data, Path(out_dir, "data"))
        return self.run_fit(
            self.fit_argv(Path(out_dir, "data"), Path(out_dir, "fit"), "sym_tensor")
        )

    def inspect(self, inp, code, out_dir):
        data, seed = inp
        failed, quality = self.inspect_fit(Path(out_dir, "fit"), seed)
        again, _ = io.read_dataset(Path(out_dir, "data"))
        for field in ("y", "Z", "X"):
            if not np.array_equal(getattr(again, field), getattr(data, field)):
                failed.append(f"re-read dataset {field} differs from the written one")
        return failed, quality


WORKLOADS = {w.name: w for w in (ReplicateRho0, CliPipelineSparse, CliLogitSym)}

FULL = {
    "replicate_rho0": Size(p=32, n=500, ops=4, max_outer_iters=30),
    "cli_pipeline_sparse": Size(p=32, n=320, ops=3, max_outer_iters=120),
    "cli_logit_sym": Size(p=32, n=500, ops=6, max_outer_iters=120),
}

# a few seconds in all; for the benchmark's own tests
TINY = {
    "replicate_rho0": Size(p=16, n=60, ops=1, max_outer_iters=3),
    "cli_pipeline_sparse": Size(p=16, n=60, ops=1, max_outer_iters=3),
    "cli_logit_sym": Size(p=16, n=80, ops=1, max_outer_iters=3),
}
