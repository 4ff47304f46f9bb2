# Command-line surface: simulate / fit / cv / replicate. Each command writes
# its outputs into --out through io and returns (exit code, manifest config,
# inputs); main times the whole command and writes the one manifest.json.
# Exit codes: 0 success, 2 usage or validation, 3 I/O, 4 hit max iterations
# without reaching the tolerance (results and manifest are still written),
# 5 numerical failure in a solver (GlmConvergenceError or NumericalError; no
# results are written).

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import evaluate, io, simulate, solvers
from .glm import GlmConvergenceError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NO_CONVERGENCE = 4
EXIT_NUMERICAL = 5


# FitConfig fields every fitting command takes as --flags, with FitConfig's
# defaults; rank and rho are set per command (fit and replicate by flag, cv
# by its grids).
SOLVER_FLAGS = (
    "max_outer_iters", "tol", "prox_steps", "delta0", "seed", "renormalize_columns"
)


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _build_config(args, rank=None, rho=None):
    try:
        return solvers.FitConfig(
            rank=rank if rank is not None else args.rank,
            rho=rho if rho is not None else args.rho,
            **{name: getattr(args, name) for name in SOLVER_FLAGS},
        )
    except ValueError as exc:
        raise CliError(EXIT_USAGE, f"invalid solver configuration: {exc}")


def _add_solver_flags(p, defaults):
    for name in SOLVER_FLAGS:
        flag, default = "--" + name.replace("_", "-"), getattr(defaults, name)
        if isinstance(default, bool):
            p.add_argument(flag, action="store_true")
        else:
            p.add_argument(flag, type=type(default), default=default)


def _outdir(args):
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.touch()
        probe.unlink()
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot write to --out {out}: {exc}")
    return out


def _load_dataset(args):
    try:
        return io.read_dataset(args.data, log_response=args.log_response)
    except io.DataFormatError as exc:
        raise CliError(EXIT_USAGE, str(exc))
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot read dataset: {exc}")


def cmd_simulate(args):
    try:
        shape = simulate.SignalShape(args.shape, args.p)
    except ValueError as exc:
        flag = "--shape" if args.shape not in simulate.SHAPE_NAMES else "--p"
        raise CliError(EXIT_USAGE, f"invalid {flag}: {exc}")
    try:
        spec = simulate.SimSpec(
            shape=shape, n=args.n, p0=args.p0, sigma=args.sigma, seed=args.seed
        )
    except ValueError as exc:
        raise CliError(EXIT_USAGE, f"invalid simulation flags: {exc}")
    out = _outdir(args)
    io.write_dataset(simulate.gen_dataset(spec), out)
    config = {name: getattr(args, name) for name in ("shape", "p", "n", "p0", "sigma")}
    return EXIT_OK, config, []


def _fit_estimator(data, config, estimator):
    if estimator == "cp":
        return solvers.fit_cp(data, config)
    if estimator == "sym_cp":
        return solvers.fit_sym_cp(data, config)
    if estimator == "pipeline":
        return solvers.default_pipeline(data, config)
    # bare sym_tensor: seeded random B, lam from one unpenalized GLM update
    rng = np.random.default_rng(config.seed)
    init = solvers.SymCPFactors(None, rng.standard_normal((data.p, config.rank)))
    return solvers.fit_sym_tensor(data, config, init)


def cmd_fit(args):
    data, _ = _load_dataset(args)
    config = _build_config(args)
    out = _outdir(args)
    try:
        result = _fit_estimator(data, config, args.estimator)
    except (GlmConvergenceError, solvers.NumericalError) as exc:
        raise CliError(EXIT_NUMERICAL, f"solver failed: {exc}")
    factors = result.factors
    io.write_rows(out / "gamma.csv", ([io.fmt(v)] for v in result.gamma))
    io.write_rows(out / "factors.csv", [map(io.fmt, factors.weights)] + [
        map(io.fmt, row) for m in factors.matrices for row in m
    ])
    io.write_matrix_csv(out / "coef_full.csv", result.coef_full)
    io.write_rows(out / "trace.csv", [["iteration", "objective"]] + [
        [str(i), io.fmt(v)] for i, v in enumerate(result.objective_trace)
    ])
    io.write_json(out / "metrics.json", {
        "mse_pred_in": evaluate.mse_pred(evaluate.predict_mean(result, data), data.y),
        "nnz_B": sum(int(np.count_nonzero(m)) for m in factors.matrices),
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
        "objective": float(result.objective_trace[-1]),
    })
    code = EXIT_OK if result.converged else EXIT_NO_CONVERGENCE
    return code, {"estimator": args.estimator, **_config_snapshot(config)}, [args.data]


def _config_snapshot(config):
    return {name: getattr(config, name) for name in ("rank", "rho") + SOLVER_FLAGS}


def _parse_grid(text, flag, cast):
    try:
        vals = [cast(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise CliError(EXIT_USAGE, f"invalid {flag}: {exc}")
    if not vals:
        raise CliError(EXIT_USAGE, f"invalid {flag}: empty grid")
    return vals


def cmd_cv(args):
    data, extras = _load_dataset(args)
    rho_grid = _parse_grid(args.rho_grid, "--rho-grid", float)
    rank_grid = _parse_grid(args.rank_grid, "--rank-grid", int)
    strata = None
    if args.strata_column:
        if args.strata_column not in extras:
            raise CliError(
                EXIT_USAGE,
                f"--strata-column {args.strata_column!r} not found in subjects.csv",
            )
        strata = np.asarray([float(v) for v in extras[args.strata_column]])
    try:
        plan = evaluate.CvPlan(
            rho_grid=rho_grid, rank_grid=rank_grid, k=args.k, strata=strata,
            seed=args.seed,
        )
    except ValueError as exc:
        raise CliError(EXIT_USAGE, f"invalid CV plan: {exc}")
    config = _build_config(args, rank=rank_grid[0], rho=rho_grid[0])
    out = _outdir(args)
    try:
        sel = evaluate.cv_select(data, plan, config, estimator=args.estimator)
    except (GlmConvergenceError, solvers.NumericalError) as exc:
        raise CliError(EXIT_NUMERICAL, f"cross-validation failed: {exc}")
    labels = [str(f + 1) for f in range(plan.k)] + ["overall"]
    io.write_rows(out / "cv_table.csv", [
        ["fold"] + [f"rho={rho};rank={rank}" for rho, rank in sel.grid]
    ] + [[label] + [io.fmt(v) for v in row]
         for label, row in zip(labels, sel.table_rows())])
    io.write_json(out / "selected.json", {"rho": sel.rho, "rank": sel.rank})
    # folds numbered from 1, as in cv_table.csv
    io.write_json(out / "failures.json", [
        {"rho": sel.grid[g][0], "rank": sel.grid[g][1], "fold": f + 1, "reason": why}
        for g, f, why in sel.failures
    ])
    return EXIT_OK, dict(
        k=args.k, rho_grid=rho_grid, rank_grid=rank_grid, estimator=args.estimator,
        strata_column=args.strata_column, **_config_snapshot(config),
    ), [args.data]


def cmd_replicate(args):
    shapes = [s.strip() for s in args.shape.split(",") if s.strip()]
    for s in shapes:
        if s not in simulate.SHAPE_NAMES:
            raise CliError(EXIT_USAGE, f"invalid --shape: unknown shape {s!r}")
    n_list = _parse_grid(args.n_list, "--n-list", int)
    estimators = [e.strip() for e in args.estimators.split(",") if e.strip()]
    for e in estimators:
        if e not in evaluate.ESTIMATORS:
            raise CliError(EXIT_USAGE, f"invalid --estimators: unknown {e!r}")
    if args.replications < 1:
        raise CliError(EXIT_USAGE, "invalid --replications: must be >= 1")
    config = _build_config(args)
    out = _outdir(args)

    fields = [f"{m}_{stat}" for m in evaluate.METRIC_NAMES for stat in ("mean", "sd")]
    lines = [["shape", "n", "estimator", *fields, "replications", "failures"]]
    for shape_name in shapes:
        for n in n_list:
            try:
                spec = evaluate.ExperimentSpec(
                    sim=simulate.SimSpec(
                        shape=simulate.SignalShape(shape_name, args.p),
                        n=n,
                        sigma=args.sigma,
                        seed=args.seed,
                    ),
                    config=config,
                    estimators=tuple(estimators),
                    replications=args.replications,
                )
            except ValueError as exc:
                raise CliError(EXIT_USAGE, f"invalid replication spec: {exc}")
            rows = evaluate.replicate_experiment(spec)["summary"]
            for est in estimators:
                row = rows[est]
                lines.append([shape_name, str(n), est] + [io.fmt(row[f]) for f in fields]
                             + [str(row["replications"]), str(row["failures"])])
    io.write_rows(out / "summary.csv", lines)
    return EXIT_OK, dict(
        shape=shapes, p=args.p, n_list=n_list, estimators=estimators,
        replications=args.replications, sigma=args.sigma, **_config_snapshot(config),
    ), []


def build_parser():
    parser = argparse.ArgumentParser(
        prog="symreg",
        description="Sparse symmetric low-rank matrix regression toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = solvers.FitConfig()

    p_sim = sub.add_parser("simulate", help="write a synthetic dataset directory")
    p_sim.add_argument("--shape", required=True)
    p_sim.add_argument("--p", type=int, required=True)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--p0", type=int, default=5)
    p_sim.add_argument("--sigma", type=float, default=1.0)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit one estimator on a dataset directory")
    p_fit.add_argument("data")
    p_fit.add_argument(
        "--estimator",
        choices=["cp", "sym_cp", "sym_tensor", "pipeline"],
        default="pipeline",
    )
    p_fit.add_argument("--rank", type=int, default=defaults.rank)
    p_fit.add_argument("--rho", type=float, default=defaults.rho)
    p_fit.add_argument("--log-response", action="store_true")
    _add_solver_flags(p_fit, defaults)
    p_fit.add_argument("--out", required=True)
    p_fit.set_defaults(func=cmd_fit)

    p_cv = sub.add_parser("cv", help="k-fold cross-validation over a rho/rank grid")
    p_cv.add_argument("data")
    p_cv.add_argument("--k", type=int, default=3)
    p_cv.add_argument("--rho-grid", required=True)
    p_cv.add_argument("--rank-grid", required=True)
    p_cv.add_argument(
        "--estimator", choices=list(evaluate.ESTIMATORS), default="sym_tensor"
    )
    p_cv.add_argument("--strata-column", default=None)
    p_cv.add_argument("--log-response", action="store_true")
    _add_solver_flags(p_cv, defaults)
    p_cv.add_argument("--out", required=True)
    p_cv.set_defaults(func=cmd_cv)

    p_rep = sub.add_parser("replicate", help="seeded multi-replication summary")
    p_rep.add_argument("--shape", required=True, help="comma-separated shape names")
    p_rep.add_argument("--p", type=int, default=32)
    p_rep.add_argument("--n-list", required=True)
    p_rep.add_argument("--replications", type=int, required=True)
    p_rep.add_argument("--estimators", default="cp,sym_cp,sym_tensor")
    p_rep.add_argument("--rank", type=int, default=defaults.rank)
    p_rep.add_argument("--rho", type=float, default=defaults.rho)
    p_rep.add_argument("--sigma", type=float, default=1.0)
    _add_solver_flags(p_rep, defaults)
    p_rep.add_argument("--out", required=True)
    p_rep.set_defaults(func=cmd_replicate)
    return parser


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.monotonic()
    try:
        code, config, inputs = args.func(args)
        io.write_manifest(Path(args.out), args.command, config, inputs, args.seed,
                          time.monotonic() - t0, argv)
    except CliError as exc:
        print(f"symreg: {exc}", file=sys.stderr)
        return exc.code
    except OSError as exc:
        print(f"symreg: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
