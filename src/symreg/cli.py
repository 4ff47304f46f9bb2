# Command-line surface: simulate / fit / cv / replicate. Each command writes
# its outputs into --out through io and returns (exit code, manifest config,
# inputs): 0 on success, 4 when a fit hit max iterations without reaching the
# tolerance. main times the whole command and writes the one manifest.json.
# Every failure is an exception; main alone turns its type into an exit code
# and one stderr line, and writes no manifest: NumericalError (its subclass
# GlmConvergenceError included) gives 5, ValueError (io.DataFormatError and
# every constructor check included) gives 2, OSError gives 3. A ValueError
# can mean usage because none leaves a fit: solvers._block_descent, the one
# outer loop of every fit, wraps each ValueError (np.linalg.LinAlgError is
# one) into NumericalError.

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import evaluate, io, simulate, solvers
from .glm import Family, NumericalError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NO_CONVERGENCE = 4
EXIT_NUMERICAL = 5


# FitConfig fields every fitting command takes as --flags, with FitConfig's
# defaults; rank and rho are set per command (fit and replicate by flag, cv
# by its grids).
SOLVER_FLAGS = ("max_outer_iters", "tol", "seed")


def _build_config(args, rank=None, rho=None):
    return solvers.FitConfig(
        rank=rank if rank is not None else args.rank,
        rho=rho if rho is not None else args.rho,
        **{name: getattr(args, name) for name in SOLVER_FLAGS},
    )


def _add_solver_flags(p, defaults):
    for name in SOLVER_FLAGS:
        flag, default = "--" + name.replace("_", "-"), getattr(defaults, name)
        p.add_argument(flag, type=type(default), default=default)


def _add_signal_flags(p):
    """simulate's and replicate's flags for the simulated family and signal."""
    p.add_argument("--family", choices=["gaussian", "bernoulli"], default="gaussian")
    p.add_argument("--signal-scale", type=float, default=1.0,
                   help="multiplies the 0/1 signal matrix of --shape")


def _outdir(args):
    """--out, created and probed for writing before any fit runs."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    probe = out / ".write_probe"
    probe.touch()
    probe.unlink()
    return out


def cmd_simulate(args):
    spec = simulate.SimSpec(
        shape=simulate.SignalShape(args.shape, args.p), n=args.n, p0=args.p0,
        sigma=args.sigma, seed=args.seed, family=Family(args.family),
        signal_scale=args.signal_scale,
    )
    out = _outdir(args)
    io.write_dataset(simulate.gen_dataset(spec), out)
    config = {name: getattr(args, name) for name in
              ("shape", "p", "n", "p0", "sigma", "family", "signal_scale")}
    return EXIT_OK, config, []


def _read_dataset(args):
    """The --data directory; each ingest warning goes to stderr as one line."""
    data, extras = io.read_dataset(args.data, log_response=args.log_response)
    for warning in data.meta["warnings"]:
        print(f"symreg: warning: {warning}", file=sys.stderr)
    return data, extras


def _fit_estimator(data, config, estimator):
    """The fit, and what metrics.json adds for it: the pipeline's CP fit's
    record, with whether that fit converged and its outer iterations."""
    if estimator == "pipeline":
        solvers.check_rank(config.rank, data.p)  # before the CP fit
        cp_result = solvers.fit_cp(data, config)
        result = evaluate.ESTIMATORS["sym_tensor"](data, config, cp_result)
        return result, {"baseline_cp": {
            "converged": bool(cp_result.converged),
            "iterations": int(cp_result.iterations),
            **cp_result.meta,
        }}
    if estimator != "sym_tensor":
        return evaluate.ESTIMATORS[estimator](data, config), {}
    # The one fork from evaluate.ESTIMATORS, where the table's sym_tensor is
    # `pipeline`: bare sym_tensor is a seeded random B from lam = 0, and the
    # first lam-GLM sets lam. One meaning for the name is ROADMAP item 4.
    rng = np.random.default_rng(config.seed)
    init = solvers.SymCPFactors(None, rng.standard_normal((data.p, config.rank)))
    return solvers.fit_sym_tensor(data, config, init), {}


def cmd_fit(args):
    data, _ = _read_dataset(args)
    config = _build_config(args)
    out = _outdir(args)
    result, baseline = _fit_estimator(data, config, args.estimator)
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
        **result.meta,
        **baseline,
    })
    code = EXIT_OK if result.converged else EXIT_NO_CONVERGENCE
    return code, {"estimator": args.estimator, **_config_snapshot(config)}, [args.data]


def _config_snapshot(config):
    return {name: getattr(config, name) for name in ("rank", "rho") + SOLVER_FLAGS}


def _parse_grid(text, flag, cast):
    """The comma-separated values of a list flag; empty entries are skipped."""
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise ValueError(f"{flag} is an empty list")
    return [cast(tok) for tok in tokens]


def cmd_cv(args):
    data, extras = _read_dataset(args)
    rho_grid = _parse_grid(args.rho_grid, "--rho-grid", float)
    rank_grid = _parse_grid(args.rank_grid, "--rank-grid", int)
    strata = None
    if args.strata_column:
        if args.strata_column not in extras:
            raise ValueError(
                f"--strata-column {args.strata_column!r} not found in subjects.csv"
            )
        strata = np.asarray(extras[args.strata_column])
    plan = evaluate.CvPlan(
        rho_grid=rho_grid, rank_grid=rank_grid, k=args.k, strata=strata,
        seed=args.seed,
    )
    config = _build_config(args, rank=rank_grid[0], rho=rho_grid[0])
    out = _outdir(args)
    sel = evaluate.cv_select(data, plan, config, estimator=args.estimator)
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
    shapes = _parse_grid(args.shape, "--shape", str)
    n_list = _parse_grid(args.n_list, "--n-list", int)
    estimators = _parse_grid(args.estimators, "--estimators", str)
    config = _build_config(args)
    # every spec is checked before the first replication runs
    specs = [
        evaluate.ExperimentSpec(
            sim=simulate.SimSpec(shape=simulate.SignalShape(shape_name, args.p), n=n,
                                 sigma=args.sigma, seed=args.seed,
                                 family=Family(args.family),
                                 signal_scale=args.signal_scale),
            config=config, estimators=estimators, replications=args.replications,
        )
        for shape_name in shapes for n in n_list
    ]
    out = _outdir(args)

    fields = [f"{m}_{stat}" for m in evaluate.METRIC_NAMES for stat in ("mean", "sd")]
    counts = ("replications", "failures", "capped")
    lines = [["shape", "n", "estimator", *fields, *counts]]
    failures = []
    for spec in specs:
        shape_name, n = spec.sim.shape.name, spec.sim.n
        result = evaluate.replicate_experiment(spec)
        for est in estimators:
            row = result["summary"][est]
            lines.append([shape_name, str(n), est] + [io.fmt(row[f]) for f in fields]
                         + [str(row[c]) for c in counts])
        failures += [{"shape": shape_name, "n": n, **f} for f in result["failures"]]
    io.write_rows(out / "summary.csv", lines)
    io.write_json(out / "failures.json", failures)
    return EXIT_OK, dict(
        shape=shapes, p=args.p, n_list=n_list, estimators=estimators,
        replications=args.replications, sigma=args.sigma, family=args.family,
        signal_scale=args.signal_scale, **_config_snapshot(config),
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
    _add_signal_flags(p_sim)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit one estimator on a dataset directory")
    p_fit.add_argument("data")
    p_fit.add_argument(
        "--estimator",
        choices=[*evaluate.ESTIMATORS, "pipeline"],
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
    _add_signal_flags(p_rep)
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
    except NumericalError as exc:
        print(f"symreg: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"symreg: invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"symreg: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
