#!/usr/bin/env python3
# Desk-scale estimator comparison: for each signal shape, fit the standard CP,
# symmetrized CP, and symmetric low-rank estimators over seeded replications
# and print mean (sd) of per-entry coefficient MSE and held-out prediction MSE,
# plus how many fits stopped at the outer-iteration cap without converging.
#
#   python scripts/run_trend_experiment.py --shapes two_box,cross,circle \
#       --p 32 --n 500 --replications 10

import argparse

from symreg import ExperimentSpec, FitConfig, SignalShape, SimSpec, replicate_experiment
from symreg.evaluate import ESTIMATORS


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--shapes", default="two_box,cross,circle")
    ap.add_argument("--p", type=int, default=32)
    ap.add_argument("--n", type=int, default=500)
    ap.add_argument("--rank", type=int, default=3)
    ap.add_argument("--rho", type=float, default=0.0)
    ap.add_argument("--sigma", type=float, default=1.0)
    ap.add_argument("--replications", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    cfg = FitConfig(rank=args.rank, rho=args.rho, seed=args.seed)
    print(f"p={args.p} n={args.n} R={args.rank} rho={args.rho} "
          f"sigma={args.sigma} reps={args.replications}")
    header = (f"{'shape':<10s} {'estimator':<11s} {'mse_coef':>16s} "
              f"{'mse_pred_out':>16s} {'capped':>7s}")
    print(header)
    print("-" * len(header))
    for shape in args.shapes.split(","):
        spec = ExperimentSpec(
            sim=SimSpec(shape=SignalShape(shape, args.p), n=args.n,
                        sigma=args.sigma, seed=args.seed),
            config=cfg,
            estimators=ESTIMATORS,
            replications=args.replications,
        )
        summary = replicate_experiment(spec)["summary"]
        for est in ESTIMATORS:
            row = summary[est]
            print(f"{shape:<10s} {est:<11s} "
                  f"{row['mse_coef_mean']:>8.4f} ({row['mse_coef_sd']:.4f}) "
                  f"{row['mse_pred_out_mean']:>8.3f} ({row['mse_pred_out_sd']:.3f}) "
                  f"{row['capped']:>3d}/{row['replications'] - row['failures']:<3d}")


if __name__ == "__main__":
    main()
