"""Thread-setting note: replicate_rho0 under three thread settings.

    python3 bench/thread_note.py --seeds 0 1 2

Runs the untraced replicate_rho0 workload once per seed for each setting,
with no more than two threads in total, and prints a Markdown table of the
wall_s medians and their spread. It reads wall_s, not wall_rel, because two
BLAS threads would also speed up the reference kernel. The benchmark itself always runs with one
BLAS thread and the harness sequential; this note is recorded, not gated.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run_bench.py"
SETTINGS = [
    ("pinned: 1 BLAS thread, SYMREG_THREADS unset", []),
    ("SYMREG_THREADS=2, 1 BLAS thread", ["--harness-threads", "2"]),
    ("OPENBLAS_NUM_THREADS=2, SYMREG_THREADS unset", ["--blas-threads", "2"]),
]


def wall(seed, extra):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "replicate_rho0", "--seed", str(seed),
         "--seconds", "0", "--trace", "0", *extra],
        capture_output=True, text=True, timeout=900, check=True,
    )
    record = next(line for line in proc.stdout.splitlines() if line.startswith("# result "))
    return json.loads(record[len("# result "):])["metrics"]["wall_s"]["value"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    args = ap.parse_args()
    # settings alternate within each seed, so a drift in machine speed
    # spreads over all of them instead of landing on one
    walls = {label: [] for label, _ in SETTINGS}
    for seed in args.seeds:
        for label, extra in SETTINGS:
            walls[label].append(wall(seed, extra))
    print("| setting | wall_s per seed (s) | median (s) | (max - min) / median |")
    print("|---|---|---|---|")
    for label, values in walls.items():
        med = statistics.median(values)
        cells = ", ".join(f"{v:.2f}" for v in values)
        print(f"| {label} | {cells} | {med:.2f} | {(max(values) - min(values)) / med:.3f} |")


if __name__ == "__main__":
    main()
