#!/usr/bin/env python3
"""Sweep SNR and tabulate where fictitious play ends up on random 2x2 games.

Runs one seeded Monte-Carlo experiment per SNR value (classic play,
exponential fading) and reports, for each, how many runs settled on a pure
equilibrium, tracked the mixed point, or were still cycling at the horizon,
plus the payoff benchmarks. Writes only that table, as sweep.csv; the
per-trial records are not kept. Higher SNR pushes more realizations into
the two-equilibria overlap region, where the initial beliefs decide between
coordination and the miscoordination cycle.

Usage:
    python3 scripts/convergence_sweep.py [--snrs 0 10 20 30] [--trials 200]
                                         [--steps 10000] [--seed 1] [--out out/sweep]
"""

from __future__ import annotations

import argparse
import csv
from pathlib import Path

from csgame import OUTCOMES, parse_config, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--snrs", type=float, nargs="+", default=[0.0, 10.0, 20.0, 30.0],
                        help="SNR grid in dB")
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--steps", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=Path("out/sweep"))
    return parser


def main() -> None:
    args = build_parser().parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    rows = []
    header = ["snr_db", *OUTCOMES, "mean_time_avg_utility", "mean_best_pure_ne_utility"]
    print("  ".join(f"{h:>24s}" if h == header[-1] else f"{h:>12s}" for h in header))
    for snr_db in args.snrs:
        config = parse_config({
            "generator": {
                "players": 2,
                "channels": 2,
                "snr_db": snr_db,
                "trials": args.trials,
            },
            "dynamics": {"steps": args.steps},
            "seed": args.seed,
        })
        summary, _ = run_experiment(config)
        payoffs = summary.payoffs
        row = {
            "snr_db": snr_db,
            **{outcome: summary.convergence.get(outcome, 0) for outcome in OUTCOMES},
            "mean_time_avg_utility": payoffs["mean_time_avg_utility"],
            "mean_best_pure_ne_utility": payoffs["mean_best_pure_ne_utility"],
        }
        rows.append(row)
        print("  ".join(
            f"{row[h]:>24.4f}" if h == header[-1]
            else f"{row[h]:>12.4f}" if h == "mean_time_avg_utility"
            else f"{row[h]:>12}" for h in header
        ))

    table_path = args.out / "sweep.csv"
    with table_path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {table_path}")


if __name__ == "__main__":
    main()
