#!/usr/bin/env python3
"""Check the miscoordination cycle's payoff ordering and persistence.

Runs configs/symmetric_cycle.yaml as ``csgame simulate`` does: on the fully
symmetric game both players start out believing the opponent leans toward
channel 2 (xi < 1), so both grab channel 1, then both flee to channel 2, and
so on, while the empirical frequencies converge to the mixed equilibrium
(1/2, 1/2). ``csgame simulate configs/symmetric_cycle.yaml`` writes that
trajectory, its cycle and final frequencies; this script adds what the CLI
lacks: the time-averaged payoff of the cycle is strictly below every
equilibrium payoff, the cycle persists through 10^6 double-steps, and a
plot-ready beliefs.csv.

Usage:
    python3 scripts/cycle_demo.py [--steps 10000] [--out out/cycle_demo]
"""

from __future__ import annotations

import argparse
from pathlib import Path

from csgame import (
    cycle_persistence_2x2,
    emit_plot_data,
    expected_utility,
    load_config,
    mixed_ne_2x2,
    simulate_trajectory,
    utility,
)

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "symmetric_cycle.yaml"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=None,
                        help="override the config's steps (10000)")
    parser.add_argument("--out", type=Path, default=Path("out/cycle_demo"))
    return parser


def main() -> None:
    args = build_parser().parse_args()
    config = load_config(CONFIG).with_overrides(steps=args.steps)
    game = config.game
    traj = simulate_trajectory(game, config.dynamics)

    u_pure = utility(game, (0, 1), 0)
    u_mixed = expected_utility(game, 0, 0, mixed_ne_2x2(game)[1])
    u_cycle = float(traj.utilities.mean(axis=0).mean())
    print(f"per-player payoff: cycle {u_cycle:.4f} < mixed NE {u_mixed:.4f} "
          f"< pure NE {u_pure:.4f} bits/s/Hz")

    _, xi = config.dynamics.initial_beliefs
    persists = cycle_persistence_2x2(game, xi, 10**6)
    print(f"cycle persists through n = 10^6 double-steps: {persists}")

    print(f"wrote {emit_plot_data(traj, 'beliefs', args.out / 'beliefs.csv')}")


if __name__ == "__main__":
    main()
