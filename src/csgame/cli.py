"""Command-line front end.

Four subcommands, all driven by one YAML config file (see
:mod:`csgame.config`): ``equilibria`` analyzes one game, ``regions``
classifies 2x2 gain vectors, ``simulate`` runs one learning trajectory and
``montecarlo`` sweeps many trials. In generator mode, ``equilibria`` and
``simulate`` operate on the trial-0 game.

Exit codes: 0 on success, 1 for configuration or validation problems, 2 for
runtime failures. ``regions`` on a config outside the common-budget 2x2
setting is a configuration problem.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

from .config import FORMATS, VARIANTS, ConfigError, ExperimentConfig, load_config
from .dynamics import TIE_BREAKS, detect_cycle, empirical_frequencies
from .equilibrium import _SYMMETRIC_2X2_NEEDS, analyze_game, classify_region_2x2
from .montecarlo import (
    CYCLE_WINDOW,
    SCHEMA_VERSION,
    _trial_games,
    run_experiment,
    simulate_trajectory,
    trial_game,
)
from .output import (
    _region_scatter,
    dumps_json,
    write_json,
    write_trajectory_csv,
    write_trajectory_json,
    write_trial_records,
)

__all__ = ["main", "build_parser"]


def _report(config: ExperimentConfig, name: str, payload: dict) -> int:
    """Write ``payload`` to ``name`` in the output directory, print it and
    return the success exit code."""
    write_json(payload, Path(config.outputs.directory) / name)
    print(dumps_json(payload))
    return 0


def cmd_equilibria(config: ExperimentConfig) -> int:
    report = analyze_game(trial_game(config, 0)).to_dict()
    return _report(config, "equilibria.json", {"schema_version": SCHEMA_VERSION, **report})


def cmd_regions(config: ExperimentConfig) -> int:
    if config.game is not None:
        try:
            labels = classify_region_2x2(config.game)
        except ValueError as exc:
            raise ConfigError(f"game: {exc}") from None
        return _report(config, "regions.json", {
            "schema_version": SCHEMA_VERSION,
            "regions": sorted(labels),
            "gains": config.game.gains.tolist(),
        })
    gen = config.generator
    if (gen.players, gen.channels) != (2, 2):
        raise ConfigError(
            f"generator: this analysis needs {_SYMMETRIC_2X2_NEEDS[0]}, "
            f"got {gen.players} and {gen.channels}"
        )
    games = _trial_games(config)
    keys = ["+".join(sorted(labels)) for labels in classify_region_2x2(games)]
    scatter_path = _region_scatter(Path(config.outputs.directory) / "regions.csv",
                                   range(len(games)), games.stacks["gains"] if games else [], keys)
    return _report(config, "regions.json", {
        "schema_version": SCHEMA_VERSION,
        "trials": gen.trials,
        "region_histogram": dict(sorted(Counter(keys).items())),
        "scatter": str(scatter_path),
    })


def cmd_simulate(config: ExperimentConfig) -> int:
    game = trial_game(config, 0)
    traj = simulate_trajectory(game, config.dynamics)
    out_dir = Path(config.outputs.directory)
    if config.outputs.format == "csv":
        traj_path = write_trajectory_csv(traj, out_dir / "trajectory.csv")
    else:
        traj_path = write_trajectory_json(traj, out_dir / "trajectory.json")
    cycle = detect_cycle(traj, window=min(CYCLE_WINDOW, traj.T))
    return _report(config, "run_summary.json", {
        "schema_version": SCHEMA_VERSION,
        "variant": traj.variant,
        "steps": traj.T,
        "final_frequencies": empirical_frequencies(traj).tolist(),
        "time_avg_utility": (traj.utility_sums / traj.T).tolist(),
        "cycle": None if cycle is None else {
            "period": cycle.period,
            "onset": cycle.onset,
            "profiles": [list(p) for p in cycle.cycle_profiles],
            "time_avg_utility": cycle.time_avg_utility.tolist(),
        },
        "trajectory": str(traj_path),
    })


def cmd_montecarlo(config: ExperimentConfig) -> int:
    summary, records = run_experiment(config)
    write_trial_records(records, Path(config.outputs.directory) / "trials")
    return _report(config, "summary.json", summary.to_dict())


_COMMANDS = {
    "equilibria": cmd_equilibria,
    "regions": cmd_regions,
    "simulate": cmd_simulate,
    "montecarlo": cmd_montecarlo,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csgame",
        description="Channel-selection games: equilibria and learning dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("equilibria", "pure/mixed equilibrium analysis of one game"),
        ("regions", "2x2 regions of the pure equilibria (plus scatter data)"),
        ("simulate", "one fictitious-play trajectory"),
        ("montecarlo", "seeded multi-trial sweep with summary statistics"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="YAML experiment config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--steps", type=int, default=None, help="override dynamics steps")
        p.add_argument("--variant", choices=VARIANTS, default=None,
                       help="override learning variant")
        p.add_argument("--tie-break", choices=TIE_BREAKS, default=None,
                       help="override argmax tie-break policy")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--format", choices=FORMATS, default=None,
                       help="override trajectory file format")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config).with_overrides(
            seed=args.seed,
            steps=args.steps,
            variant=args.variant,
            tie_break=args.tie_break,
            out=args.out,
            fmt=args.format,
        )
        return _COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - boundary: report and signal failure
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
