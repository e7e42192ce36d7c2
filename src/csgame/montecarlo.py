"""Seeded game sampling and the Monte-Carlo experiment driver.

Trials are fully independent: trial i draws from a generator seeded with
``SeedSequence([seed, i])``, so records do not depend on execution order and
the whole sweep is reproducible bit for bit. Classic-variant sweeps of any
shape run as lockstep batches of :func:`~csgame.dynamics.run_fp`, chunked to
stay within a memory budget; a single classic trial is a batch of one, so
its record is bit-for-bit the one a sweep writes. A classic record reads only
its game's trailing window of profiles and the batch's own payoff table.
Aggregation-variant trials run one game at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import FADING_LAWS, DynamicsSpec, ExperimentConfig
from .dynamics import (
    Trajectory,
    _action_dtype,
    _smallest_period,
    empirical_frequencies,
    q_from_beliefs,
    run_aggregation_fp,
    run_fp,
)
from .equilibrium import EquilibriumReport, analyze_game
from .game import GameSpec, expected_utility, utility_table

__all__ = [
    "SCHEMA_VERSION",
    "trial_rng",
    "sample_gains",
    "snr_db_to_power",
    "generate_game",
    "trial_game",
    "MonteCarloSummary",
    "run_trial",
    "run_experiment",
]

SCHEMA_VERSION = 1

# Trailing steps examined for exact periodicity when classifying a trial.
CYCLE_WINDOW = 64
# Total-variation radius within which a frequency profile counts as "at" an
# equilibrium point.
CONVERGENCE_TV = 1e-2
# Cap on the bytes one classic batch holds: per game, K * S**K float64 table
# entries plus K * T actions, the size of its per-step actions when they are
# rendered. The batch itself keeps a few bytes per profile switch.
_BATCH_BYTE_BUDGET = 32 * 2**20

OUTCOMES = ("pure", "mixed", "cycling", "undetermined")


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Independent per-trial generator; order-insensitive by construction."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(index)]))


def sample_gains(rng: np.random.Generator, n_players: int, n_channels: int,
                 fading: str = "exponential") -> np.ndarray:
    """Draw i.i.d. unit-mean power gains.

    Both accepted labels name the same law: a Rayleigh-fading amplitude has
    exponentially distributed power, so "rayleigh" is the amplitude-side name
    for the "exponential" power gains drawn here. The draw path is identical,
    keeping runs reproducible across the two spellings.
    """
    if fading not in FADING_LAWS:
        raise ValueError(f"unknown fading law {fading!r}, expected one of {FADING_LAWS}")
    return rng.exponential(1.0, size=(n_players, n_channels))


def snr_db_to_power(snr_db: float) -> float:
    """Power budget that hits the target SNR over unit noise."""
    return float(10.0 ** (snr_db / 10.0))


def generate_game(rng: np.random.Generator, players: int, channels: int,
                  snr_db: float, fading: str = "exponential") -> GameSpec:
    """Random instance with unit bandwidths and noise, budget set from SNR."""
    return GameSpec.symmetric(
        sample_gains(rng, players, channels, fading),
        p_max=snr_db_to_power(snr_db),
        noise_var=1.0,
    )


@dataclass(frozen=True)
class MonteCarloSummary:
    """Aggregate view of one sweep; histogram masses sum to ``trials``."""

    trials: int
    ne_count_histogram: dict
    region_histogram: dict
    convergence: dict
    payoffs: dict

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "trials": self.trials,
            "ne_count_histogram": {str(k): v for k, v in sorted(self.ne_count_histogram.items())},
            "region_histogram": dict(sorted(self.region_histogram.items())),
            "convergence": {k: self.convergence.get(k, 0) for k in OUTCOMES},
            "payoffs": self.payoffs,
        }


def _tv_to_point(freq: np.ndarray, point: np.ndarray) -> float:
    """Worst per-player total variation between two frequency stacks."""
    return float(np.max(0.5 * np.abs(freq - point).sum(axis=1)))


def _nearest_equilibrium(freq: np.ndarray, report: EquilibriumReport,
                         n_channels: int) -> tuple[str, float]:
    """Closest equilibrium point to an empirical frequency stack."""
    best_kind, best_tv = "none", np.inf
    eye = np.eye(n_channels)
    for profile in report.pure_ne:
        tv = _tv_to_point(freq, eye[list(profile)])
        if tv < best_tv:
            best_kind, best_tv = "pure", tv
    if report.mixed_ne is not None:
        tv = _tv_to_point(freq, report.mixed_ne)
        if tv < best_tv:
            best_kind, best_tv = "mixed", tv
    return best_kind, best_tv


def _classify_outcome(report: EquilibriumReport, freq: np.ndarray,
                      cycle: dict | None, n_channels: int) -> tuple[str, float]:
    kind, tv = _nearest_equilibrium(freq, report, n_channels)
    if cycle is not None and cycle["period"] == 1:
        profile = tuple(cycle["profiles"][0])
        if profile in report.pure_ne:
            return "pure", tv
        return "undetermined", tv
    if cycle is not None and cycle["period"] >= 2:
        return "cycling", tv
    if tv < CONVERGENCE_TV and kind != "none":
        return kind, tv
    return "undetermined", tv


def _mixed_mean_utility(game: GameSpec, report: EquilibriumReport) -> float | None:
    """Mean per-player expected payoff at the strictly mixed equilibrium."""
    if report.mixed_ne is None:
        return None
    vals = [
        expected_utility(game, k, 0, report.mixed_ne[1 - k])
        for k in range(2)
    ]
    return float(np.mean(vals))


def _record_from_parts(trial: int, game: GameSpec, report: EquilibriumReport,
                       dynamics: DynamicsSpec, freq: np.ndarray,
                       time_avg_utility: np.ndarray, tail: np.ndarray,
                       table: np.ndarray) -> dict:
    """One trial's record; ``tail`` is the trailing profile window, checked
    for exact periodicity, and ``table`` the game's utility table."""
    period = _smallest_period(tail) if len(tail) >= 2 else None
    cycle = None if period is None else {
        "period": period,
        "profiles": tail[:period].tolist(),
        "time_avg_utility": np.mean(
            [table[(slice(None), *p)] for p in tail[:period]], axis=0
        ).tolist(),
    }
    outcome, tv = _classify_outcome(report, freq, cycle, game.S)
    return {
        "schema_version": SCHEMA_VERSION,
        "trial": trial,
        "game": game.to_dict(),
        "ne_count": len(report.pure_ne),
        "pure_ne": [list(p) for p in report.pure_ne],
        "ne_utilities": report.utilities.tolist(),
        "ne_potentials": report.potentials.tolist(),
        "mixed_ne": None if report.mixed_ne is None else report.mixed_ne.tolist(),
        "mixed_ne_mean_utility": _mixed_mean_utility(game, report),
        "regions": None if report.regions is None else sorted(report.regions),
        "dynamics": {
            "variant": dynamics.variant,
            "steps": dynamics.steps,
            "tie_break": dynamics.tie_break,
            "final_frequencies": freq.tolist(),
            "time_avg_utility": [float(x) for x in time_avg_utility],
            "cycle": cycle,
            "outcome": outcome,
            "nearest_ne_tv": tv if np.isfinite(tv) else None,
        },
    }


def simulate_trajectory(game: GameSpec, dynamics: DynamicsSpec) -> Trajectory:
    """One dynamics run as configured, as a full per-step trajectory."""
    beliefs = dynamics.initial_beliefs_for(game)
    if dynamics.variant == "classic":
        return run_fp(game, beliefs, T=dynamics.steps, tie_break=dynamics.tie_break)
    return run_aggregation_fp(
        game, q_from_beliefs(game, beliefs), T=dynamics.steps, tie_break=dynamics.tie_break
    )


def _classic_records(first_trial: int, games: list[GameSpec],
                     dynamics: DynamicsSpec) -> list[dict]:
    """Records of consecutive classic trials, simulated as one lockstep batch."""
    T = dynamics.steps
    result = run_fp(
        games, [dynamics.initial_beliefs_for(g) for g in games], T=T,
        tie_break=dynamics.tie_break, checkpoints=(T,),
    )
    tails = result.tail(min(CYCLE_WINDOW, T)).astype(np.int64)
    return [
        _record_from_parts(
            first_trial + i, game, analyze_game(game), dynamics,
            result.frequencies[T][i], result.utility_sums[i] / T, tails[i], result.tables[i],
        )
        for i, game in enumerate(games)
    ]


def run_trial(trial: int, game: GameSpec, dynamics: DynamicsSpec) -> dict:
    """Full single-trial record: equilibrium analysis plus one dynamics run."""
    if dynamics.variant == "classic":
        return _classic_records(trial, [game], dynamics)[0]
    report = analyze_game(game)
    traj = simulate_trajectory(game, dynamics)
    freq = empirical_frequencies(traj)
    window = min(CYCLE_WINDOW, traj.T)
    tail = traj.profiles[traj.T - window:]
    return _record_from_parts(
        trial, game, report, dynamics, freq, traj.utilities.mean(axis=0), tail,
        utility_table(game),
    )


def trial_game(config: ExperimentConfig, index: int) -> GameSpec:
    """The game of trial ``index``: the inline game, or the one generated
    from (seed, index). A generated game that fails validation raises a
    ValueError naming the trial and the seed."""
    if config.game is not None:
        return config.game
    gen = config.generator
    try:
        return generate_game(trial_rng(config.seed, index), gen.players, gen.channels,
                             gen.snr_db, gen.fading)
    except ValueError as exc:
        raise ValueError(f"trial {index} (seed {config.seed}): {exc}") from exc


def _trial_games(config: ExperimentConfig) -> list[GameSpec]:
    if config.game is not None:
        return [config.game]
    return [trial_game(config, i) for i in range(config.generator.trials)]


def _summarize(records: list[dict]) -> MonteCarloSummary:
    ne_hist: dict[int, int] = {}
    region_hist: dict[str, int] = {}
    convergence = {k: 0 for k in OUTCOMES}
    realized, best, worst, mixed_vals = [], [], [], []
    for rec in records:
        ne_hist[rec["ne_count"]] = ne_hist.get(rec["ne_count"], 0) + 1
        if rec["regions"] is not None:
            key = "+".join(rec["regions"])
            region_hist[key] = region_hist.get(key, 0) + 1
        convergence[rec["dynamics"]["outcome"]] += 1
        realized.append(float(np.mean(rec["dynamics"]["time_avg_utility"])))
        per_ne = [float(np.mean(u)) for u in rec["ne_utilities"]]
        if per_ne:
            best.append(max(per_ne))
            worst.append(min(per_ne))
        if rec["mixed_ne_mean_utility"] is not None:
            mixed_vals.append(rec["mixed_ne_mean_utility"])
    payoffs = {
        "mean_time_avg_utility": float(np.mean(realized)) if realized else None,
        "mean_best_pure_ne_utility": float(np.mean(best)) if best else None,
        "mean_worst_pure_ne_utility": float(np.mean(worst)) if worst else None,
        "mean_mixed_ne_utility": float(np.mean(mixed_vals)) if mixed_vals else None,
        "trials_with_mixed": len(mixed_vals),
    }
    return MonteCarloSummary(
        trials=len(records),
        ne_count_histogram=ne_hist,
        region_histogram=region_hist,
        convergence=convergence,
        payoffs=payoffs,
    )


def _batch_size(game: GameSpec, steps: int) -> int:
    """Games of ``game``'s shape that one classic batch of ``steps`` steps
    may hold within :data:`_BATCH_BYTE_BUDGET` (at least one)."""
    table_bytes = 8 * game.K * game.S**game.K
    action_bytes = game.K * steps * _action_dtype(game.S).itemsize
    return max(1, _BATCH_BYTE_BUDGET // (table_bytes + action_bytes))


def run_experiment(config: ExperimentConfig) -> tuple[MonteCarloSummary, list[dict]]:
    """Run every trial of a configured experiment and aggregate the records.

    Pure computation: writing files is the caller's business (see
    :mod:`csgame.output` and the CLI). Trials are processed in index order
    but each one depends only on (seed, index), so any execution order would
    produce the same records.
    """
    games = _trial_games(config)
    dynamics = config.dynamics
    if dynamics.variant == "classic":
        # Generated games share one shape; an empty sweep makes no engine call.
        chunk = _batch_size(games[0], dynamics.steps) if games else 1
        records = [
            record
            for start in range(0, len(games), chunk)
            for record in _classic_records(start, games[start:start + chunk], dynamics)
        ]
    else:
        records = [run_trial(i, game, dynamics) for i, game in enumerate(games)]
    return _summarize(records), records
