"""Seeded game sampling and the Monte-Carlo experiment driver.

Trials are fully independent: trial i draws from a generator seeded with
``SeedSequence([seed, i])``, so records do not depend on execution order and
the whole sweep is reproducible bit for bit. Sweeps of either learning rule
go through one driver: the trials are cut into chunks that stay within a
memory budget, and one record builder turns each chunk into records. It runs
a chunk as one lockstep batch of the configured rule
(:func:`~csgame.dynamics.run_fp` or
:func:`~csgame.dynamics.run_aggregation_fp`, which share one event-driven
engine and one run-length result); a single trial is a chunk of one, so its
record is bit-for-bit the one a sweep writes. The analysis and the records
of a chunk share one stack of utility tables (the classic batch's own, or,
for the aggregation rule, which needs none, one built for the chunk, which
also gives each game its initial scores), and the whole chunk is analyzed in
one :func:`~csgame.equilibrium.analyze_game` call over them; the nearest
equilibrium point and the mixed-equilibrium payoff of every record are read
off the chunk's arrays. A record reads only its game's trailing window of
profiles, its counts and payoffs summed run by run, and the game's payoff
table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import FADING_LAWS, DynamicsSpec, ExperimentConfig, snr_db_to_power
from .dynamics import (
    QState,
    Trajectory,
    _action_dtype,
    _expectation,
    _smallest_period,
    q_from_beliefs,
    run_aggregation_fp,
    run_fp,
)
from .equilibrium import EquilibriumReport, analyze_game
from .game import GameSpec, _utility_tables

__all__ = [
    "SCHEMA_VERSION",
    "CYCLE_WINDOW",
    "CONVERGENCE_TV",
    "OUTCOMES",
    "trial_rng",
    "sample_gains",
    "generate_game",
    "trial_game",
    "MonteCarloSummary",
    "simulate_trajectory",
    "run_trial",
    "run_experiment",
]

SCHEMA_VERSION = 1

# Trailing steps examined for exact periodicity when classifying a trial.
CYCLE_WINDOW = 64
# Total-variation radius within which a frequency profile counts as "at" an
# equilibrium point.
CONVERGENCE_TV = 1e-2
# Cap on the bytes one chunk of a sweep holds: per game, K * S**K float64
# table entries plus K * T channel indices. Sweeps never render per-step
# actions (a record reads a CYCLE_WINDOW-step tail), and the second term
# does not bound what the records read: reading expands the switch log into
# one run per switch, about 80 bytes each in int64 and float64 arrays,
# against the K channel indices per step (2 bytes for a 2x2 game) counted
# here. Measured on the 1000-trial, 10**4-step 2x2 sweeps
# (montecarlo_2x2_snr20, and generator_2x2_snr10 under the aggregation
# rule): 0 cycling trials in either, so their reads stay O(decisions), 2730
# and 1874 runs per chunk. A batch of games that switch every step is the
# known exception: it reads about 40 times what this term counts.
# The switch log itself holds one entry of a few bytes (game, weight,
# profile code, period and laps) per switching phase of a decision: a single
# step's switch costs one entry, and a jumped cycle one per switching phase,
# however many periods it covers. The chunk's tables are built as one stack,
# one (player, channel) slice at a time: the build's working set is one G *
# S**(K-1) load per slice, and there is no second copy of the stack, so an
# aggregation chunk holds that stack alone, not G single-game tables as
# well. The chunk's analysis adds a potential stack and a working load of
# S**K float64 entries each per game, and a boolean mask, which for K >= 2
# stay within the tables' own size. The classic engine's copy of its running
# games' tables adds up to that size again, twice while one compaction
# replaces the last. The aggregation engine needs no table: it keeps K * S +
# K + S + 2 float64 entries (channel values, payoffs, gamma, potential,
# visit count) per profile a game visits, and per game an 8-byte row index
# for each profile the most visiting game of the chunk has visited (rounded
# up to a power of two). Those grow with the play, so they are not counted
# here.
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


def _tv_to_points(freqs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Worst per-player total variation between paired (n, K, S) frequency
    and point stacks, (n,)."""
    return np.max(0.5 * np.abs(freqs - points).sum(axis=-1), axis=-1)


def _nearest_equilibria(freqs: np.ndarray,
                        reports: list[EquilibriumReport]) -> tuple[list[str], list[float]]:
    """Per game of a (G, K, S) frequency stack, the kind ("pure", "mixed" or
    "none") and total-variation distance of its closest equilibrium point:
    the first closest pure equilibrium, unless the mixed one is strictly
    closer; with neither, "none" at infinity."""
    n_games, n_players, n_channels = freqs.shape
    game_of = np.array([g for g, r in enumerate(reports) for _ in r.pure_ne], dtype=np.intp)
    profiles = np.array([p for r in reports for p in r.pure_ne], dtype=np.intp)
    tv = np.full(n_games, np.inf)
    np.minimum.at(tv, game_of, _tv_to_points(
        freqs[game_of], np.eye(n_channels)[profiles.reshape(-1, n_players)]))
    kinds = ["pure" if r.pure_ne else "none" for r in reports]
    with_mixed = [g for g, r in enumerate(reports) if r.mixed_ne is not None]
    if with_mixed:
        mixed_tv = _tv_to_points(freqs[with_mixed],
                                 np.stack([reports[g].mixed_ne for g in with_mixed]))
        closer = mixed_tv < tv[with_mixed]
        closest = np.array(with_mixed)[closer]
        tv[closest] = mixed_tv[closer]
        for g in closest.tolist():
            kinds[g] = "mixed"
    return kinds, tv.tolist()


def _classify_outcome(report: EquilibriumReport, kind: str, tv: float,
                      cycle: dict | None) -> str:
    """A trial's outcome from its nearest equilibrium point and its cycle."""
    if cycle is not None and cycle["period"] == 1:
        profile = tuple(cycle["profiles"][0])
        if profile in report.pure_ne:
            return "pure"
        return "undetermined"
    if cycle is not None and cycle["period"] >= 2:
        return "cycling"
    if tv < CONVERGENCE_TV and kind != "none":
        return kind
    return "undetermined"


def _mixed_mean_utilities(tables: np.ndarray,
                          reports: list[EquilibriumReport]) -> list[float | None]:
    """Per game, the mean per-player expected payoff at its strictly mixed
    equilibrium (None without one): each of the two players on channel 0
    against the other's mixed row, over the (G, 2, 2, 2) utility tables."""
    means: list[float | None] = [None] * len(reports)
    with_mixed = [g for g, r in enumerate(reports) if r.mixed_ne is not None]
    if with_mixed:
        mixed = np.stack([reports[g].mixed_ne for g in with_mixed])
        on_first = _expectation(tables[with_mixed])(mixed)[:, :, 0]
        for g, mean in zip(with_mixed, (on_first.sum(axis=1) / 2).tolist()):
            means[g] = mean
    return means


def _record_from_parts(trial: int, game: GameSpec, report: EquilibriumReport,
                       dynamics: DynamicsSpec, freq: np.ndarray,
                       time_avg_utility: np.ndarray, tail: np.ndarray, period: int,
                       table: np.ndarray, nearest: tuple[str, float],
                       mixed_mean_utility: float | None) -> dict:
    """One trial's record; ``tail`` is the trailing profile window and
    ``period`` its exact period (0 for none), ``table`` the game's utility
    table and ``nearest`` the kind and distance of its closest equilibrium
    point."""
    cycle = None if not period else {
        "period": period,
        "profiles": tail[:period].tolist(),
        "time_avg_utility": np.mean(
            [table[(slice(None), *p)] for p in tail[:period]], axis=0
        ).tolist(),
    }
    kind, tv = nearest
    return {
        "schema_version": SCHEMA_VERSION,
        "trial": trial,
        "game": game.to_dict(),
        "ne_count": len(report.pure_ne),
        "pure_ne": [list(p) for p in report.pure_ne],
        "ne_utilities": report.utilities.tolist(),
        "ne_potentials": report.potentials.tolist(),
        "mixed_ne": None if report.mixed_ne is None else report.mixed_ne.tolist(),
        "mixed_ne_mean_utility": mixed_mean_utility,
        "regions": None if report.regions is None else sorted(report.regions),
        "dynamics": {
            "variant": dynamics.variant,
            "steps": dynamics.steps,
            "tie_break": dynamics.tie_break,
            "final_frequencies": freq.tolist(),
            "time_avg_utility": [float(x) for x in time_avg_utility],
            "cycle": cycle,
            "outcome": _classify_outcome(report, kind, tv, cycle),
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


def _records(first_trial: int, games: list[GameSpec], dynamics: DynamicsSpec) -> list[dict]:
    """Records of consecutive same-shape trials, simulated as one lockstep
    batch of the configured rule. The analysis and the records share one
    stack of utility tables: the classic batch's own, or, for the
    aggregation rule, which needs none, one built here that also gives
    every game its initial scores. The whole chunk is analyzed in one pass,
    its trailing windows are checked for an exact period in one call, and
    its nearest equilibrium points and mixed-equilibrium payoffs are read
    off the chunk's arrays."""
    T = dynamics.steps
    beliefs = dynamics.initial_beliefs_for(games[0])  # one state: it depends on (K, S) only
    run = {"T": T, "tie_break": dynamics.tie_break, "checkpoints": (T,)}
    if dynamics.variant == "classic":
        result = run_fp(games, beliefs, **run)
        tables = result.tables
    else:
        tables = _utility_tables(games)
        # q_from_beliefs of every game, from the same tables, over a
        # C-ordered stack of the marginals (einsum picks its kernel by layout).
        marginals = np.repeat(beliefs.marginals[None], len(games), axis=0)
        result = run_aggregation_fp(
            games, [QState(step=beliefs.step, q=q) for q in _expectation(tables)(marginals)],
            **run)
    freqs, mean_utilities, tails = (result.frequencies[T], result.utility_sums / T,
                                    result.tail(min(CYCLE_WINDOW, T)).astype(np.int64))
    periods = _smallest_period(tails).tolist()
    reports = analyze_game(games, tables=tables)
    kinds, tvs = _nearest_equilibria(freqs, reports)
    mixed_means = _mixed_mean_utilities(tables, reports)
    return [
        _record_from_parts(first_trial + i, games[i], reports[i], dynamics, freqs[i],
                           mean_utilities[i], tails[i], periods[i], tables[i],
                           (kinds[i], tvs[i]), mixed_means[i])
        for i in range(len(games))
    ]


def run_trial(trial: int, game: GameSpec, dynamics: DynamicsSpec) -> dict:
    """Full single-trial record: equilibrium analysis plus one dynamics run."""
    return _records(trial, [game], dynamics)[0]


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
    return [trial_game(config, i) for i in range(config.trials)]


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
    """Games of ``game``'s shape that one chunk of ``steps`` steps may hold
    within :data:`_BATCH_BYTE_BUDGET` (at least one)."""
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
    # Generated games share one shape; an empty sweep makes no engine call.
    chunk = _batch_size(games[0], dynamics.steps) if games else 1
    records = [
        record
        for start in range(0, len(games), chunk)
        for record in _records(start, games[start:start + chunk], dynamics)
    ]
    return _summarize(records), records
