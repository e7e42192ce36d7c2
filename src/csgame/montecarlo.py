"""Seeded game sampling and the Monte-Carlo experiment driver.

Trials are fully independent: trial i draws from a generator seeded with
``SeedSequence([seed, i])``, so records do not depend on execution order and
the whole sweep is reproducible bit for bit. Sweeps of either learning rule
go through one driver: the trials are cut into chunks that stay within a
memory budget, and one record builder turns each chunk into its records'
columns. It runs a chunk as one lockstep batch of the configured rule
(:func:`~csgame.dynamics.run_fp` or
:func:`~csgame.dynamics.run_aggregation_fp`, which share one event-driven
engine and one run-length result), started by :func:`_run` as
:func:`simulate_trajectory` starts one game; a single trial is a chunk of
one, so its record is bit-for-bit the one a sweep writes. A sweep's games
are stacked once, as one batch, and a chunk is a slice of it: its tables,
its 2x2 check and its records' game columns read views of those stacks. A
chunk reads no payoff table: it composes the engine's result and the
columns of one analysis pass (its equilibria and mixed-equilibrium payoffs),
builds no per-game report, and its nearest equilibrium points and outcomes
are array rules over those columns. A record reads only its game's
trailing window of profiles, its counts and counted payoff sums, all off the
decision log's entries; a cycle's payoffs are computed at its profiles. The
summary is read off the columns too, and a sweep returns its records as those
columns (:class:`SweepRecords`): a record's dict is built only by
:meth:`SweepRecords.records`, and the CLI writes each trial file by filling
a template from the columns (see :mod:`csgame.output`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import FADING_LAWS, DynamicsSpec, ExperimentConfig, snr_db_to_power
from .dynamics import (
    Trajectory,
    _action_dtype,
    _smallest_period,
    q_from_beliefs,
    run_aggregation_fp,
    run_fp,
)
from .equilibrium import _AnalysisColumns, _analysis_columns
from .game import GameSpec, _game_batch, _game_stack, _payoffs

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
    "SweepRecords",
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
# Cap on the bytes one chunk of a sweep holds. _batch_size charges each game
# its K * S**K float64 utility-table entries (the batch's one stack, read by
# the classic engine, the aggregation start and the analysis's pure-NE mask;
# the analysis computes every payoff and potential at its profiles) plus
# K * T channel indices, a ceiling on the actions of a run that no sweep
# renders (a record reads a CYCLE_WINDOW-step tail), and fits as many games
# as the cap allows, at least one. What the tables bring with them is not
# counted apart: the analysis's mask and the classic engine's copy of its
# running games' tables stay within a small multiple of the stack. Left uncounted on
# purpose, because they grow with the play and the sweep, not with the
# game's shape: the engine's registry of visited (game, profile) pairs, its
# decision log (a few bytes per phase of a decision, however many periods a
# jumped cycle covers), and the records' columns, which a sweep keeps for
# every chunk until its trial files are written.
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
    return _generated_games(sample_gains(rng, players, channels, fading)[None], snr_db)[0]


def _generated_games(gains: np.ndarray, snr_db: float, name=lambda g: "") -> list[GameSpec]:
    """The games of a (G, K, S) gain stack with unit bandwidths and noise
    and the budget set from SNR, checked in one pass (see
    :func:`~csgame.game._game_stack`)."""
    n_games, n_players, n_channels = gains.shape
    return _game_stack(np.ones((n_games, n_channels)), np.ones((n_games, n_channels)),
                       np.full((n_games, n_players), snr_db_to_power(snr_db)), gains, name)


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


def _nearest_equilibria(freqs: np.ndarray, game_of: np.ndarray, pure_ne: np.ndarray,
                        mixed: np.ndarray, mixed_ne: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per game of a (G, K, S) frequency stack, the kind ("pure", "mixed" or
    "none") and total-variation distance of its closest equilibrium point,
    read off a chunk's analysis columns: the (N, K) pure equilibria and the
    game of each, and the (G, K, S) mixed points where ``mixed`` holds. The
    first closest pure equilibrium wins, unless the mixed one is strictly
    closer; with neither, "none" at infinity."""
    tv = np.full(len(freqs), np.inf)
    np.minimum.at(tv, game_of, _tv_to_points(freqs[game_of], np.eye(freqs.shape[2])[pure_ne]))
    mixed_tv = np.where(mixed, _tv_to_points(freqs, mixed_ne), np.inf)
    kinds = np.where(mixed_tv < tv, "mixed", np.where(np.isfinite(tv), "pure", "none"))
    return kinds, np.minimum(tv, mixed_tv)


class _Chunk(NamedTuple):
    """The records of a chunk of consecutive trials, as columns. Per trial:
    its index, its game's stacks (``games``), its final frequencies and
    mean payoffs, its trailing profiles (``tails``) and their exact period
    (0 for none) with the mean payoffs over one period (read only where the
    period is not 0), its outcome, and the distance to its nearest
    equilibrium point (infinite for none). Its games' equilibria are its
    ``analysis`` columns (see :func:`~csgame.equilibrium._analysis_columns`),
    whose mixed point and payoff are read only where ``mixed`` holds."""

    trials: np.ndarray
    games: dict[str, np.ndarray]
    dynamics: DynamicsSpec
    analysis: _AnalysisColumns
    final_frequencies: np.ndarray
    time_avg_utility: np.ndarray
    tails: np.ndarray
    periods: np.ndarray
    cycle_utility: np.ndarray
    outcomes: np.ndarray
    nearest_ne_tv: np.ndarray

    def skeletons(self):
        """For each record skeleton (pure-equilibrium count, a mixed point
        or not, the number of region labels or none, the period, a nearest
        point or none): the rows of its trials, and the record's layout
        with an array of one row per trial at each leaf and the skeleton's
        constants as they are."""
        ne, dyn = self.analysis, self.dynamics
        n_labels = [-1 if labels is None else len(labels) for labels in ne.regions]
        keys = np.stack([ne.ne_counts, ne.mixed, n_labels, self.periods,
                         np.isfinite(self.nearest_ne_tv)], axis=1)
        shapes, skeleton_of = np.unique(keys, axis=0, return_inverse=True)
        first_ne = np.cumsum(ne.ne_counts) - ne.ne_counts
        for i, (n_ne, mixed, n_regions, period, near) in enumerate(shapes.tolist()):
            rows = np.flatnonzero(skeleton_of.ravel() == i)
            at = first_ne[rows, None] + np.arange(n_ne)
            yield rows, {
                "schema_version": SCHEMA_VERSION,
                "trial": self.trials[rows],
                "game": {key: stack[rows] for key, stack in self.games.items()},
                "ne_count": n_ne,
                "pure_ne": ne.pure_ne[at],
                "ne_utilities": ne.ne_utilities[at],
                "ne_potentials": ne.ne_potentials[at],
                "mixed_ne": ne.mixed_ne[rows] if mixed else None,
                "mixed_ne_mean_utility": ne.mixed_ne_mean_utility[rows] if mixed else None,
                "regions": None if n_regions < 0 else np.array(
                    [ne.regions[r] for r in rows.tolist()], dtype=str),
                "dynamics": {
                    "variant": dyn.variant,
                    "steps": dyn.steps,
                    "tie_break": dyn.tie_break,
                    "final_frequencies": self.final_frequencies[rows],
                    "time_avg_utility": self.time_avg_utility[rows],
                    "cycle": None if not period else {
                        "period": period,
                        "profiles": self.tails[rows, :period],
                        "time_avg_utility": self.cycle_utility[rows],
                    },
                    "outcome": self.outcomes[rows],
                    "nearest_ne_tv": self.nearest_ne_tv[rows] if near else None,
                },
            }

    def records(self) -> list[dict]:
        """The record dict of every trial, in trial order."""
        records: list = [None] * len(self.trials)
        for rows, layout in self.skeletons():
            for r, record in zip(rows.tolist(), _rows(layout, len(rows))):
                records[r] = record
        return records


def _rows(layout, n_rows: int) -> list:
    """The values of each row of a layout: an array leaf gives its row as
    nested lists, a constant stays as it is."""
    if isinstance(layout, dict):
        columns = [_rows(value, n_rows) for value in layout.values()]
        return [dict(zip(layout, values)) for values in zip(*columns)]
    if isinstance(layout, np.ndarray):
        return layout.tolist()
    return [layout] * n_rows


class SweepRecords:
    """A sweep's trial records, kept as its chunks' columns (see
    :class:`_Chunk`): ``len()`` is the trial count, :meth:`records` builds
    the record dicts, and :func:`csgame.output.write_trial_records` renders
    the trial files from the columns without them."""

    def __init__(self, chunks: list[_Chunk]):
        self.chunks = chunks

    def __len__(self) -> int:
        return sum(len(chunk.trials) for chunk in self.chunks)

    def records(self) -> list[dict]:
        """The record dict of every trial, in trial order."""
        return [record for chunk in self.chunks for record in chunk.records()]


def _run(game: GameSpec | list[GameSpec], dynamics: DynamicsSpec, **options):
    """The configured run of one game (a :class:`Trajectory`) or of a
    same-shape batch in lockstep, with ``options`` passed to the engine.
    The initial beliefs are built once: they depend on (K, S) only. Under
    the aggregation rule every game starts from
    :func:`~csgame.dynamics.q_from_beliefs` of them, one call for the
    whole batch."""
    games, _ = _game_batch(game)
    beliefs = dynamics.initial_beliefs_for(games[0])
    run = {"T": dynamics.steps, "tie_break": dynamics.tie_break, **options}
    if dynamics.variant == "classic":
        return run_fp(game, beliefs, **run)
    return run_aggregation_fp(game, q_from_beliefs(games, beliefs), **run)


def simulate_trajectory(game: GameSpec, dynamics: DynamicsSpec) -> Trajectory:
    """One dynamics run as configured, as a full per-step trajectory; it
    starts as a sweep's trial does (see :func:`_run`)."""
    return _run(game, dynamics)


def _records(first_trial: int, games: list[GameSpec], dynamics: DynamicsSpec) -> _Chunk:
    """The records of consecutive same-shape trials, as columns, simulated
    as one lockstep batch of the configured rule, started in :func:`_run`
    as :func:`simulate_trajectory` starts one game, and analyzed in one
    pass, as columns (see :func:`~csgame.equilibrium._analysis_columns`),
    which the chunk keeps. The nearest equilibrium points and the outcomes
    are array rules over those columns; the trailing windows are checked
    for an exact period in one call, and the cycle payoffs are computed at
    the cycle's profiles."""
    T = dynamics.steps
    games, _ = _game_batch(games)  # one shape check and one stack for the whole chunk
    result = _run(games, dynamics, checkpoints=(T,))
    freqs, mean_utilities, tails = (result.frequencies[T], result.utility_sums / T,
                                    result.tail(min(CYCLE_WINDOW, T)).astype(np.int64))
    periods = _smallest_period(tails)
    ne = _analysis_columns(games)
    near, tvs = _nearest_equilibria(freqs, ne.game_of, ne.pure_ne, ne.mixed, ne.mixed_ne)
    # A settled run is "pure" when its profile is one of its game's pure
    # equilibria; an unsettled one is "at" its nearest point within
    # CONVERGENCE_TV.
    settled_on_ne = np.zeros(len(games), dtype=bool)
    settled_on_ne[ne.game_of[(ne.pure_ne == tails[ne.game_of, 0]).all(axis=1)]] = True
    outcomes = np.where(periods >= 2, "cycling", np.where(
        periods == 1, np.where(settled_on_ne, "pure", "undetermined"),
        np.where((tvs < CONVERGENCE_TV) & (near != "none"), near, "undetermined")))
    # Each cycle's mean payoffs over one period: the payoffs at its first
    # `period` trailing profiles; np.mean along the period axis adds them in
    # the order a mean of one trial's (period, K) stack does.
    cycle_utility = np.zeros(mean_utilities.shape)
    for period in sorted(set(periods[periods > 0].tolist())):
        rows = np.flatnonzero(periods == period)
        payoffs = _payoffs(*games.rows(np.repeat(rows, period)),
                           tails[rows, :period].reshape(-1, tails.shape[2]))
        cycle_utility[rows] = np.mean(payoffs.reshape(len(rows), period, -1), axis=1)
    return _Chunk(
        trials=first_trial + np.arange(len(games)),
        games={key: games.stacks[key] for key in ("bandwidths", "noise", "max_power", "gains")},
        dynamics=dynamics,
        analysis=ne,
        final_frequencies=freqs,
        time_avg_utility=mean_utilities,
        tails=tails,
        periods=periods,
        cycle_utility=cycle_utility,
        outcomes=outcomes,
        nearest_ne_tv=tvs,
    )


def run_trial(trial: int, game: GameSpec, dynamics: DynamicsSpec) -> dict:
    """Full single-trial record: equilibrium analysis plus one dynamics run."""
    return _records(trial, [game], dynamics).records()[0]


def trial_game(config: ExperimentConfig, index: int) -> GameSpec:
    """The game of trial ``index``: the inline game, or the one generated
    from (seed, index). A generated game that fails validation raises a
    ValueError naming the trial and the seed."""
    return _trial_games(config, [index])[0]


def _trial_games(config: ExperimentConfig, indices=None) -> list[GameSpec]:
    """The games of trials ``indices`` (by default every trial): the inline
    game, or the games generated from (seed, index), each from its own
    generator and all checked in one pass; the first that fails validation
    raises a ValueError naming its trial and the seed."""
    indices = range(config.trials) if indices is None else indices
    if config.game is not None:
        return [config.game] * len(indices)
    if not len(indices):
        return []
    gen = config.generator
    gains = np.stack([sample_gains(trial_rng(config.seed, i), gen.players, gen.channels,
                                   gen.fading) for i in indices])
    return _generated_games(gains, gen.snr_db,
                            lambda g: f"trial {indices[g]} (seed {config.seed}): ")


def _summarize(records: SweepRecords) -> MonteCarloSummary:
    """The summary of a sweep, read off its chunks' columns. A mean over
    trials averages each trial's mean over players (for an equilibrium
    payoff, the best or worst such mean among the trial's pure equilibria)."""
    ne_hist: Counter = Counter()
    region_hist: Counter = Counter()
    convergence: Counter = Counter()
    realized, best, worst, mixed_vals = [], [], [], []
    for chunk in records.chunks:
        ne = chunk.analysis
        ne_hist.update(ne.ne_counts.tolist())
        region_hist.update("+".join(labels) for labels in ne.regions if labels is not None)
        convergence.update(chunk.outcomes.tolist())
        realized.append(chunk.time_avg_utility.mean(axis=1))
        per_ne = ne.ne_utilities.mean(axis=1)
        starts = (np.cumsum(ne.ne_counts) - ne.ne_counts)[ne.ne_counts > 0]
        if len(starts):
            best.append(np.maximum.reduceat(per_ne, starts))
            worst.append(np.minimum.reduceat(per_ne, starts))
        mixed_vals.append(ne.mixed_ne_mean_utility[ne.mixed])

    def mean(parts: list[np.ndarray]) -> float | None:
        values = np.concatenate(parts) if parts else np.empty(0)
        return float(np.mean(values)) if len(values) else None

    payoffs = {
        "mean_time_avg_utility": mean(realized),
        "mean_best_pure_ne_utility": mean(best),
        "mean_worst_pure_ne_utility": mean(worst),
        "mean_mixed_ne_utility": mean(mixed_vals),
        "trials_with_mixed": sum(len(v) for v in mixed_vals),
    }
    return MonteCarloSummary(
        trials=len(records),
        ne_count_histogram=dict(ne_hist),
        region_histogram=dict(region_hist),
        convergence={k: convergence[k] for k in OUTCOMES},
        payoffs=payoffs,
    )


def _batch_size(game: GameSpec, steps: int) -> int:
    """Games of ``game``'s shape that one chunk of ``steps`` steps may hold
    within :data:`_BATCH_BYTE_BUDGET` (at least one)."""
    table_bytes = 8 * game.K * game.S**game.K
    action_bytes = game.K * steps * _action_dtype(game.S).itemsize
    return max(1, _BATCH_BYTE_BUDGET // (table_bytes + action_bytes))


def run_experiment(config: ExperimentConfig) -> tuple[MonteCarloSummary, SweepRecords]:
    """Run every trial of a configured experiment and aggregate the records.

    Pure computation: writing files is the caller's business (see
    :mod:`csgame.output` and the CLI). Trials are processed in index order
    but each one depends only on (seed, index), so any execution order would
    produce the same records. The records stay as the chunks' columns:
    :meth:`SweepRecords.records` builds their dicts, and
    :func:`csgame.output.write_trial_records` writes the trial files
    without them.
    """
    games, _ = _game_batch(_trial_games(config))  # chunks are slices: views of its stacks
    dynamics = config.dynamics
    # Generated games share one shape; an empty sweep makes no engine call.
    chunk = _batch_size(games[0], dynamics.steps) if games else 1
    records = SweepRecords([_records(start, games[start:start + chunk], dynamics)
                            for start in range(0, len(games), chunk)])
    return _summarize(records), records
