"""Learning dynamics: classic fictitious play and its aggregate-feedback twin.

Both rules move all players simultaneously each round, are fully
deterministic given their inputs, and run on one event-driven lockstep driver
(:func:`_play`). It steps one game, or a stack of same-shape games with one
clock per game and the same per-game arithmetic, which is how Monte-Carlo
sweeps run, and keeps the play run-length encoded, as a log of every phase
of every decision that every reader reads directly. Once a game repeats a
profile, or a cycle of up to :data:`MAX_PERIOD` profiles, it plays it for as
many whole periods as the per-step rule is certain to keep it, and decides
again only then, so a run that settles and the paper's miscoordination cycle
alike cost a few decisions, not one per step, with the same result bit for
bit. Both rules average one vector per step, which the driver keeps as each
(game, profile) pair's visits times that vector, beside the game's own
payoffs at the profile; each rule supplies only the vector, its scores and
its certificate.

* :func:`run_fp` is the full-observation rule: every player tracks one
  empirical frequency vector per opponent (initial beliefs act as a single
  pseudo-observation), carried as exact counts, and best-responds to the
  product of those marginals.
* :func:`run_aggregation_fp` never reveals actions. After each round the
  receiver broadcasts the per-channel aggregate (noise plus total received
  power); each player strips its own contribution, values every channel it
  could have used, and plays argmax of the running average of those values;
  a run reports the game's own payoffs and potential. With two players the
  two rules play identical profiles, so identical payoffs and potentials,
  from matched initial state (:func:`q_from_beliefs`); with more players the
  aggregate no longer pins down the opponent profile and the trajectories
  may diverge.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .game import (
    GameSpec,
    _aggregates,
    _Batch,
    _check_channels,
    _check_player,
    _expectations,
    _game_batch,
    _guard_opponent_profiles,
    _integer,
    _layout,
    _payoffs,
    _potentials,
    _rate,
    _strip_own,
    potential_table,
)
from .equilibrium import require_symmetric_2x2

__all__ = [
    "TIE_BREAKS",
    "BeliefState",
    "QState",
    "Trajectory",
    "CycleReport",
    "fp_best_response",
    "run_fp",
    "run_aggregation_fp",
    "q_from_beliefs",
    "empirical_frequencies",
    "detect_cycle",
    "cycle_persistence_2x2",
    "BatchFPResult",
    "run_fp_batch_2x2",
]

TIE_BREAKS = ("lowest", "highest")

# The longest cycle of profiles run_fp tries to jump over. A game is tried
# at period p once its last 2p steps, the new decision included, repeat with
# period p; every period allowed costs a comparison per game and decision.
MAX_PERIOD = 8
# Steps detect_cycle reads at once while it seeks a cycle's onset.
_BLOCK_STEPS = 2**14
# Game-steps BatchFPResult.actions renders at once: its int64 keys and entry
# numbers are about 17 bytes per game-step.
_BLOCK_CELLS = 2**18
# The longest run. The log's readers stay exact up to it: they key entries by
# game·(T+1)+start in int64 (see BatchFPResult._log) and carry step counts as
# float weights, exact to 2⁵³.
_MAX_T = math.isqrt(np.iinfo(np.int64).max)
# Row p - 1 maps entry j < p of a window to entry j + p, which equals it when
# the window is p-periodic; entries j >= p map to themselves.
_PERIOD_SHIFT = np.where(np.arange(MAX_PERIOD) < np.arange(1, MAX_PERIOD + 1)[:, None],
                         np.arange(MAX_PERIOD) + np.arange(1, MAX_PERIOD + 1)[:, None],
                         np.arange(MAX_PERIOD))


def _action_dtype(n_channels: int) -> np.dtype:
    """Smallest signed integer type that holds a channel index."""
    return np.min_scalar_type(-n_channels)


def _chooser(tie_break: str, T: int = 1):
    """Tie-broken argmax over the last axis, for a run of ``T`` steps:
    ``choose(values)`` is the channel of the first maximum in tie-break
    order. Rejects a bad ``T`` or tie-break."""
    if _integer(T, "T") < 1:
        raise ValueError("T must be >= 1")
    if T > _MAX_T:
        raise ValueError(f"T must be <= {_MAX_T}, for exact step counts in int64")
    if tie_break == "lowest":
        return lambda values: values.argmax(axis=-1)
    if tie_break == "highest":
        return lambda values: values.shape[-1] - 1 - values[..., ::-1].argmax(axis=-1)
    raise ValueError(f"unknown tie_break {tie_break!r}, expected one of {TIE_BREAKS}")


def _check_state(state, field: str, what: str, least: int, why: str = "") -> None:
    """The check of both learning states: sets ``field`` to a read-only 2-D
    float copy of finite, non-negative entries, the step to an integer >= ``least``."""
    values = np.atleast_2d(np.array(getattr(state, field), dtype=float))
    if _integer(state.step, f"{what} step") < least:
        raise ValueError(f"{what} step must be >= {least}{why}")
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        raise ValueError(f"{what} entries must be finite and non-negative")
    values.setflags(write=False)
    object.__setattr__(state, field, values)
    object.__setattr__(state, "step", int(state.step))


@dataclass(frozen=True)
class BeliefState:
    """Per-player empirical frequency vectors with their observation weight.

    ``marginals[k]`` is the frequency vector over player k's own channels as
    everyone else observes it (all observers see the same actions, so one
    vector per player suffices). ``step`` is the total weight carried by the
    vectors: the initial beliefs count as one pseudo-observation, so after t
    observed rounds from a fresh start, step == 1 + t and each marginal
    equals (prior + counts) / (1 + t).
    """

    step: int
    marginals: np.ndarray

    def __post_init__(self) -> None:
        _check_state(self, "marginals", "belief", 1, " (priors carry weight 1)")
        if np.any(np.abs(self.marginals.sum(axis=1) - 1.0) > 1e-12):
            raise ValueError("each belief marginal must sum to 1 within 1e-12")

    @classmethod
    def uniform(cls, n_players: int, n_channels: int) -> "BeliefState":
        return cls(step=1, marginals=np.full((n_players, n_channels), 1.0 / n_channels))

    @classmethod
    def from_xi(cls, xi) -> "BeliefState":
        """Two-channel beliefs (xi/(1+xi), 1/(1+xi)) per player, one xi each.

        With 0 < xi < 1 every player initially thinks its opponents lean
        toward channel 1, which is what sets off the coordination cycle in
        fully symmetric games.
        """
        xi = np.asarray(xi, dtype=float).ravel()
        if not np.all((xi > 0) & (xi < 1)):
            raise ValueError("xi entries must lie strictly between 0 and 1")
        marginals = np.stack([xi / (1.0 + xi), 1.0 / (1.0 + xi)], axis=1)
        return cls(step=1, marginals=marginals)

    @classmethod
    def point_mass(cls, channels, n_channels: int) -> "BeliefState":
        channels = _check_channels(n_channels, channels).ravel()
        marginals = np.zeros((channels.size, n_channels))
        marginals[np.arange(channels.size), channels] = 1.0
        return cls(step=1, marginals=marginals)


@dataclass(frozen=True)
class QState:
    """Per-player running channel scores for the aggregate-feedback engine.

    ``step`` counts the samples already folded into ``q`` (0 for a cold
    start, so the first update is a plain first-sample average).
    """

    step: int
    q: np.ndarray

    def __post_init__(self) -> None:
        _check_state(self, "q", "q", 0)

    @classmethod
    def zeros(cls, n_players: int, n_channels: int) -> "QState":
        return cls(step=0, q=np.zeros((n_players, n_channels)))


_PER_STEP = ("profiles", "utilities", "potentials", "beliefs", "q_values", "gammas")


class Trajectory:
    """One simulated run. Per-step fields are indexed by step 0..T-1 (step t
    of the run is row t-1); ``beliefs`` / ``q_values`` hold the decision-time
    state each round, i.e. what the actions of that row were computed from.

    A trajectory built from arrays holds them. One that :func:`run_fp` or
    :func:`run_aggregation_fp` returns is a view of its batch-of-one engine
    result: :meth:`steps` renders exactly the steps asked from the decision
    log, so a writer holds one chunk at a time whatever the horizon, and a
    field is built whole only when that attribute is read. A step's profile
    comes from the log, its payoffs from the engine's registry of its pair
    (see :class:`BatchFPResult`), its potential and gamma from the aggregate
    of its pair's profile, one batched call for all pairs, and its decision-time
    state is summed as the engine sums it (see :func:`_play`): from the
    rule's base, each pair's visits before the step times its values, in
    order of first visit, turned into the state by the rule. A read that
    starts where the last one ended carries the pairs' visits on from it;
    any other counts them afresh off the log.
    """

    def __init__(self, variant: str, tie_break: str, profiles, utilities, potentials,
                 beliefs=None, q_values=None, gammas=None, initial_step: int = 1,
                 initial_state=None, final_step: int = 1, final_state=None) -> None:
        # Per step: profiles (T, K) int, utilities (T, K), potentials (T,),
        # and beliefs (classic), q_values and gammas (aggregation): (T, K,
        # S), (T, K, S), (T, S).
        self.variant, self.tie_break, self._result = variant, tie_break, None
        self.initial_step, self.initial_state = initial_step, initial_state
        self.final_step, self.final_state = final_step, final_state
        self.T, self.num_players = profiles.shape
        state = beliefs if variant == "classic" else q_values
        self.n_channels = state.shape[2] if state is not None else int(profiles.max(
            initial=-1)) + 1
        for name, arr in zip(_PER_STEP, (profiles, utilities, potentials, beliefs, q_values,
                                         gammas)):
            if arr is not None and len(arr) != len(profiles):
                raise ValueError(f"trajectory field {name} has length {len(arr)} != "
                                 f"{len(profiles)}")
            setattr(self, name, arr)

    def __getattr__(self, name: str):
        if name not in _PER_STEP:  # only the fields a view has not built yet get here
            raise AttributeError(name)
        setattr(self, name, self.steps(0, self.T, name)[0])
        return vars(self)[name]

    @classmethod
    def _view(cls, result: BatchFPResult, rule, tie_break: str,
              initial_state: np.ndarray) -> "Trajectory":
        """The view of a batch-of-one ``result`` of ``rule``, with each pair's
        payoffs, potential and (aggregation rule) gamma."""
        traj = cls.__new__(cls)
        traj.variant, traj.tie_break, traj._result = rule.variant, tie_break, result
        traj.T, (_, traj.num_players, traj.n_channels) = result.T, result.final_marginals.shape
        traj.initial_step, traj.initial_state = result.final_step - result.T, initial_state
        traj.final_step, traj.final_state = result.final_step, result.final_marginals[0]
        noise, received, weights = rule.games.rows(result.pairs["game"])
        gammas = _aggregates(noise, received, result.pairs["profile"])[0]
        traj._per_pair = {"utilities": result.pairs["payoff"],
                          "potentials": _potentials(weights, gammas),
                          "gammas": gammas if rule.variant == "aggregation" else None}
        traj._rule = rule
        traj._carry = (0, np.zeros(result.pairs.size))  # a step, and each pair's visits before it
        return traj

    def steps(self, a: int, b: int, *names: str) -> list:
        """The per-step fields ``names`` over steps a..b-1 (None for a field
        the run does not carry; a name outside :data:`_PER_STEP` is a
        ValueError): slices of the fields held, the others rendered from the
        engine's log for exactly these steps."""
        a, b = _integer(a, "step"), _integer(b, "step")
        if not 0 <= a <= b <= self.T:
            raise ValueError(f"steps {a}..{b} must satisfy 0 <= a <= b <= T = {self.T}")
        for name in names:
            if name not in _PER_STEP:
                raise ValueError(f"unknown trajectory field {name!r}, expected one of {_PER_STEP}")
        held = vars(self)
        missing = [name for name in names if name not in held]
        rendered = self._render(a, b, missing) if missing else {}
        return [rendered[n] if n in rendered else None if held[n] is None else held[n][a:b]
                for n in names]

    def _render(self, a: int, b: int, names: list[str]) -> dict:
        entry = self._result._in_effect(a, b, np.zeros(1, dtype=np.int64))[0]
        pair = self._result._log.pair[entry]
        fields = dict.fromkeys(names)
        fields.update((name, table[pair]) for name, table in self._per_pair.items()
                      if name in names and table is not None)
        fields["profiles"] = self._result._log.profile[entry].astype(np.int64)
        state = "beliefs" if self.variant == "classic" else "q_values"
        if state in names:
            fields[state] = self._state(a, b, pair)
        return fields

    def _state(self, a: int, b: int, pair: np.ndarray) -> np.ndarray:
        result, values = self._result, self._result.pairs["values"]
        step, visited = self._carry
        if step != a:
            visited = np.bincount(result._log.pair, weights=result._played(a),
                                  minlength=len(values))
        # The rule's base, then each pair's visits before the step times its
        # values, in order of first visit, from the step after that visit on:
        # visits never fall, so the steps that add them are a tail.
        sums = np.repeat(self._rule.base[:1], b - a, axis=0)
        for p in range(np.searchsorted(result.pairs["start"], b - 1)):
            hits = pair == p
            visits = visited[p] + np.cumsum(hits) - hits
            on = np.searchsorted(visits, 1)
            sums[on:] += visits[on:, None, None] * values[p]
        self._carry = (b, visited + np.bincount(pair, minlength=len(visited)))
        weight = (self.initial_step + np.arange(a, b))[:, None, None]
        state = self._rule.state(sums, 0)
        np.divide(state, weight, out=state, where=weight > 0)
        if a == 0 and self.initial_step == 0:
            state[:1] = self.initial_state  # no row when b == 0
        return state

    def counts(self) -> np.ndarray:
        """Each player's number of steps on each channel, (K, S), as floats."""
        if self._result is not None:
            return self._result.counts(self.T)[0]
        return np.stack([np.bincount(self.profiles[:, k], minlength=self.n_channels)
                         for k in range(self.num_players)]).astype(float)

    @property
    def utility_sums(self) -> np.ndarray:
        """Each player's payoffs summed over the run as a counted sum, (K,):
        per distinct profile, in order of first visit and added left to
        right, its visit count times its payoffs at that first visit (see
        :attr:`BatchFPResult.utility_sums`)."""
        if self._result is not None:
            return self._result.utility_sums[0]
        _, first, visits = np.unique(self.profiles, axis=0, return_index=True,
                                     return_counts=True)
        order = np.argsort(first)
        return _counted_sum(np.zeros((1, self.num_players)), np.zeros(len(order), dtype=np.intp),
                            visits[order], self.utilities[first[order]])[0]


def fp_best_response(
    game: GameSpec, player: int, beliefs: BeliefState, tie_break: str = "lowest"
) -> int:
    """Channel maximizing expected utility under product-of-marginals beliefs."""
    choose = _chooser(tie_break)
    player = _check_player(game, player)
    _guard_opponent_profiles(game)
    return int(choose(q_from_beliefs(game, beliefs).q[player]))


class _Columns:
    """Growable columns of one length, one per keyword, each of its own
    dtype (a subarray dtype gives its rows a shape). ``append`` takes rows
    for every column and doubles the capacity of any it overflows;
    ``self[name]`` is the filled part of a column, as a view."""

    def __init__(self, **dtypes) -> None:
        self.size = 0
        self._data = {name: np.empty(64, dtype) for name, dtype in dtypes.items()}

    def append(self, **rows) -> None:
        start = self.size
        self.size += len(rows[next(iter(self._data))])
        for name, column in self._data.items():
            if self.size > len(column):  # one old column held at a time
                grown = np.empty((max(2 * len(column), self.size),) + column.shape[1:],
                                 column.dtype)
                grown[:start] = column[:start]
                self._data[name] = column = grown
            column[start:self.size] = rows[name]

    def __getitem__(self, name: str) -> np.ndarray:
        return self._data[name][:self.size]


def _counted_sum(sums: np.ndarray, rows: np.ndarray, visits: np.ndarray,
                 values: np.ndarray) -> np.ndarray:
    """Adds a counted sum to ``sums`` in place and returns it: per entry j,
    in the order given, ``visits[j]`` times ``values[j]`` (or ``values``,
    one row shared by every entry) to row ``rows[j]``. With the entries in
    order of first visit, every row sums its profiles left to right in that
    order, the order in which the engine, its results and a trajectory all
    sum them, bit for bit."""
    np.add.at(sums, rows, visits.reshape((-1,) + (1,) * (sums.ndim - 1)) * values)
    return sums


# A decision log's entries by game, then in time, one per phase of every
# decision, so a game's entries tile its steps: the game, the first step
# (0-based) of the phase, its decision's period and laps, the entry's pair
# number (see BatchFPResult), its profile, (K,) channel indices in the
# smallest signed integer type that holds them, and its search key
# game·(T+1)+start, ascending. The period keeps its logged one-byte type, as
# BatchFPResult._in_effect looks it up per step.
_Log = namedtuple("_Log", "game start period laps pair profile key")


@dataclass
class BatchFPResult:
    """Fictitious play, of either rule, on a stack of G same-shape games.

    The play is kept run-length encoded. ``pairs`` numbers the (game,
    profile) pairs played from 0 in order of first visit, so each game's
    pairs in its own order of first visit, with each pair's ``game``,
    ``profile`` (K channel indices), ``start`` (0-based step of its first
    visit), ``values`` (the (K, S) vector its rule averages at each step
    that plays it: the profile's one-hot rows, or its channel values),
    ``payoff`` (the game's own K payoffs at the profile) and ``visits``
    (its steps played). ``decisions`` logs every phase of every decision,
    a jumped cycle's phase once for all its periods: per entry its
    ``pair``, first ``start`` step, and the ``period`` and number of
    periods (``laps``) of its decision's cycle. A
    decision's phases start at consecutive steps, and the game's next
    decision period * laps steps after its first phase, so each game's
    entries tile its steps. Every read goes through the log's entries, so
    its cost grows with the decisions, not with the steps. ``actions``
    renders every game's profile at every step, (T, G, K), when it is first
    read, and :meth:`tail` only the last steps.
    ``frequencies[t]`` holds the (G, K, S) empirical action frequencies
    after checkpoint step t, from exact counts, and ``final_marginals`` the
    (G, K, S) final state: beliefs under the classic rule, channel scores
    under the aggregation rule. ``utility_sums`` holds each player's
    payoffs over the run as a counted sum (:func:`_counted_sum`) of each
    pair's visits times its ``payoff``, shape (G, K).
    ``evaluations`` counts each game's decision points, the steps at which
    its rule's scores were computed.
    """

    frequencies: dict[int, np.ndarray]
    final_marginals: np.ndarray
    final_step: int
    evaluations: np.ndarray
    decisions: _Columns
    pairs: _Columns
    T: int

    @cached_property
    def _log(self) -> _Log:
        log = self.decisions
        pair = log["pair"].astype(np.int64)
        order = np.argsort(self.pairs["game"][pair], kind="stable")  # entries stay in time order
        pair = pair[order]
        game = self.pairs["game"][pair]
        start, laps = (log[name][order].astype(np.int64) for name in ("start", "laps"))
        return _Log(game, start, log["period"][order], laps, pair, self.pairs["profile"][pair],
                    game * (self.T + 1) + start)

    def _played(self, t: int) -> np.ndarray:
        """Steps each log entry's profile is played over the first t steps,
        as int64: once in each lap of its decision that reaches its phase
        before step t."""
        log = self._log
        return np.clip((t - log.start + log.period - 1) // log.period, 0, log.laps)

    def _in_effect(self, a: int, b: int, games: np.ndarray) -> np.ndarray:
        """The log entry each of ``games`` plays at steps a..b-1, shape
        (len(games), b - a)."""
        log = self._log
        steps = np.arange(a, b)
        at = games[:, None] * (self.T + 1) + steps
        entry = np.searchsorted(log.key, at, side="right")
        entry -= 1
        # The latest phase to start by a step is the step's own in the first
        # lap of its decision, and in a later lap the decision's last phase,
        # (start - step) mod period phases after the step's own.
        np.take(log.start, entry, out=at, mode="clip")  # "raise" would buffer a copy of ``at``
        at -= steps
        at %= log.period[entry]
        entry -= at
        return entry

    def tail(self, window: int) -> np.ndarray:
        """Every game's profiles over its last ``window`` steps, (G, window, K)."""
        window = _integer(window, "window")
        if not 1 <= window <= self.T:
            raise ValueError(f"window must lie in [1, {self.T}]")
        entries = self._in_effect(self.T - window, self.T, np.arange(len(self.final_marginals)))
        return self._log.profile[entries]

    @cached_property
    def actions(self) -> np.ndarray:
        """Every game's profile at every step, (T, G, K), rendered at most
        :data:`_BLOCK_CELLS` game-steps at a time."""
        profile = self._log.profile
        n_games = len(self.final_marginals)
        out = np.empty((n_games, self.T) + profile.shape[1:], profile.dtype)
        steps = min(self.T, _BLOCK_CELLS)
        for g in range(0, n_games, _BLOCK_CELLS // steps):
            games = np.arange(g, min(n_games, g + _BLOCK_CELLS // steps))
            for a in range(0, self.T, steps):
                b = min(self.T, a + steps)
                out[g:g + len(games), a:b] = profile[self._in_effect(a, b, games)]
        return out.swapaxes(0, 1)

    def counts(self, t: int) -> np.ndarray:
        """Exact (G, K, S) action counts over the first t steps, as floats."""
        if not 0 <= _integer(t, "step") <= self.T:
            raise ValueError(f"step {t} must lie in [0, T] = [0, {self.T}]")
        log = self._log
        n_games, n_players, n_channels = self.final_marginals.shape
        index = (log.game[:, None] * n_players + np.arange(n_players)) * n_channels + log.profile
        counts = np.bincount(index.ravel(), weights=np.repeat(self._played(t), n_players),
                             minlength=n_games * n_players * n_channels)
        return counts.reshape(n_games, n_players, n_channels)

    @cached_property
    def utility_sums(self) -> np.ndarray:
        """Each player's payoffs as a counted sum over the run, (G, K)."""
        return _counted_sum(np.zeros(self.final_marginals.shape[:2]), self.pairs["game"],
                            self.pairs["visits"], self.pairs["payoff"])


def _periods(window: np.ndarray) -> np.ndarray:
    """Per row of ``window`` (a game's new decision, then the profiles of the
    steps it played, newest first, as pair numbers): the smallest p <=
    :data:`MAX_PERIOD` whose first 2p entries repeat with period p, else 0."""
    periodic = (window[:, None, :MAX_PERIOD] == window[:, _PERIOD_SHIFT]).all(axis=2)
    return np.where(periodic.any(axis=1), periodic.argmax(axis=1) + 1, 0)


def _unroll(window: np.ndarray, period: np.ndarray):
    """Each row's cycle of its new decision and the ``period`` - 1 steps
    before it, in a ``window`` that repeats with that period (see
    :func:`_periods`; a single step is a cycle of period 1 in any window),
    flattened row by row, phase 0 first: the row, phase and pair of every
    phase, and where each row's phases start."""
    start = np.cumsum(period) - period
    row = np.repeat(np.arange(len(period)), period)
    phase = np.arange(len(row)) - start[row]
    at = (period[row] - phase) % period[row]  # the window runs back in time
    return row, phase, window[row, at], start


def _earlier(terms: np.ndarray, row: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """Per phase of :func:`_unroll`, ``terms`` summed over the earlier phases
    of its cycle, added one phase after another from phase 0."""
    padded = np.zeros((row[-1] + 1, MAX_PERIOD + 1) + terms.shape[1:])
    padded[row, phase + 1] = terms
    return np.cumsum(padded, axis=1)[row, phase]


def _margins(values: np.ndarray, choice: np.ndarray) -> np.ndarray:
    """Each player's value of its chosen channel (one-hot ``choice``, the
    last two axes (K, S)) less that of every channel."""
    return (values * choice).sum(axis=-1, keepdims=True) - values


def _laps(low, high, step, period, cap, choice):
    """Periods n = 0, 1, ..., at most ``cap``, certified per entry of a
    cycle's phase. A margin bound, less the rounding slack, is ``low`` (K,
    S) now, at weight ``step``, and ``high`` at the cycle's target; n more
    periods of ``period`` steps put it at (low * step + n * period * high) /
    (step + n * period), which must stay positive for every margin but the
    chosen channel's own."""
    s = step[:, None, None]
    p = period[:, None, None]
    # Periods n the bound certifies: low * s + n * p * high > 0.
    n = np.divide(low * s, -high * p, out=np.full(low.shape, np.inf), where=high < 0)
    n = np.ceil(np.minimum(n, cap.max()))
    n -= low * s + (n - 1) * p * high <= 0  # rounding guard
    n = np.where(low > 0, n, 0)
    n[choice > 0] = np.inf
    return np.minimum(n.min(axis=(1, 2)), cap)


def _play(rule, init: np.ndarray, init_step: int, T: int, tie_break: str,
          checkpoints: list[int]) -> BatchFPResult:
    """The event-driven lockstep driver of both rules on the rule's ``games``,
    from the (G, K, S) initial state ``init`` at weight ``init_step``. A
    game's weight is ``init_step`` plus the steps it played.

    At a decision point every player of every running game plays the
    tie-broken argmax of the rule's scores. When a game's last 2p steps,
    the new decision included, repeat with period p (p = 1: it repeats its
    previous profile; p up to :data:`MAX_PERIOD`), the rule certifies each
    phase of that cycle for a number of whole periods, and the game plays
    the fewest of them before it decides again. Only a game that wanders,
    or meets exact ties again and again, is decided every step.

    Only a game's new decision can visit a profile first, so it alone is
    numbered as a (game, profile) pair (see :class:`BatchFPResult`), with
    its values and its payoffs, here and nowhere else; the window and the
    log carry pair numbers. The driver computes every new pair's payoffs
    under either rule, one batched :func:`~csgame.game._payoffs` call per
    pass. Every phase of every decision is one log entry, so
    a game's entries tile its steps.

    The driver keeps both rules' running state: per pair, the vector its
    rule averages at each step that plays it (``values``) and its visit
    count (``visits``). A game's sum is :func:`_counted_sum` from the rule's
    ``base`` over its pairs in order of first visit, and ``rule.state(sums,
    games)`` its state times its weight. From that the driver computes the
    state the scores are read from (the initial state at weight 0), each
    certified phase's state and its cycle's average values (the target),
    and the final state.

    ``rule`` also holds ``games`` (the batch), ``ids`` (the running games),
    ``values(games, profiles)`` (the vectors of the pairs numbered now, (N,
    K, S)), ``scores(state)``, ``certify(at, state, choice, step, target,
    period, cap)`` (per phase of :func:`_unroll` of running game ``at``, at weight
    ``step``, playing one-hot ``choice``: the periods it keeps, at most
    ``cap``) and ``retire(done)``.
    """
    choose = _chooser(tie_break, T)
    n_games, n_players, n_channels = init.shape
    n_profiles = n_channels**n_players
    if n_profiles > np.iinfo(np.int64).max:
        raise ValueError(f"S**K = {n_profiles} profiles do not fit a 64-bit code")
    place = n_channels ** np.arange(n_players - 1, -1, -1)
    eye = np.eye(n_channels)
    end = float(init_step + T)
    evaluations = np.zeros(n_games, dtype=np.int64)
    final = np.empty(init.shape)
    numbered: dict[int, int] = {}  # game * S**K + profile code -> pair
    pairs = _Columns(game=np.int64, start=np.int64, visits=float,
                     profile=(_action_dtype(n_channels), (n_players,)),
                     values=(float, (n_players, n_channels)), payoff=(float, (n_players,)))
    decisions = _Columns(pair=np.min_scalar_type(n_games * min(n_profiles, T)),
                         start=np.min_scalar_type(T), period=np.min_scalar_type(MAX_PERIOD),
                         laps=np.min_scalar_type(T))

    def sums(games):  # each of ``games``' state times its weight, before ``state``
        row = np.full(n_games, -1)
        row[games] = np.arange(len(games))
        at = row[pairs["game"]]
        mine = np.flatnonzero(at >= 0)
        return _counted_sum(rule.base[games], at[mine], pairs["visits"][mine],
                            pairs["values"][mine])

    # Per running game: its weight, as a float, and the pairs of the last
    # steps played, newest first (-1 before the first steps). A game leaves
    # the stack as soon as it finishes, so every game in it is decided at
    # every pass.
    weight = np.full(n_games, float(init_step))
    history = np.full((n_games, 2 * MAX_PERIOD - 1), -1)
    iteration = 0
    while True:
        iteration += 1
        ids = rule.ids
        held = sums(ids)
        w = weight[:, None, None]
        state = np.divide(rule.state(held, ids), w, out=init[ids], where=w > 0)
        a = choose(rule.scores(state))
        codes = a.dot(place)
        decided = np.array([numbered.setdefault(g * n_profiles + c, len(numbered))
                            for g, c in zip(ids.tolist(), codes.tolist())])
        new = decided >= pairs.size
        if new.any():
            pairs.append(game=ids[new], start=weight[new] - init_step, profile=a[new],
                         values=rule.values(ids[new], a[new]),
                         payoff=_payoffs(*rule.games.rows(ids[new]), a[new]), visits=0.0)
        window = np.concatenate([decided[:, None], history], axis=1)
        # Each game plays ``cycles`` periods of a cycle of ``period`` steps:
        # one period of one step, its new decision, unless its last steps
        # repeat and the certificate covers whole periods of them.
        cycles = np.ones(len(weight), dtype=np.int64)
        period = np.ones(len(weight), dtype=np.int64)
        repeats = _periods(window)
        tried = np.flatnonzero(repeats)
        if tried.size:
            p = repeats[tried]
            row, phase, pair, start = _unroll(window[tried], p)
            at = tried[row]
            # Every phase of the first period: its state, as the per-step
            # rule would compute it there, and the cycle's average values.
            step = weight[at] + phase
            values = pairs["values"][pair]
            state = rule.state(held[at] + _earlier(values, row, phase), ids[at])
            state /= step[:, None, None]
            target = np.add.reduceat(values, start)[row] / p[row][:, None, None]
            kept = rule.certify(at, state, eye[pairs["profile"][pair]], step, target, p[row],
                                (end - weight[at]) // p[row])
            kept[phase == 0] = np.maximum(kept[phase == 0], 1)  # decided now
            laps = np.minimum.reduceat(kept, start).astype(np.int64)
            jump = np.flatnonzero(laps)
            cycles[tried[jump]], period[tried[jump]] = laps[jump], p[jump]
        # Every game plays each phase of its cycle once per period, and
        # each phase is one log entry.
        row, phase, pair, _ = _unroll(window, period)
        decisions.append(pair=pair, start=weight[row] + phase - init_step, period=period[row],
                         laps=cycles[row])
        np.add.at(pairs["visits"], pair, cycles[row])
        steps = cycles * period
        weight += steps
        # The last steps played follow the cycle back from its last phase.
        back = np.arange(history.shape[1])
        history = window[np.arange(len(window))[:, None], np.where(
            back < steps[:, None], (back + 1) % period[:, None], back - steps[:, None] + 1)]
        if weight.max() == end:
            done = weight == end
            evaluations[ids[done]] = iteration
            final[ids[done]] = rule.state(sums(ids[done]), ids[done]) / end
            rule.retire(done)
            if done.all():
                break
            weight, history = weight[~done], history[~done]
    result = BatchFPResult(frequencies={}, final_marginals=final, final_step=init_step + T,
                           evaluations=evaluations, decisions=decisions, pairs=pairs, T=T)
    for t in checkpoints:
        result.frequencies[t] = result.counts(t) / float(t)
    return result


def _fictitious_play(rule_class, game, init, T: int, tie_break: str, checkpoints):
    """The one engine entry of both rules: checks the inputs, builds the rule
    (``rule_class`` on the games) and runs :func:`_play`. ``game`` is one game,
    whose result is returned as its :class:`Trajectory` view, or a sequence of
    same-shape games, whose :class:`BatchFPResult` is returned; ``init`` is one
    initial state, one per game, all with one step, or None for
    ``rule_class.default(K, S)``; each state's array is its ``rule_class.field``."""
    _chooser(tie_break, T)  # rejects a bad horizon or tie-break first
    T = int(T)
    checkpoints = sorted({_integer(t, "checkpoint") for t in checkpoints})
    for t in checkpoints:
        if not 1 <= t <= T:
            raise ValueError(f"checkpoint {t} must lie in [1, T] = [1, {T}]")
    games, single = _game_batch(game)
    if not games:
        raise ValueError("need at least one game")
    shape, what = (games[0].K, games[0].S), rule_class.what
    init = rule_class.default(*shape) if init is None else init
    inits = [init] * len(games) if hasattr(init, "step") else list(init)
    if len(inits) != len(games):
        raise ValueError(f"got {len(inits)} initial {what} states for {len(games)} games")
    states = [getattr(s, rule_class.field) for s in inits]
    for state in states:
        if state.shape != shape:
            raise ValueError(f"initial {what} state has shape {state.shape}, game needs {shape}")
    if len({s.step for s in inits}) != 1:
        raise ValueError(f"every initial {what} state in a batch must carry the same step")
    init_step, states = inits[0].step, np.stack(states)
    rule = rule_class(games, states, init_step)
    result = _play(rule, states, init_step, T, tie_break, checkpoints)
    return Trajectory._view(result, rule, tie_break, states[0].copy()) if single else result


class _Classic:
    """Classic play for :func:`_play`: a pair's values are its profile's
    one-hot rows, so a game's sum is its exact action counts and its state
    those counts plus the prior; its scores are :func:`_expectations` of
    the running games' tables under their state.

    While a cycle of profiles repeats, n more periods put the beliefs at a
    phase at (1 - lam) f + lam v, with f the beliefs now, v the cycle's
    average marginals (the target) and lam = n p / (step + n p), so each
    margin E_k(a_k) - E_k(c) is a degree-(K-1) polynomial in lam. Its
    Bernstein coefficient b_m averages the margin over the ways to put m
    opponents at their target: b_0 is the margin now (d0), b_{K-1} the
    margin at the target itself. With tau the largest of (d0 - b_m) / m and
    0, the margin is at least d0 - lam (K-1) tau, because the opponents
    placed follow a binomial law of mean (K-1) lam; for K = 2 that bound is
    the margin itself. A period is certified (:func:`_laps`) when the bound
    exceeds a rounding slack far above the error of the float expectation,
    so there the per-step argmax is strict and no tie-break is consulted."""

    variant, default, field, what = "classic", BeliefState.uniform, "marginals", "belief"

    def __init__(self, games: _Batch, marginals: np.ndarray, init_step: int) -> None:
        self.games, self.prior = games, marginals * init_step  # marginals times the initial step
        self.ids = np.arange(len(games))
        self.base = np.zeros(marginals.shape)
        n_games, n_players, n_channels = marginals.shape
        flat = games.tables.reshape(n_games, -1)
        self.slack = (16 * n_players * n_channels ** (n_players - 1) * np.finfo(float).eps
                      * np.maximum(flat.max(axis=1), -flat.min(axis=1)))
        self._restack(games.tables)

    def _restack(self, stack: np.ndarray) -> None:
        # A C-ordered copy of the running rows has the layout of a prefix
        # of the tables, so the same einsum kernels and sums.
        self.stack, self._own_first = stack, _layout(stack)

    def values(self, games, profiles):
        return np.eye(self.prior.shape[2])[profiles]

    def state(self, sums, games):
        return sums + self.prior[games]

    def scores(self, state):
        return _expectations(self._own_first, state)[0]

    def certify(self, at, state, choice, step, target, period, cap):
        n_players = state.shape[1]
        if n_players == 1:  # payoffs ignore beliefs: the choice never changes
            return cap
        sums = _expectations([own[at] for own in self._own_first], state, target)
        ways = np.array([math.comb(n_players - 1, m) for m in range(n_players)])
        b = _margins(sums / ways[:, None, None, None], choice)  # one term is nonzero: exact
        d0 = b[0]
        placed = np.arange(1, n_players)[:, None, None, None]  # opponents at their target
        tau = np.maximum((d0 - b[1:]) / placed, 0).max(axis=0)
        low = d0 - self.slack[self.ids[at], None, None]  # bound minus slack now ...
        high = low - (n_players - 1) * tau  # ... and at the target (lam = 1)
        return _laps(low, high, step, period, cap, choice)

    def retire(self, done):
        self.ids = self.ids[~done]
        if self.ids.size:
            self._restack(self.stack[~done])


def run_fp(
    game: GameSpec | Sequence[GameSpec],
    init_beliefs: BeliefState | Sequence[BeliefState] | None = None,
    T: int = 10_000,
    tie_break: str = "lowest",
    checkpoints: tuple[int, ...] = (),
) -> Trajectory | BatchFPResult:
    """Simultaneous-move fictitious play under full action observation.

    Each round every player best-responds to the product of the current
    frequency vectors, all actions are revealed at once, and every vector
    absorbs the new observation. Beliefs are carried as exact counts: at
    belief weight ``step`` a vector is (prior * initial step + counts) /
    step, the prior being the initial marginals.

    The engine is event-driven (:func:`_play`): a cycle of profiles is
    played for as many whole periods as :class:`_Classic`'s certificate,
    whose target is the cycle's average marginals, allows. The result equals
    the step-by-step rule's exactly. Checkpoints must lie in [1, T].

    ``game`` is one game or a sequence of games with one (K, S) shape,
    stepped in lockstep with one clock per game; each game's arithmetic is
    the same either way. One game returns a :class:`Trajectory`, a view of
    the decision log that renders profiles and belief snapshots when they
    are read. A sequence returns a
    :class:`BatchFPResult` (with frequencies at ``checkpoints``) and takes
    one shared :class:`BeliefState` or one per game; all must carry the
    same step.
    """
    return _fictitious_play(_Classic, game, init_beliefs, T, tie_break, checkpoints)


def q_from_beliefs(game: GameSpec | Sequence[GameSpec],
                   beliefs: BeliefState) -> QState | list[QState]:
    """Channel scores matching classic-play expectations under ``beliefs``.

    Use this to start :func:`run_aggregation_fp` in lockstep with
    :func:`run_fp` from the same initial state. ``game`` is one game, or a
    same-shape sequence given one state per game: the batch's one stack of
    tables is contracted against a C-ordered stack of the marginals (einsum
    picks its kernel by layout), so one game is a batch of one.
    """
    games, single = _game_batch(game)
    if not games:
        return []
    shape = (games[0].K, games[0].S)
    if beliefs.marginals.shape != shape:
        raise ValueError(f"beliefs have shape {beliefs.marginals.shape}, game needs {shape}")
    marginals = np.repeat(beliefs.marginals[None], len(games), axis=0)
    states = [QState(step=beliefs.step, q=q)
              for q in _expectations(_layout(games.tables), marginals)[0]]
    return states[0] if single else states


class _Aggregation:
    """Aggregate-feedback play for :func:`_play`. A pair's values are its
    channel values, so a game's scores at weight w > 0 are its counted sum
    over w: its initial step times its initial scores (``base``), plus,
    over its pairs in order of first visit, each one's visit count times
    its channel values; at weight 0 they are the initial scores. A pair's
    channel values are computed once, when the pair is numbered, in one
    batched broadcast for all the pairs a pass numbers, and :func:`_play`
    keeps them; the rule counts each game's pairs (``visited``) for its
    slack.

    While a cycle of profiles repeats, the scores at each phase move
    linearly toward the cycle's average values in lam = n p / (w + n p), so
    each margin is certified as in :func:`_laps`, with a rounding slack far
    above the error of the counted sums."""

    variant, default, field, what = "aggregation", QState.zeros, "q", "q"

    def __init__(self, games: _Batch, q0: np.ndarray, init_step: int) -> None:
        self.games, self.base = games, q0 * init_step
        self.ids = np.arange(len(games))
        self.visited = np.zeros(len(games), dtype=np.int64)  # per game: its pairs
        self.scale = q0.max(axis=(1, 2), initial=0.0)  # per game: the largest score or value

    def values(self, games, profiles):
        noise, received, weights = self.games.rows(games)
        gammas, residuals = _aggregates(noise, received, profiles)
        rows, players = np.arange(len(games))[:, None], range(profiles.shape[1])
        heard = np.repeat(gammas[:, None], len(players), axis=1)  # all of gamma off the own channel
        heard[rows, players, profiles] = _strip_own(
            gammas[rows, profiles], received[rows, players, profiles], residuals[rows, profiles])
        values = _rate(weights[:, None], received, heard)
        np.add.at(self.visited, games, 1)
        np.maximum.at(self.scale, games, values.max(axis=(1, 2)))
        return values

    def state(self, sums, games):
        return sums

    def scores(self, state):
        return state

    def certify(self, at, state, choice, step, target, period, cap):
        games = self.ids[at]
        # The counted sum of v visited profiles errs by about v + 1 rounding
        # errors of the largest score, the phase's scores by p more.
        slack = (16 * (self.visited[games] + MAX_PERIOD + 2) * np.finfo(float).eps
                 * self.scale[games])[:, None, None]
        return _laps(_margins(state, choice) - slack, _margins(target, choice) - slack,
                     step, period, cap, choice)

    def retire(self, done):
        self.ids = self.ids[~done]


def run_aggregation_fp(
    game: GameSpec | Sequence[GameSpec],
    init_q: QState | Sequence[QState] | None = None,
    T: int = 10_000,
    tie_break: str = "lowest",
    checkpoints: tuple[int, ...] = (),
) -> Trajectory | BatchFPResult:
    """Fictitious play driven only by the receiver's per-channel aggregate.

    Players never observe opponent actions. Each round they play argmax of
    their channel scores; the receiver then broadcasts gamma (noise plus
    total received power per channel); each player removes its own actual
    contribution and values every channel it could have used against the
    remaining interference. A player's scores average those values with its
    initial scores, which weigh as many rounds as the initial step, carried
    as a counted sum (see :class:`_Aggregation`) that does not depend on how
    play is cut into runs. Everything the broadcast determines (gamma, the
    consistency check, the channel values) depends on the profile alone, so
    it is computed once per distinct profile a game visits, for all the
    games' new profiles at once. The run reports each profile's exact
    :func:`~csgame.game.utility` and :func:`~csgame.game.potential`.

    The engine is event-driven and batched like :func:`run_fp` (see
    :func:`_play`), with the step-by-step rule's result bit for bit. One
    game returns a :class:`Trajectory`; a sequence of same-shape games
    returns a :class:`BatchFPResult` and takes one shared :class:`QState`
    or one per game, all with the same step.
    """
    return _fictitious_play(_Aggregation, game, init_q, T, tie_break, checkpoints)


def empirical_frequencies(traj: Trajectory) -> np.ndarray:
    """Fraction of rounds each player spent on each channel, shape (K, S)."""
    if traj.T == 0:
        raise ValueError("cannot compute frequencies of an empty trajectory")
    return traj.counts() / traj.T


@dataclass(frozen=True)
class CycleReport:
    """Exact cycle found in the trailing window of a trajectory.

    ``onset`` is the 1-based step from which the whole remaining run is
    periodic; ``time_avg_utility`` averages each player's payoff over one
    period. Period 1 means the run has settled on a fixed profile.
    """

    period: int
    cycle_profiles: tuple[tuple[int, ...], ...]
    onset: int
    time_avg_utility: np.ndarray


def _smallest_period(windows: np.ndarray) -> np.ndarray:
    """Per window of a (G, W, K) stack, the smallest p <= W // 2 with the
    window exactly p-periodic, else 0."""
    period = np.zeros(len(windows), dtype=np.int64)
    for p in range(1, windows.shape[1] // 2 + 1):
        if period.all():
            break
        period[(period == 0) & (windows[:, p:] == windows[:, :-p]).all(axis=(1, 2))] = p
    return period


def detect_cycle(traj: Trajectory, window: int) -> CycleReport | None:
    """Exact-period detection over the trailing ``window`` steps of a run."""
    T, window = traj.T, _integer(window, "window")
    if not 1 <= window <= T:
        raise ValueError(f"window must lie in [1, {T}]")
    [tail] = traj.steps(T - window, T, "profiles")
    period = int(_smallest_period(tail[None])[0])
    if not period:
        return None
    # The run is periodic from the step after the last one before the window
    # that differs from its successor one period on, sought back a block of
    # steps at a time.
    onset, b = 0, T - window
    while b > 0:
        a = max(0, b - _BLOCK_STEPS)
        [profiles] = traj.steps(a, b + period, "profiles")
        misses = np.flatnonzero(np.any(profiles[:b - a] != profiles[period:], axis=1))
        if misses.size:
            onset = a + int(misses[-1]) + 1
            break
        b = a
    [cycle] = traj.steps(onset, onset + period, "profiles")
    [utilities] = traj.steps(T - period, T, "utilities")
    return CycleReport(period=period, cycle_profiles=tuple(map(tuple, cycle.tolist())),
                       onset=onset + 1, time_avg_utility=utilities.mean(axis=0))


def cycle_persistence_2x2(game: GameSpec, xi, n: int) -> bool:
    """Whether the two-profile coordination cycle survives through round n.

    Round n is steps 2n - 1 and 2n, played as (0, 0) then (1, 1). ``xi``
    holds each player's initial-belief parameter (marginals (xi/(1+xi),
    1/(1+xi))). Each player answers the other's frequencies: player 1 keeps
    the cycle while r1 = (Φ(1,0) − Φ(1,1)) / (Φ(0,1) − Φ(0,0)) lies in the
    band of xi[0], player 0 while r0 = (Φ(0,1) − Φ(1,1)) / (Φ(1,0) − Φ(0,0))
    lies in the band of xi[1]. The band of x, (b + x)/(b + 1) <= r <= (b + 1
    + 2x)/(b + 1) with b = (n − 1)(1 + x), holds 1 and tightens toward it as
    n grows. Raises when either denominator is zero.
    """
    require_symmetric_2x2(game)
    xi = np.asarray(xi, dtype=float).ravel()
    if xi.shape != (2,):
        raise ValueError("xi must hold one value per player (length 2)")
    BeliefState.from_xi(xi)  # rejects xi outside (0, 1)
    n = _integer(n, "n")
    if n < 1:
        raise ValueError("n must be >= 1")
    (phi00, phi01), (phi10, phi11) = potential_table(game).tolist()
    ratios = ((phi10 - phi11, phi01 - phi00, xi[0]),  # player 1, answering player 0
              (phi01 - phi11, phi10 - phi00, xi[1]))  # player 0, answering player 1
    if any(den == 0.0 for _, den, _ in ratios):
        raise ValueError("degenerate potential differences: denominator is zero")
    for num, den, x in ratios:
        b = (n - 1) * (1.0 + x)
        if not (b + x) / (b + 1.0) <= num / den <= (b + 1.0 + 2.0 * x) / (b + 1.0):
            return False
    return True


def run_fp_batch_2x2(
    games: Sequence[GameSpec], T: int, checkpoints: tuple[int, ...] = ()
) -> BatchFPResult:
    """:func:`run_fp` on a stack of 2x2 games from uniform beliefs, for callers
    of the former 2x2-only batch engine; rejects any other shape."""
    if any(g.K != 2 or g.S != 2 for g in games):
        raise ValueError("the batch engine only handles 2 players x 2 channels")
    return run_fp(games, T=T, checkpoints=checkpoints)
