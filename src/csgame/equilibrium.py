"""Equilibrium analysis: exhaustive pure search and the 2x2 regions.

The exhaustive search works for any (K, S) within the enumeration guard. The
2x2 pieces target the two-player, two-channel setting with a common power
budget, common noise level and equal bandwidths. There the paper's regions
H1..H4 are the four pure profiles' equilibrium conditions, so the labels are
read off the pure-equilibrium mask; when the two orthogonal profiles are the
only pure equilibria, a strictly mixed one exists with probabilities given
by potential differences.

Every rule is written once, as array operations over a stack of same-shape
games: the pure-equilibrium mask compares each player's payoffs with their
maximum along its own channel axis of the stacked utility tables, an
equilibrium's payoffs and potential are computed at its profile by the
rules that give the tables their bits, and the 2x2 precondition, the region
labels and the mixed-point ratios (potential differences, Monderer and
Shapley 1996, off the potential tables of the 2x2 games) are evaluated on
(G, 2, 2) stacks, into columns, mixed payoffs included, that a Monte-Carlo
chunk keeps. Only the mask and the mixed payoffs read the batch's one stack.
:func:`analyze_game` takes one game or a same-shape sequence and slices a
report per game from the columns; one game is a batch of one, and the
single-game functions are that batch.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .game import (
    GameSpec,
    _Batch,
    _aggregates,
    _expectations,
    _game_batch,
    _layout,
    _payoffs,
    _potentials,
    potential_table,
)

__all__ = [
    "REGION_PROFILES",
    "enumerate_pure_ne",
    "require_symmetric_2x2",
    "classify_region_2x2",
    "region_ne_profiles",
    "boundary_margin_2x2",
    "mixed_ne_2x2",
    "EquilibriumReport",
    "analyze_game",
]

# Each region's pure profile (player 0, player 1), a (weak) equilibrium exactly in it.
REGION_PROFILES = {
    "H1": (0, 1),
    "H2": (0, 0),
    "H3": (1, 1),
    "H4": (1, 0),
}
_REGIONS = tuple(REGION_PROFILES)
_PLAYER0, _PLAYER1 = np.array(list(REGION_PROFILES.values())).T  # the regions' cells

# What the common-budget 2x2 setting needs, in the order it is checked.
_SYMMETRIC_2X2_NEEDS = (
    "exactly 2 players and 2 channels",
    "equal channel bandwidths",
    "a common noise level",
    "a common power budget",
    "strictly positive gains",
)


def _pure_ne_mask(tables: np.ndarray) -> np.ndarray:
    """Pure-equilibrium mask of a stack of utility tables, (G, K) + (S,)*K:
    a profile is kept when each player's payoff there reaches the best its
    own channel axis offers (ties count)."""
    mask = np.ones(tables.shape[:1] + tables.shape[2:], dtype=bool)
    for k in range(tables.shape[1]):
        own = tables[:, k]
        mask &= own >= own.max(axis=k + 1, keepdims=True)
    return mask


def enumerate_pure_ne(game: GameSpec) -> list[tuple[int, ...]]:
    """All pure profiles where no unilateral channel switch strictly helps.

    Ties count: a profile stays in the set when the best deviation merely
    matches the current payoff. Profiles are returned in lexicographic order.
    """
    mask = _pure_ne_mask(_game_batch(game)[0].tables)[0]
    return [tuple(row) for row in np.argwhere(mask).tolist()]


def _symmetric_2x2(games: _Batch) -> np.ndarray:
    """Per game of a batch: the index into :data:`_SYMMETRIC_2X2_NEEDS` of
    the first need it fails, or -1 when it is in the common-budget 2x2
    setting."""
    n_games = len(games)
    if not games or (games[0].K, games[0].S) != (2, 2):
        return np.zeros(n_games, dtype=np.int64)
    bandwidths, noise, max_power, gains = (
        games.stacks[key] for key in ("bandwidths", "noise", "max_power", "gains"))
    fails = np.stack([
        np.zeros(n_games, dtype=bool),
        bandwidths[:, 0] != bandwidths[:, 1],
        noise[:, 0] != noise[:, 1],
        max_power[:, 0] != max_power[:, 1],
        np.any(gains <= 0, axis=(1, 2)),
    ], axis=1)
    return np.where(fails.any(axis=1), fails.argmax(axis=1), -1)


def _require_symmetric_2x2(games: _Batch) -> None:
    """Raises ValueError for the first game of a batch that is not in the
    common-budget 2x2 setting."""
    failures = _symmetric_2x2(games)
    failed = failures[failures >= 0]
    if len(failed):
        raise ValueError(f"this analysis needs {_SYMMETRIC_2X2_NEEDS[failed[0]]}")


def require_symmetric_2x2(game: GameSpec) -> float:
    """Check the common-budget 2x2 setting; returns the common SNR.

    Needs K = S = 2, equal bandwidths, one noise level, one power budget and
    strictly positive gains. Raises ValueError otherwise.
    """
    games = _game_batch(game)[0]
    _require_symmetric_2x2(games)
    return float(games.stacks["max_power"][0, 0] / games.stacks["noise"][0, 0])


def _labels(ne_mask: np.ndarray) -> list[tuple[str, ...]]:
    """Region labels, in H1..H4 order, per game of a (G, 2, 2) stack of
    pure-equilibrium masks."""
    return [tuple(compress(_REGIONS, row)) for row in ne_mask[:, _PLAYER0, _PLAYER1].tolist()]


def classify_region_2x2(
    game: GameSpec | Sequence[GameSpec],
) -> frozenset[str] | list[frozenset[str]]:
    """Region memberships (may overlap): H_i holds exactly when its profile
    in :data:`REGION_PROFILES` is a pure equilibrium, read off the mask of
    :func:`enumerate_pure_ne`. In the paper's closed form:

    * H1: player 0 prefers channel 0 when alone there and player 1 tolerates
      channel 1 -> (0, 1) stable.
    * H2: both prefer channel 0 even when shared -> (0, 0) stable.
    * H3: both prefer channel 1 even when shared -> (1, 1) stable.
    * H4: mirror of H1 -> (1, 0) stable. Its first bound compares player 0's
      gain ratio against 1 + SNR * g21: player 0 stays on channel 1 exactly
      when its channel-0 advantage does not beat the interference player 1
      creates there.

    A potential game has a pure equilibrium, so every game is in a region.
    ``game`` is one game, or a sequence of games classified in one pass,
    which gives a list of memberships; any game outside the common-budget
    2x2 setting raises, the first one naming its defect.
    """
    games, single = _game_batch(game)
    _require_symmetric_2x2(games)
    labels = [frozenset(row) for row in _labels(_pure_ne_mask(games.tables))] if games else []
    return labels[0] if single else labels


def region_ne_profiles(labels) -> list[tuple[int, int]]:
    """Pure equilibria implied by region memberships, lexicographic order."""
    try:
        return sorted(REGION_PROFILES[h] for h in labels)
    except KeyError as exc:
        raise ValueError(f"unknown region label {exc.args[0]!r}, "
                         f"the regions are {', '.join(_REGIONS)}") from None


def boundary_margin_2x2(game: GameSpec) -> float:
    """Smallest absolute slack among the paper's four closed-form region
    comparisons (gain ratios against 1 / (1 + SNR * g) and 1 + SNR * g).

    Useful for rejection-sampling games away from region boundaries, where
    the closed form and the payoff comparisons may round a tie differently.
    """
    snr = require_symmetric_2x2(game)
    (g11, g12), (g21, g22) = game.gains
    own_ratio, cross_ratio = g11 / g12, g21 / g22
    return min(
        abs(own_ratio - 1.0 / (1.0 + snr * g22)),
        abs(own_ratio - (1.0 + snr * g21)),
        abs(cross_ratio - 1.0 / (1.0 + snr * g12)),
        abs(cross_ratio - (1.0 + snr * g11)),
    )


def _mixed_points(potentials: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidate mixed points of a (G, 2, 2) stack of potential tables:
    the (G, 2, 2) points, and masks of the games whose potential
    differences degenerate and whose point is not strictly interior."""
    phi11, phi12, phi21, phi22 = (potentials[:, a, b] for a in range(2) for b in range(2))
    numerators = np.stack([
        phi21 - phi22,  # player 0's weight on channel 0
        phi12 - phi11,
        phi12 - phi22,  # player 1's weight on channel 0
        phi21 - phi11,
    ], axis=1).reshape(-1, 2, 2)
    denom = numerators[:, 0, 0] + numerators[:, 0, 1]
    degenerate = np.abs(denom) <= 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        mixed = numerators / denom[:, None, None]
    boundary = np.any((mixed <= 0.0) | (mixed >= 1.0), axis=(1, 2))
    return mixed, degenerate, boundary


def mixed_ne_2x2(game: GameSpec) -> np.ndarray:
    """The strictly mixed equilibrium of a 2x2 game with two pure equilibria.

    Requires the two orthogonal profiles to be the only pure equilibria
    (regions exactly H1 and H4). Row k is player k's distribution over
    channels; each entry is a ratio of potential differences, so in a fully
    symmetric game both rows are exactly (0.5, 0.5). Raises for any other
    regions, when the potential differences degenerate, or when a boundary
    case fails strict interiority.
    """
    labels = classify_region_2x2(game)
    if labels != {"H1", "H4"}:
        raise ValueError(
            "a strictly mixed equilibrium needs the two orthogonal profiles "
            f"to be the only pure equilibria (regions found: {sorted(labels)})"
        )
    mixed, degenerate, boundary = _mixed_points(potential_table([game]))
    if degenerate[0]:
        raise ValueError("degenerate potential differences, no unique mixed point")
    if boundary[0]:
        raise ValueError("boundary case: the mixed point is not strictly interior")
    return mixed[0]


@dataclass(frozen=True)
class EquilibriumReport:
    """Everything the pure/mixed analysis of one game produced.

    ``utilities[i]`` and ``potentials[i]`` correspond to ``pure_ne[i]``.
    ``mixed_ne`` and ``regions`` are present only for the common-budget 2x2
    setting (and the former only when strictly mixed play is an equilibrium).
    The arrays of :func:`analyze_game`'s reports are read-only.
    """

    pure_ne: tuple[tuple[int, ...], ...]
    utilities: np.ndarray
    potentials: np.ndarray
    mixed_ne: np.ndarray | None
    regions: frozenset[str] | None

    def to_dict(self) -> dict:
        return {
            "pure_ne": [list(p) for p in self.pure_ne],
            "utilities": self.utilities.tolist(),
            "potentials": self.potentials.tolist(),
            "mixed_ne": None if self.mixed_ne is None else self.mixed_ne.tolist(),
            "regions": None if self.regions is None else sorted(self.regions),
        }


def analyze_game(
    game: GameSpec | Sequence[GameSpec],
) -> EquilibriumReport | list[EquilibriumReport]:
    """Run the full equilibrium analysis each game deserves.

    ``game`` is one game or a sequence of games with one (K, S) shape,
    analyzed in one pass of array operations over their stacked tables; one
    game is a batch of one and returns its report, a sequence returns one
    report per game.

    The pure equilibria come from per-player maxima of the utility tables,
    their payoffs and potentials are computed at their profiles, and games
    in the common-budget 2x2 setting get their regions and, with exactly the
    two orthogonal equilibria, the strictly mixed one.
    """
    games, single = _game_batch(game)
    if not games:
        return []
    columns = _analysis_columns(games)
    for arr in (columns.ne_utilities, columns.ne_potentials, columns.mixed_ne):
        arr.setflags(write=False)  # the reports slice them
    profiles = [tuple(row) for row in columns.pure_ne.tolist()]
    bounds = np.concatenate([[0], np.cumsum(columns.ne_counts)]).tolist()
    reports = [
        EquilibriumReport(
            pure_ne=tuple(profiles[lo:hi]),
            utilities=columns.ne_utilities[lo:hi],
            potentials=columns.ne_potentials[lo:hi],
            mixed_ne=columns.mixed_ne[g] if columns.mixed[g] else None,
            regions=None if labels is None else frozenset(labels),
        )
        for g, (lo, hi, labels) in enumerate(zip(bounds[:-1], bounds[1:], columns.regions))
    ]
    return reports[0] if single else reports


_AnalysisColumns = namedtuple("_AnalysisColumns", "ne_counts mixed mixed_ne regions "
                              "game_of pure_ne ne_utilities ne_potentials mixed_ne_mean_utility")


def _analysis_columns(games: _Batch) -> _AnalysisColumns:
    """A non-empty batch's analysis (see :func:`analyze_game`), as columns; only
    the mask and the mixed payoffs read the utility tables. Per game: its pure-NE
    count, whether it has a strictly mixed equilibrium, its (K, S) mixed point and
    its region labels in H1..H4 order (None outside the 2x2 setting). Per pure NE,
    game after game: its game, profile, payoffs and potential. Per game again: the
    mean payoff at its mixed point (zero, as the point, where it has none)."""
    n_games = len(games)
    ne_mask = _pure_ne_mask(games.tables)
    ne = np.argwhere(ne_mask)  # (N, 1 + K): game, then profile
    game_of, profiles = ne[:, 0], ne[:, 1:]
    noise, received, weights = games.rows(game_of)
    counts = np.bincount(game_of, minlength=n_games)
    regions: list = [None] * n_games
    mixed = np.zeros(n_games, dtype=bool)
    mixed_ne = np.zeros((n_games, games[0].K, games[0].S))
    mixed_ne_mean_utility = np.zeros(n_games)
    symmetric = np.flatnonzero(_symmetric_2x2(games) < 0)
    if len(symmetric):
        labels = _labels(ne_mask[symmetric])
        for g, row in zip(symmetric.tolist(), labels):
            regions[g] = row
        # The two orthogonal profiles are the only pure NE.
        two_sided = symmetric[[row == ("H1", "H4") for row in labels]]
        points, degenerate, boundary = _mixed_points(potential_table(games)[two_sided])
        interior = ~(degenerate | boundary)
        mixed[two_sided[interior]] = True
        mixed_ne[mixed] = points[interior]
        # The mean per-player expected payoff at each mixed point: each of
        # the two players on channel 0 against the other's mixed row.
        expected = _expectations(_layout(games.tables[mixed]), mixed_ne[mixed])[0]
        mixed_ne_mean_utility[mixed] = expected[:, :, 0].sum(axis=1) / 2
    return _AnalysisColumns(counts, mixed, mixed_ne, regions, game_of, profiles,
                            _payoffs(noise, received, weights, profiles),
                            _potentials(weights, _aggregates(noise, received, profiles)[0]),
                            mixed_ne_mean_utility)
