"""A batch's equilibrium analysis as columns, and the reports sliced from it."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from csgame import GameSpec, analyze_game, equilibrium
from csgame.game import _game_batch
from conftest import random_game, random_symmetric_2x2


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).ravel().tolist()


def _batch(seed: int, shape: str, size: int) -> list[GameSpec]:
    rng = np.random.default_rng(seed)
    if shape == "symmetric 2x2":
        return [random_symmetric_2x2(rng, rng.choice([0.3, 3.0, 30.0])) for _ in range(size)]
    n_players, n_channels = {"3x2": (3, 2), "K = 1": (1, 3)}[shape]
    return [random_game(rng, n_players, n_channels) for _ in range(size)]


def _columns(games: list[GameSpec]):
    return equilibrium._analysis_columns(_game_batch(games)[0])


def _reports_match_columns(games: list[GameSpec]) -> None:
    """Each game's report is its slice of the batch's columns: its rows of
    the pure-equilibrium columns, found by ``game_of``, its mixed point where
    ``mixed`` holds, and its region labels."""
    reports = analyze_game(games)
    assert len(reports) == len(games)
    if not games:
        return
    columns = _columns(games)
    n_games, n_ne = len(games), len(columns.game_of)
    assert columns.ne_counts.tolist() == np.bincount(columns.game_of, minlength=n_games).tolist()
    assert (np.diff(columns.game_of) >= 0).all()
    assert columns.pure_ne.shape == (n_ne, games[0].K)
    assert columns.ne_utilities.shape == (n_ne, games[0].K)
    assert columns.ne_potentials.shape == (n_ne,)
    assert columns.mixed_ne.shape == (n_games, games[0].K, games[0].S)
    for g, report in enumerate(reports):
        rows = np.flatnonzero(columns.game_of == g)
        assert report.pure_ne == tuple(map(tuple, columns.pure_ne[rows].tolist()))
        assert _bits(report.utilities) == _bits(columns.ne_utilities[rows])
        assert _bits(report.potentials) == _bits(columns.ne_potentials[rows])
        assert (report.mixed_ne is not None) == columns.mixed[g]
        if columns.mixed[g]:
            assert _bits(report.mixed_ne) == _bits(columns.mixed_ne[g])
        else:
            assert not columns.mixed_ne[g].any()
        labels = columns.regions[g]
        assert report.regions == (None if labels is None else frozenset(labels))
        assert labels is None or list(labels) == sorted(labels)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from(["symmetric 2x2", "3x2", "K = 1"]),
       size=st.integers(0, 12))
def test_reports_are_slices_of_the_columns(seed, shape, size):
    _reports_match_columns(_batch(seed, shape, size))


def test_the_columns_hold_mixed_points_regions_and_other_shapes():
    batch = _batch(5, "symmetric 2x2", 40) + [
        GameSpec.symmetric(np.ones((2, 2)), p_max=10.0),  # mixed exactly one half
        GameSpec(bandwidths=[1.0, 2.0], noise=[1.0, 1.0], max_power=[3.0, 3.0],
                 gains=[[1.0, 0.5], [0.4, 1.2]]),  # outside the 2x2 setting
    ]
    _reports_match_columns(batch)
    columns = _columns(batch)
    assert columns.mixed.sum() >= 5 and not columns.mixed.all()
    # A common-budget 2x2 batch without the two orthogonal equilibria
    # computes its mixed points and payoffs at no profile.
    lone = [GameSpec.symmetric([[3.0, 1.0], [3.0, 1.0]], p_max=0.1)]
    _reports_match_columns(lone)
    assert _columns(lone).regions == [("H2",)] and not _columns(lone).mixed.any()
    assert columns.mixed_ne[-2].tolist() == [[0.5, 0.5], [0.5, 0.5]]
    assert all(labels for labels in columns.regions[:-1]) and columns.regions[-1] is None
    for shape in ("3x2", "K = 1"):
        games = _batch(7, shape, 10)
        _reports_match_columns(games)
        columns = _columns(games)
        assert not columns.mixed.any() and columns.regions == [None] * 10
    _reports_match_columns([])
