"""Pure equilibria, 2x2 region classification, and the mixed equilibrium."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csgame import (
    EquilibriumReport,
    GameSpec,
    analyze_game,
    boundary_margin_2x2,
    classify_region_2x2,
    enumerate_pure_ne,
    expected_utility,
    mixed_ne_2x2,
    potential,
    region_ne_profiles,
    require_symmetric_2x2,
    utility,
    utility_table,
)
from csgame import game as game_module
from csgame.game import _game_batch
from _oracles import (
    oracle_analyze_game,
    oracle_best_response_2x2,
    oracle_classify_region_2x2,
    oracle_enumerate_pure_ne,
    oracle_mixed_ne_2x2,
    oracle_pure_ne,
    oracle_require_symmetric_2x2,
)
from conftest import random_game, random_symmetric_2x2


def _oracle_ne(game: GameSpec) -> list[tuple[int, ...]]:
    return oracle_pure_ne(
        game.bandwidths.tolist(),
        game.noise.tolist(),
        game.max_power.tolist(),
        game.gains.tolist(),
    )


class TestEnumeratePureNE:
    def test_orthogonal_profiles_under_strong_interference(self, strong_interference_game):
        assert enumerate_pure_ne(strong_interference_game) == [(0, 1), (1, 0)]

    def test_unique_equilibrium(self, unique_ne_game):
        assert enumerate_pure_ne(unique_ne_game) == [(0, 1)]

    def test_dominant_player_example(self):
        # Player 1's channel-0 advantage is big enough that (1, 0) is the
        # only stable profile.
        game = GameSpec.symmetric([[1.0, 0.2], [10.0, 0.2]], p_max=10.0, noise_var=1.0)
        assert enumerate_pure_ne(game) == [(1, 0)]

    def test_single_player_picks_argmax(self):
        game = GameSpec(
            bandwidths=[1.0, 1.0, 1.0],
            noise=[1.0, 0.2, 0.5],
            max_power=[1.0],
            gains=[[1.0, 1.0, 1.0]],
        )
        assert enumerate_pure_ne(game) == [(1,)]

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n_players = int(rng.integers(2, 4))
            n_channels = int(rng.integers(2, 4))
            game = random_game(rng, n_players, n_channels)
            assert enumerate_pure_ne(game) == _oracle_ne(game)

    def test_results_are_sorted(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            ne = enumerate_pure_ne(random_game(rng, 3, 2))
            assert ne == sorted(ne)

    def test_count_within_structural_bounds(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            n_players = int(rng.integers(2, 4))
            n_channels = int(rng.integers(2, 4))
            game = random_game(rng, n_players, n_channels)
            count = len(enumerate_pure_ne(game))
            assert 1 <= count <= n_channels ** (n_players - 1)


class TestSymmetricPrecondition:
    def test_returns_snr(self, strong_interference_game):
        assert require_symmetric_2x2(strong_interference_game) == 10.0

    def test_rejects_wrong_size(self):
        game = GameSpec(
            bandwidths=[1.0, 1.0],
            noise=[1.0, 1.0],
            max_power=[1.0, 1.0, 1.0],
            gains=[[1.0, 1.0]] * 3,
        )
        with pytest.raises(ValueError):
            require_symmetric_2x2(game)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(bandwidths=[1.0, 2.0]),
            dict(noise=[1.0, 0.5]),
            dict(max_power=[1.0, 2.0]),
        ],
    )
    def test_rejects_asymmetric_parameters(self, kwargs):
        base = dict(
            bandwidths=[1.0, 1.0],
            noise=[1.0, 1.0],
            max_power=[1.0, 1.0],
            gains=[[1.0, 1.0], [1.0, 1.0]],
        )
        base.update(kwargs)
        with pytest.raises(ValueError):
            require_symmetric_2x2(GameSpec(**base))

    def test_rejects_zero_gain(self):
        game = GameSpec(
            bandwidths=[1.0, 1.0],
            noise=[1.0, 1.0],
            max_power=[1.0, 1.0],
            gains=[[1.0, 0.0], [1.0, 1.0]],
        )
        with pytest.raises(ValueError):
            require_symmetric_2x2(game)


class TestRegions:
    def test_known_memberships(self, worked_mixed_game, unique_ne_game,
                               strong_interference_game):
        assert classify_region_2x2(worked_mixed_game) == {"H1", "H4"}
        assert classify_region_2x2(strong_interference_game) == {"H1", "H4"}
        assert classify_region_2x2(unique_ne_game) == {"H1"}
        dominant = GameSpec.symmetric([[1.0, 0.2], [10.0, 0.2]], p_max=10.0)
        assert classify_region_2x2(dominant) == {"H4"}

    def test_shared_channel_regions(self):
        # Channel 0 dominates for both players: (0, 0) is the lone NE.
        both_first = GameSpec.symmetric([[1.0, 0.01], [1.0, 0.01]], p_max=10.0)
        assert classify_region_2x2(both_first) == {"H2"}
        assert enumerate_pure_ne(both_first) == [(0, 0)]
        both_second = GameSpec.symmetric([[0.01, 1.0], [0.01, 1.0]], p_max=10.0)
        assert classify_region_2x2(both_second) == {"H3"}
        assert enumerate_pure_ne(both_second) == [(1, 1)]

    def test_region_profiles_mapping(self):
        assert region_ne_profiles({"H1"}) == [(0, 1)]
        assert region_ne_profiles({"H2"}) == [(0, 0)]
        assert region_ne_profiles({"H3"}) == [(1, 1)]
        assert region_ne_profiles({"H4"}) == [(1, 0)]
        assert region_ne_profiles({"H1", "H4"}) == [(0, 1), (1, 0)]

    def test_regions_agree_with_enumeration_off_boundary(self):
        rng = np.random.default_rng(43)
        checked = 0
        while checked < 300:
            game = random_symmetric_2x2(rng)
            if boundary_margin_2x2(game) <= 1e-9:
                continue
            checked += 1
            assert region_ne_profiles(classify_region_2x2(game)) == enumerate_pure_ne(game)

    def test_regions_agree_with_best_response_oracle(self):
        rng = np.random.default_rng(47)
        checked = 0
        while checked < 300:
            game = random_symmetric_2x2(rng)
            if boundary_margin_2x2(game) <= 1e-9:
                continue
            checked += 1
            args = (game.bandwidths.tolist(), game.noise.tolist(),
                    game.max_power.tolist(), game.gains.tolist())
            oracle = []
            for profile in [(0, 0), (0, 1), (1, 0), (1, 1)]:
                stable = all(
                    oracle_best_response_2x2(*args, k, profile[1 - k]) == profile[k]
                    for k in range(2)
                )
                if stable:
                    oracle.append(profile)
            assert region_ne_profiles(classify_region_2x2(game)) == oracle

    def test_rejects_asymmetric_game(self):
        game = GameSpec(
            bandwidths=[1.0, 2.0],
            noise=[1.0, 1.0],
            max_power=[1.0, 1.0],
            gains=[[1.0, 1.0], [1.0, 1.0]],
        )
        with pytest.raises(ValueError):
            classify_region_2x2(game)


class TestBoundaryMargin:
    def test_exact_boundary_game_has_zero_margin(self):
        # g11/g12 = 2 equals 1 + SNR*g21 = 2 exactly at SNR 1.
        game = GameSpec.symmetric([[2.0, 1.0], [1.0, 1.0]], p_max=1.0, noise_var=1.0)
        assert boundary_margin_2x2(game) == 0.0

    def test_generic_game_has_positive_margin(self, worked_mixed_game):
        assert boundary_margin_2x2(worked_mixed_game) > 0.1


class TestMixedNE:
    def test_fully_symmetric_game_is_exactly_half(self, strong_interference_game):
        mixed = mixed_ne_2x2(strong_interference_game)
        assert mixed.tolist() == [[0.5, 0.5], [0.5, 0.5]]

    def test_worked_example_probabilities(self, worked_mixed_game):
        mixed = mixed_ne_2x2(worked_mixed_game)
        # Recompute the closed form straight from potential differences.
        phi11 = potential(worked_mixed_game, (0, 0))
        phi12 = potential(worked_mixed_game, (0, 1))
        phi21 = potential(worked_mixed_game, (1, 0))
        phi22 = potential(worked_mixed_game, (1, 1))
        denom = (phi21 - phi22) + (phi12 - phi11)
        expected = [
            [(phi21 - phi22) / denom, (phi12 - phi11) / denom],
            [(phi12 - phi22) / denom, (phi21 - phi11) / denom],
        ]
        np.testing.assert_allclose(mixed, expected, rtol=0, atol=1e-15)
        # Frozen decimal values, derived by hand for this parameter set.
        np.testing.assert_allclose(
            mixed,
            [[0.28613001, 0.71386999], [0.71386999, 0.28613001]],
            rtol=0,
            atol=1e-8,
        )

    def test_rows_are_distributions(self):
        rng = np.random.default_rng(53)
        found = 0
        while found < 100:
            game = random_symmetric_2x2(rng)
            if classify_region_2x2(game) != {"H1", "H4"}:
                continue
            found += 1
            mixed = mixed_ne_2x2(game)
            np.testing.assert_allclose(mixed.sum(axis=1), [1.0, 1.0], rtol=0, atol=1e-12)
            assert np.all(mixed > 0) and np.all(mixed < 1)

    def test_each_player_is_indifferent(self, worked_mixed_game):
        mixed = mixed_ne_2x2(worked_mixed_game)
        for k in range(2):
            opponent = mixed[1 - k]
            u0 = expected_utility(worked_mixed_game, k, 0, opponent)
            u1 = expected_utility(worked_mixed_game, k, 1, opponent)
            assert u0 == pytest.approx(u1, abs=1e-9)

    def test_indifference_on_random_games(self):
        rng = np.random.default_rng(59)
        found = 0
        while found < 100:
            game = random_symmetric_2x2(rng)
            if classify_region_2x2(game) != {"H1", "H4"}:
                continue
            found += 1
            mixed = mixed_ne_2x2(game)
            for k in range(2):
                u0 = expected_utility(game, k, 0, mixed[1 - k])
                u1 = expected_utility(game, k, 1, mixed[1 - k])
                assert u0 == pytest.approx(u1, abs=1e-9)

    def test_refuses_single_region_game(self, unique_ne_game):
        with pytest.raises(ValueError, match="regions found"):
            mixed_ne_2x2(unique_ne_game)


class TestAnalyzeGame:
    def test_worked_example_report(self, worked_mixed_game):
        report = analyze_game(worked_mixed_game)
        assert report.pure_ne == ((0, 1), (1, 0))
        assert report.regions == {"H1", "H4"}
        assert report.mixed_ne is not None
        assert report.utilities.shape == (2, 2)
        for i, profile in enumerate(report.pure_ne):
            for k in range(2):
                assert report.utilities[i, k] == utility(worked_mixed_game, profile, k)
            assert report.potentials[i] == potential(worked_mixed_game, profile)

    def test_single_region_report_has_no_mixed_point(self, unique_ne_game):
        report = analyze_game(unique_ne_game)
        assert report.pure_ne == ((0, 1),)
        assert report.regions == {"H1"}
        assert report.mixed_ne is None

    def test_generic_game_report_skips_region_analysis(self):
        rng = np.random.default_rng(61)
        game = random_game(rng, 3, 3)
        report = analyze_game(game)
        assert report.regions is None
        assert report.mixed_ne is None
        assert len(report.pure_ne) >= 1

    def test_report_arrays_are_read_only(self, worked_mixed_game, unique_ne_game):
        reports = analyze_game([worked_mixed_game, unique_ne_game])
        for report in reports:
            for arr in (report.utilities, report.potentials):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 99.0
        with pytest.raises(ValueError, match="read-only"):
            reports[0].mixed_ne[1, 0] = 99.0
        with pytest.raises(ValueError, match="read-only"):
            analyze_game(worked_mixed_game).utilities[1, 0] = 99.0

    def test_to_dict_is_json_friendly(self, worked_mixed_game):
        import json

        payload = analyze_game(worked_mixed_game).to_dict()
        assert payload["regions"] == ["H1", "H4"]
        assert payload["pure_ne"] == [[0, 1], [1, 0]]
        json.dumps(payload)


def _same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _assert_same_report(report: EquilibriumReport, oracle: EquilibriumReport) -> None:
    assert report.pure_ne == oracle.pure_ne
    assert _same_array(report.utilities, oracle.utilities)
    assert _same_array(report.potentials, oracle.potentials)
    assert (report.mixed_ne is None) == (oracle.mixed_ne is None)
    if oracle.mixed_ne is not None:
        assert _same_array(report.mixed_ne, oracle.mixed_ne)
    assert report.regions == oracle.regions


def _outcome(fn, game):
    """``fn(game)``, or the message of the ValueError it raises."""
    try:
        return fn(game)
    except ValueError as exc:
        return str(exc)


def _special_2x2_games() -> dict[str, GameSpec]:
    ones = [[1.0, 1.0], [1.0, 1.0]]
    return {
        # Both orthogonal profiles stable, mixed point exactly (0.5, 0.5).
        "fully symmetric": GameSpec.symmetric(ones, p_max=10.0),
        # Two pure equilibria, but potential differences of order 1e-14.
        "degenerate denominator": GameSpec.symmetric(ones, p_max=1e-7),
        # g11/g12 = 1 + SNR*g21: the mixed point has a 0 and a 1.
        "non-interior": GameSpec.symmetric([[2.0, 1.0], [1.0, 1.0]], p_max=1.0),
        # Payoff ties everywhere: all four profiles are equilibria.
        "all-ones ties": GameSpec.symmetric(ones, p_max=1e-9),
        # H1, H3 and H4 with three pure equilibria; the point is not interior.
        "three equilibria": GameSpec.symmetric([[0.25, 1.0], [1.5, 3.0]], p_max=1.0),
        "unequal bandwidths": GameSpec(bandwidths=[1.0, 2.0], noise=[1.0, 1.0],
                                       max_power=[3.0, 3.0], gains=[[1.0, 0.5], [0.4, 1.2]]),
        "unequal noise": GameSpec(bandwidths=[1.0, 1.0], noise=[1.0, 0.5],
                                  max_power=[3.0, 3.0], gains=[[1.0, 0.5], [0.4, 1.2]]),
        "unequal budgets": GameSpec(bandwidths=[1.0, 1.0], noise=[1.0, 1.0],
                                    max_power=[3.0, 2.0], gains=[[1.0, 0.5], [0.4, 1.2]]),
        "zero gain": GameSpec.symmetric([[1.0, 0.0], [0.4, 1.2]], p_max=3.0),
        "zero gains": GameSpec.symmetric([[0.0, 0.0], [0.0, 0.0]], p_max=3.0),
    }


class TestBatchedAnalysisAgainstOracle:
    """The batched analysis equals the per-game oracle bit for bit, whether
    games come as a batch or one at a time."""

    def _check(self, games: list[GameSpec]) -> list[EquilibriumReport]:
        oracles = [oracle_analyze_game(g) for g in games]
        for report, oracle in zip(analyze_game(games), oracles):
            _assert_same_report(report, oracle)
        for game, oracle in zip(games, oracles):
            _assert_same_report(analyze_game(game), oracle)
        return oracles

    @pytest.mark.parametrize("n_players", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_channels", [1, 2, 3, 4])
    def test_every_small_shape(self, n_players, n_channels):
        rng = np.random.default_rng(1000 + 10 * n_players + n_channels)
        games = [random_game(rng, n_players, n_channels) for _ in range(5)]
        ones = np.ones((n_players, n_channels))
        games.append(GameSpec.symmetric(ones, p_max=1.0))  # payoff ties
        games.append(GameSpec.symmetric(ones * (rng.random(ones.shape) < 0.5), p_max=2.0))
        self._check(games)

    def test_symmetric_2x2_games(self):
        rng = np.random.default_rng(67)
        games = [random_symmetric_2x2(rng, snr) for snr in (0.1, 1.0, 10.0, 100.0)
                 for _ in range(60)]
        oracles = self._check(games)
        assert sum(o.mixed_ne is not None for o in oracles) > 30

    def test_special_2x2_games_alone_and_together(self):
        special = _special_2x2_games()
        oracles = dict(zip(special, self._check(list(special.values()))))
        assert oracles["fully symmetric"].mixed_ne.tolist() == [[0.5, 0.5], [0.5, 0.5]]
        for name in ("degenerate denominator", "non-interior"):
            assert len(oracles[name].pure_ne) == 2
            assert oracles[name].regions == {"H1", "H4"}
            assert oracles[name].mixed_ne is None
        assert len(oracles["all-ones ties"].pure_ne) == 4
        assert len(oracles["three equilibria"].pure_ne) == 3
        assert oracles["three equilibria"].mixed_ne is None
        for name in ("unequal bandwidths", "unequal noise", "unequal budgets", "zero gain",
                     "zero gains"):
            assert oracles[name].regions is None
        # Mixed into a batch of ordinary games, each keeps its own result.
        rng = np.random.default_rng(71)
        games = [random_symmetric_2x2(rng) for _ in range(20)] + list(special.values())
        self._check(games[::2] + games[1::2])

    def test_single_game_functions_share_the_batched_rule(self):
        rng = np.random.default_rng(73)
        games = list(_special_2x2_games().values()) + [
            random_symmetric_2x2(rng, snr) for snr in (0.5, 10.0) for _ in range(40)
        ] + [random_game(rng, 3, 2), random_game(rng, 2, 3)]
        for game in games:
            assert enumerate_pure_ne(game) == oracle_enumerate_pure_ne(game)
            for fn, oracle in ((require_symmetric_2x2, oracle_require_symmetric_2x2),
                               (classify_region_2x2, oracle_classify_region_2x2)):
                assert _outcome(fn, game) == _outcome(oracle, game)
            mixed, oracle = _outcome(mixed_ne_2x2, game), _outcome(oracle_mixed_ne_2x2, game)
            if isinstance(oracle, str):
                assert mixed == oracle
            else:
                assert _same_array(mixed, oracle)
        symmetric = [g for g in games if isinstance(_outcome(require_symmetric_2x2, g), float)]
        assert classify_region_2x2(symmetric) == [oracle_classify_region_2x2(g)
                                                  for g in symmetric]

    def test_a_batch_outside_the_2x2_setting_names_its_first_defect(self):
        special = _special_2x2_games()
        games = [special["fully symmetric"], special["unequal noise"], special["zero gain"]]
        with pytest.raises(ValueError, match="^this analysis needs a common noise level$"):
            classify_region_2x2(games)
        assert classify_region_2x2([]) == []

    def test_given_tables_are_used_as_they_are(self, monkeypatch):
        # A batch that already holds its tables, as one a classic run has
        # read, is analyzed over them as they are: nothing is built again.
        rng = np.random.default_rng(79)
        games = [random_game(rng, 3, 3) for _ in range(4)]
        batch = _game_batch(games)[0]
        tables = batch.tables
        assert np.array_equal(tables, np.stack([utility_table(g) for g in games]))
        built = []
        monkeypatch.setattr(game_module, "_utility_tables", built.append)
        for report, game in zip(analyze_game(batch), games):
            _assert_same_report(report, oracle_analyze_game(game))
        assert batch.tables is tables and built == []
        monkeypatch.undo()
        _assert_same_report(analyze_game(games[0]), oracle_analyze_game(games[0]))
        with pytest.raises(ValueError, match="share one"):
            analyze_game([games[0], random_game(rng, 2, 3)])
        assert analyze_game([]) == []


positive = st.floats(0.05, 50.0, allow_nan=False, allow_infinity=False)


@st.composite
def symmetric_games(draw):
    gains = [[draw(positive), draw(positive)], [draw(positive), draw(positive)]]
    p_max = draw(st.floats(0.1, 100.0, allow_nan=False, allow_infinity=False))
    return GameSpec.symmetric(gains, p_max=p_max, noise_var=1.0)


@settings(deadline=None, max_examples=200)
@given(symmetric_games())
def test_property_every_symmetric_game_falls_in_some_region(game):
    assert len(classify_region_2x2(game)) >= 1


@settings(deadline=None, max_examples=200)
@given(symmetric_games())
def test_property_region_profiles_are_equilibria_off_boundary(game):
    if boundary_margin_2x2(game) <= 1e-9:
        return
    assert region_ne_profiles(classify_region_2x2(game)) == enumerate_pure_ne(game)
