"""Game model: parameter validation, payoffs, aggregates, and the potential."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csgame import (
    BeliefState,
    GameSpec,
    MAX_ENUM_PROFILES,
    MAX_OPPONENT_PROFILES,
    aggregate_message,
    aggregated_utility,
    expected_utility,
    fp_best_response,
    potential,
    potential_table,
    utility,
    utility_table,
)
from csgame.dynamics import _Aggregation
from csgame.game import _aggregates, _Batch, _game_stack, _payoffs, _potentials, _utility_tables
from _oracles import (
    _oracle_scores,
    oracle_aggregate_message,
    oracle_aggregates,
    oracle_expected_utility,
    oracle_potential,
    oracle_utility,
)
from conftest import random_game


class TestGameSpec:
    def test_dimensions_and_derived_quantities(self, unit_game):
        assert unit_game.K == 2
        assert unit_game.S == 2
        assert unit_game.total_bandwidth == 2.0
        np.testing.assert_array_equal(unit_game.weights, [0.5, 0.5])
        np.testing.assert_array_equal(unit_game.received_power, [[1.0, 1.0], [1.0, 1.0]])

    def test_weights_sum_to_one(self):
        game = GameSpec(
            bandwidths=[1.0, 3.0, 6.0],
            noise=[1.0, 1.0, 1.0],
            max_power=[2.0],
            gains=[[1.0, 1.0, 1.0]],
        )
        np.testing.assert_allclose(game.weights, [0.1, 0.3, 0.6], rtol=0, atol=0)
        assert game.weights.sum() == 1.0

    def test_received_power_is_power_times_gain(self):
        game = GameSpec(
            bandwidths=[1.0, 1.0],
            noise=[1.0, 1.0],
            max_power=[2.0, 4.0],
            gains=[[1.0, 0.5], [0.25, 1.0]],
        )
        np.testing.assert_array_equal(game.received_power, [[2.0, 1.0], [1.0, 4.0]])

    def test_arrays_are_read_only(self, unit_game):
        for arr in (unit_game.bandwidths, unit_game.noise, unit_game.max_power,
                    unit_game.gains, unit_game.weights, unit_game.received_power):
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 9.9
        # A game built from a caller's float64 arrays owns copies of them: a
        # later write does not reach it, and the caller's arrays stay writable.
        inputs = {"bandwidths": np.ones(2), "noise": np.ones(2),
                  "max_power": np.full(2, 3.0), "gains": np.ones((2, 2))}
        game = GameSpec(**inputs)
        for arr in inputs.values():
            arr[(0,) * arr.ndim] = 100.0
        assert game.to_dict() == GameSpec.symmetric(np.ones((2, 2)), p_max=3.0).to_dict()
        assert game.weights.tolist() == [0.5, 0.5]
        assert game.received_power.tolist() == [[3.0, 3.0], [3.0, 3.0]]

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("bandwidths", [1.0, 0.0], "bandwidths must be positive"),
            ("noise", [1.0, -1.0], "noise must be positive"),
            ("noise", [1.0, 0.0], "noise must be positive"),
            ("max_power", [0.0, 1.0], "max_power must be positive"),
            ("gains", [[1.0, 1.0], [1.0, -2.0]], "gains must be finite and non-negative"),
        ],
    )
    def test_rejects_non_positive_parameters(self, field, value, message):
        kwargs = dict(
            bandwidths=[1.0, 1.0],
            noise=[1.0, 1.0],
            max_power=[1.0, 1.0],
            gains=[[1.0, 1.0], [1.0, 1.0]],
        )
        kwargs[field] = value
        with pytest.raises(ValueError, match=message):
            GameSpec(**kwargs)

    def test_a_stack_is_checked_as_each_game_alone(self):
        # A stack names its first failing game with the first need that game
        # fails alone (game 1 fails the noise and the gain needs, game 2 the
        # bandwidth need); games of a valid stack equal single games, and
        # are rows of the stacks their batch keeps.
        rng = np.random.default_rng(5)
        stacks = [rng.uniform(0.5, 2.0, shape) for shape in ((3, 2), (3, 2), (3, 2), (3, 2, 2))]
        bad = [a.copy() for a in stacks]
        bad[1][1, 0] = 0.0
        bad[3][1, 1, 0] = -1.0
        bad[0][2, 1] = np.inf
        with pytest.raises(ValueError, match="^game 1: noise must be positive$"):
            _game_stack(*bad, name=lambda g: f"game {g}: ")
        with pytest.raises(ValueError, match="noise must be positive"):
            GameSpec(*(a[1] for a in bad))
        batch = _game_stack(*stacks)
        assert isinstance(batch, _Batch)
        assert batch.stacks["gains"] is stacks[3]
        for g, (stacked, *arrays) in enumerate(zip(batch, *stacks)):
            alone = GameSpec(*arrays)
            for name in ("bandwidths", "noise", "max_power", "gains", "weights",
                         "received_power"):
                assert getattr(stacked, name).tobytes() == getattr(alone, name).tobytes()
                assert not getattr(stacked, name).flags.writeable
            for key, stack in batch.stacks.items():
                assert np.shares_memory(getattr(stacked, key), stack)
                assert getattr(stacked, key).tobytes() == stack[g].tobytes()

    def test_rejects_mismatched_gain_shape(self):
        # Channel count is taken from the gain matrix, so the bandwidth
        # vector is what gets flagged.
        with pytest.raises(ValueError, match="bandwidths must have length"):
            GameSpec(
                bandwidths=[1.0, 1.0],
                noise=[1.0, 1.0, 1.0],
                max_power=[1.0, 1.0],
                gains=[[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]],
            )

    def test_rejects_gains_of_more_than_two_axes(self):
        with pytest.raises(ValueError, match=r"gains must be a 2-d array of shape \(K, S\)"):
            GameSpec(bandwidths=[1.0, 1.0], noise=[1.0, 1.0], max_power=[1.0, 1.0],
                     gains=np.ones((2, 2, 1)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            GameSpec(
                bandwidths=[1.0, 1.0],
                noise=[1.0, math.inf],
                max_power=[1.0, 1.0],
                gains=[[1.0, 1.0], [1.0, 1.0]],
            )

    def test_symmetric_constructor(self):
        game = GameSpec.symmetric([[1.0, 2.0], [3.0, 4.0]], p_max=10.0, noise_var=0.5)
        np.testing.assert_array_equal(game.bandwidths, [1.0, 1.0])
        np.testing.assert_array_equal(game.noise, [0.5, 0.5])
        np.testing.assert_array_equal(game.max_power, [10.0, 10.0])
        np.testing.assert_array_equal(game.gains, [[1.0, 2.0], [3.0, 4.0]])

    def test_dict_round_trip(self):
        rng = np.random.default_rng(0)
        game = random_game(rng, 3, 2)
        clone = GameSpec.from_dict(game.to_dict())
        np.testing.assert_array_equal(clone.bandwidths, game.bandwidths)
        np.testing.assert_array_equal(clone.noise, game.noise)
        np.testing.assert_array_equal(clone.max_power, game.max_power)
        np.testing.assert_array_equal(clone.gains, game.gains)


class TestUtility:
    def test_alone_on_channel(self, unit_game):
        # SNR 1, alone: 0.5 * log2(1 + 1/1)
        assert utility(unit_game, (0, 1), 0) == pytest.approx(0.5, abs=1e-15)
        assert utility(unit_game, (0, 1), 1) == pytest.approx(0.5, abs=1e-15)

    def test_shared_channel(self, unit_game):
        # Interference 1 on top of noise 1: 0.5 * log2(1 + 1/2)
        expected = 0.5 * math.log2(1.5)
        assert utility(unit_game, (0, 0), 0) == pytest.approx(expected, abs=1e-15)
        assert utility(unit_game, (1, 1), 1) == pytest.approx(expected, abs=1e-15)

    def test_matches_oracle_on_random_games(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n_players = int(rng.integers(1, 5))
            n_channels = int(rng.integers(2, 5))
            game = random_game(rng, n_players, n_channels)
            profile = rng.integers(0, n_channels, n_players)
            for k in range(n_players):
                reference = oracle_utility(
                    game.bandwidths.tolist(), game.noise.tolist(),
                    game.max_power.tolist(), game.gains.tolist(),
                    profile.tolist(), k,
                )
                assert utility(game, profile, k) == pytest.approx(reference, abs=1e-12)

    def test_single_player(self):
        game = GameSpec(bandwidths=[1.0, 1.0], noise=[1.0, 0.5],
                        max_power=[2.0], gains=[[1.0, 1.0]])
        assert utility(game, [1], 0) == pytest.approx(0.5 * math.log2(5.0), abs=1e-15)

    def test_player_index_out_of_range(self, unit_game):
        with pytest.raises(IndexError):
            utility(unit_game, (0, 1), 2)
        with pytest.raises(IndexError):
            utility(unit_game, (0, 1), -1)

    def test_rejects_bad_profiles(self, unit_game):
        with pytest.raises(ValueError, match="integer"):
            utility(unit_game, (0.5, 1.0), 0)
        with pytest.raises(ValueError, match="one channel per player"):
            utility(unit_game, (0, 1, 0), 0)
        with pytest.raises(ValueError, match="channel indices"):
            utility(unit_game, (0, 2), 0)


# A fractional player or channel index was once truncated (or, in
# aggregated_utility, refused by numpy's indexing) instead of rejected.
@pytest.mark.parametrize("call, error, message", [
    (lambda g: utility(g, (0, 1), 1.5), TypeError, "player index must be an integer"),
    (lambda g: fp_best_response(g, 1.5, BeliefState.uniform(2, 2)), TypeError,
     "player index must be an integer"),
    (lambda g: expected_utility(g, 0, 1.5, [0.5, 0.5]), ValueError,
     "channel indices must be integers"),
    (lambda g: aggregated_utility(g, 0, 1.5, [2.0, 2.0]), ValueError,
     "channel indices must be integers"),
    (lambda g: utility(g, (0, 1), True), TypeError, "player index must be an integer, got True"),
    (lambda g: fp_best_response(g, True, BeliefState.uniform(2, 2)), TypeError,
     "player index must be an integer, got True"),
], ids=["utility", "fp_best_response", "expected_utility", "aggregated_utility",
        "utility-bool", "fp_best_response-bool"])
def test_non_integer_indices_are_rejected(unit_game, call, error, message):
    with pytest.raises(error, match=message):
        call(unit_game)


def test_numpy_integer_indices_are_accepted(worked_mixed_game):
    game, gamma = worked_mixed_game, aggregate_message(worked_mixed_game, (0, 1))
    assert utility(game, (0, 1), np.int32(1)) == utility(game, (0, 1), 1)
    assert (expected_utility(game, np.int64(0), np.uint8(1), [0.25, 0.75])
            == expected_utility(game, 0, 1, [0.25, 0.75]))
    assert (aggregated_utility(game, np.int16(1), np.int64(1), gamma)
            == aggregated_utility(game, 1, 1, gamma))
    assert (fp_best_response(game, np.int8(1), BeliefState.uniform(2, 2))
            == fp_best_response(game, 1, BeliefState.uniform(2, 2)))


class TestAggregateAndPotential:
    def test_aggregate_message_values(self, unit_game):
        np.testing.assert_array_equal(aggregate_message(unit_game, (0, 0)), [3.0, 1.0])
        np.testing.assert_array_equal(aggregate_message(unit_game, (1, 1)), [1.0, 3.0])
        np.testing.assert_array_equal(aggregate_message(unit_game, (0, 1)), [2.0, 2.0])

    def test_potential_values(self, unit_game):
        assert potential(unit_game, (0, 0)) == pytest.approx(0.5 * math.log2(3.0), abs=1e-15)
        assert potential(unit_game, (0, 1)) == pytest.approx(1.0, abs=1e-15)

    def test_potential_matches_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n_players = int(rng.integers(1, 5))
            n_channels = int(rng.integers(2, 5))
            game = random_game(rng, n_players, n_channels)
            profile = rng.integers(0, n_channels, n_players).tolist()
            reference = oracle_potential(
                game.bandwidths.tolist(), game.noise.tolist(),
                game.max_power.tolist(), game.gains.tolist(), profile,
            )
            assert potential(game, profile) == pytest.approx(reference, abs=1e-12)

    def test_unilateral_deviation_equals_utility_change(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n_players = int(rng.integers(2, 5))
            n_channels = int(rng.integers(2, 5))
            game = random_game(rng, n_players, n_channels)
            profile = rng.integers(0, n_channels, n_players)
            player = int(rng.integers(n_players))
            deviated = profile.copy()
            deviated[player] = rng.integers(n_channels)
            du = utility(game, deviated, player) - utility(game, profile, player)
            dphi = potential(game, deviated) - potential(game, profile)
            assert du == pytest.approx(dphi, abs=1e-9)


class TestAggregatedUtility:
    def test_reconstructs_utility_from_aggregate(self, unit_game):
        for profile in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            gamma = aggregate_message(unit_game, profile)
            for k in range(2):
                assert aggregated_utility(unit_game, k, profile[k], gamma) == pytest.approx(
                    utility(unit_game, profile, k), abs=1e-12
                )

    def test_unused_channel_entries_are_irrelevant(self, unit_game):
        gamma = aggregate_message(unit_game, (0, 0))
        tampered = gamma.copy()
        tampered[1] = 123.0
        assert aggregated_utility(unit_game, 0, 0, tampered) == aggregated_utility(
            unit_game, 0, 0, gamma
        )

    def test_inconsistent_aggregate_raises(self, unit_game):
        # Own received power is 1 but the reported aggregate is only 0.5.
        with pytest.raises(ValueError, match="inconsistent"):
            aggregated_utility(unit_game, 0, 0, [0.5, 1.0])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_aggregate_on_the_own_channel_raises(self, value):
        # Unchecked, nan would come back as the payoff and inf as 0.0; on
        # another channel the entry stays irrelevant.
        game = GameSpec.symmetric([[1, .5], [.7, 1]], p_max=10)
        with pytest.raises(ValueError, match="finite on the player's channel"):
            aggregated_utility(game, 0, 0, [value, 1.0])
        assert aggregated_utility(game, 0, 1, [value, 6.0]) == aggregated_utility(
            game, 0, 1, [1.0, 6.0])

    def test_bad_arguments(self, unit_game):
        with pytest.raises(ValueError, match="channel indices"):
            aggregated_utility(unit_game, 0, 2, [1.0, 1.0])
        with pytest.raises(ValueError, match="length"):
            aggregated_utility(unit_game, 0, 0, [1.0, 1.0, 1.0])
        with pytest.raises(IndexError):
            aggregated_utility(unit_game, 5, 0, [2.0, 2.0])


class TestExpectedUtility:
    def test_hand_computed_values(self, unit_game):
        shared = 0.5 * math.log2(1.5)
        alone = 0.5
        assert expected_utility(unit_game, 0, 0, [0.75, 0.25]) == pytest.approx(
            0.75 * shared + 0.25 * alone, abs=1e-15
        )
        assert expected_utility(unit_game, 0, 0, [0.5, 0.5]) == pytest.approx(
            0.5 * (shared + alone), abs=1e-15
        )

    def test_point_mass_reproduces_pure_utility_exactly(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            game = random_game(rng, 3, 3)
            profile = rng.integers(0, 3, 3)
            dist = np.zeros((3, 3))
            dist[profile[1], profile[2]] = 1.0
            assert expected_utility(game, 0, int(profile[0]), dist) == utility(
                game, profile, 0
            )

    def test_single_player_scalar_distribution(self):
        game = GameSpec(bandwidths=[1.0, 1.0], noise=[1.0, 1.0],
                        max_power=[1.0], gains=[[1.0, 1.0]])
        assert expected_utility(game, 0, 0, [1.0]) == utility(game, [0], 0)

    def test_rejects_bad_distributions(self, unit_game):
        with pytest.raises(ValueError, match="sum to 1"):
            expected_utility(unit_game, 0, 0, [0.6, 0.6])
        with pytest.raises(ValueError, match="sum to 1"):
            expected_utility(unit_game, 0, 0, [np.nan, np.nan])
        with pytest.raises(ValueError, match="non-negative"):
            expected_utility(unit_game, 0, 0, [1.5, -0.5])
        with pytest.raises(ValueError, match="entries"):
            expected_utility(unit_game, 0, 0, [0.5, 0.25, 0.25])

    def test_matches_the_scalar_loop_bit_for_bit(self):
        # Every player and own channel of seeded games with K 1-6 and S 1-4,
        # against sparse, point-mass and (up to 3 players) dense distributions.
        rng = np.random.default_rng(30)
        for n_players in range(1, 7):
            for n_channels in range(1, 5):
                game = random_game(rng, n_players, n_channels)
                size = n_channels ** (n_players - 1)
                for k in range(n_players):
                    for s in range(n_channels):
                        sparse = rng.random(size) * (rng.random(size) < 0.3)
                        sparse[rng.integers(size)] += 0.5
                        point = np.zeros(size)
                        point[rng.integers(size)] = 1.0
                        dists = [sparse / sparse.sum(), point]
                        if n_players <= 3:
                            dense = rng.random(size)
                            dists.append(dense / dense.sum())
                        for dist in dists:
                            assert (expected_utility(game, k, s, dist).hex()
                                    == oracle_expected_utility(game, k, s, dist).hex())

    def test_only_the_opponent_guard_applies(self):
        # 100**4 profiles exceed the full-enumeration guard; 100**3 opponent
        # profiles do not exceed the opponent guard.
        game = random_game(np.random.default_rng(4), 4, 100)
        assert game.S ** game.K > MAX_ENUM_PROFILES
        assert game.S ** (game.K - 1) == MAX_OPPONENT_PROFILES
        dist = np.zeros((100,) * 3)
        dist[7, 7, 42] = 1.0
        assert expected_utility(game, 1, 7, dist) == utility(game, [7, 7, 7, 42], 1)

    def test_enumeration_guard(self):
        game = GameSpec(
            bandwidths=[1.0, 1.0],
            noise=[1.0, 1.0],
            max_power=[1.0] * 21,
            gains=[[1.0, 1.0]] * 21,
        )
        assert game.S ** (game.K - 1) > MAX_OPPONENT_PROFILES
        with pytest.raises(ValueError, match="enumeration guard"):
            expected_utility(game, 0, 0, np.full(2 ** 20, 2.0 ** -20))


class TestTables:
    def test_tables_match_scalar_functions(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n_players = int(rng.integers(1, 4))
            n_channels = int(rng.integers(2, 4))
            game = random_game(rng, n_players, n_channels)
            u_table = utility_table(game)
            p_table = potential_table(game)
            assert u_table.shape == (n_players,) + (n_channels,) * n_players
            assert p_table.shape == (n_channels,) * n_players
            for profile in np.ndindex(*(n_channels,) * n_players):
                for k in range(n_players):
                    assert u_table[(k, *profile)] == utility(game, profile, k)
                assert p_table[profile] == potential(game, profile)

    @pytest.mark.parametrize("n_players, n_channels",
                             [(k, s) for s in (1, 2, 3) for k in range(1, 9)]
                             + [(k, 4) for k in range(1, 7)])
    def test_per_profile_rules_match_the_stacked_tables(self, n_players, n_channels):
        # The analysis reports each pure equilibrium's payoffs and potential,
        # and a sweep each cycle's payoffs, with the per-profile rules, not
        # off the stacked tables: at every profile of every game of a stack
        # they give the tables' bits. Parameters span several decades, and
        # some gains are exactly 0.
        rng = np.random.default_rng(100 * n_players + n_channels)
        gains = rng.exponential(1.0, (3, n_players, n_channels))
        gains[rng.random(gains.shape) < 0.3] = 0.0
        batch = _Batch([GameSpec(bandwidths=10 ** rng.uniform(-1, 1, n_channels),
                                 noise=10 ** rng.uniform(-3, 2, n_channels),
                                 max_power=10 ** rng.uniform(-3, 6, n_players), gains=g)
                        for g in gains])
        profiles = np.indices((n_channels,) * n_players).reshape(n_players, -1).T
        at = np.repeat(np.arange(len(batch)), len(profiles))
        channels = np.tile(profiles, (len(batch), 1))
        noise, received, weights = batch.rows(at)
        payoffs = _payoffs(noise, received, weights, channels)
        potentials = _potentials(weights, _aggregates(noise, received, channels)[0])
        tables = np.moveaxis(_utility_tables(batch), 1, -1).reshape(len(at), n_players)
        assert np.array_equal(payoffs.view(np.int64), tables.view(np.int64))
        assert np.array_equal(potentials.view(np.int64),
                              potential_table(batch).reshape(-1).view(np.int64))

    def test_enumeration_guard(self):
        game = GameSpec(
            bandwidths=[1.0, 1.0],
            noise=[1.0, 1.0],
            max_power=[1.0] * 25,
            gains=[[1.0, 1.0]] * 25,
        )
        assert game.S ** game.K > MAX_ENUM_PROFILES
        with pytest.raises(ValueError, match="enumeration guard"):
            utility_table(game)
        with pytest.raises(ValueError, match="enumeration guard"):
            potential_table(game)

    def test_potential_table_needs_a_game(self):
        with pytest.raises(ValueError, match="need at least one game"):
            potential_table([])


positive = st.floats(0.05, 50.0, allow_nan=False, allow_infinity=False)


@st.composite
def games_with_deviation(draw):
    n_players = draw(st.integers(1, 4))
    n_channels = draw(st.integers(2, 4))
    game = GameSpec(
        bandwidths=draw(st.lists(positive, min_size=n_channels, max_size=n_channels)),
        noise=draw(st.lists(positive, min_size=n_channels, max_size=n_channels)),
        max_power=draw(st.lists(positive, min_size=n_players, max_size=n_players)),
        gains=draw(
            st.lists(
                st.lists(positive, min_size=n_channels, max_size=n_channels),
                min_size=n_players,
                max_size=n_players,
            )
        ),
    )
    profile = tuple(draw(st.integers(0, n_channels - 1)) for _ in range(n_players))
    player = draw(st.integers(0, n_players - 1))
    new_channel = draw(st.integers(0, n_channels - 1))
    return game, profile, player, new_channel


@settings(deadline=None, max_examples=150)
@given(games_with_deviation())
def test_property_potential_tracks_unilateral_deviations(case):
    game, profile, player, new_channel = case
    deviated = list(profile)
    deviated[player] = new_channel
    du = utility(game, deviated, player) - utility(game, profile, player)
    dphi = potential(game, deviated) - potential(game, profile)
    assert du == pytest.approx(dphi, abs=1e-9)


@settings(deadline=None, max_examples=150)
@given(games_with_deviation())
def test_property_aggregate_reconstruction_is_exact(case):
    game, profile, _, _ = case
    gamma = aggregate_message(game, profile)
    for k in range(game.K):
        assert aggregated_utility(game, k, profile[k], gamma) == pytest.approx(
            utility(game, profile, k), abs=1e-12
        )


@settings(deadline=None, max_examples=150)
@given(games_with_deviation())
def test_property_extra_interferer_strictly_hurts(case):
    game, profile, player, _ = case
    if game.K < 2:
        return
    other = (player + 1) % game.K
    apart = list(profile)
    apart[other] = (profile[player] + 1) % game.S
    joined = list(apart)
    joined[other] = profile[player]
    assert utility(game, joined, player) < utility(game, apart, player)


@st.composite
def game_stacks(draw):
    """1-40 games of one shape (1-5 players, 1-4 channels) whose bandwidths,
    noise levels and powers span several decades, some gains exactly 0."""
    n_players, n_channels = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    n_games = draw(st.integers(1, 40))
    zero_share = draw(st.sampled_from([0.0, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gains = rng.exponential(1.0, (n_games, n_players, n_channels))
    gains[rng.random(gains.shape) < zero_share] = 0.0
    return [
        GameSpec(bandwidths=10 ** rng.uniform(-1, 1, n_channels),
                 noise=10 ** rng.uniform(-3, 2, n_channels),
                 max_power=10 ** rng.uniform(-3, 6, n_players), gains=g)
        for g in gains
    ]


@settings(deadline=None, max_examples=100)
@given(game_stacks())
def test_property_stacked_tables_equal_each_games_own(games):
    batch = _Batch(games)
    for stack in (_utility_tables(games), batch.tables):
        assert stack.flags.c_contiguous
        assert stack.shape == (len(games), games[0].K) + (games[0].S,) * games[0].K
        for table, game in zip(stack, games):
            assert np.array_equal(table.view(np.int64), utility_table(game).view(np.int64))
    assert not batch.tables.flags.writeable and batch.tables is batch.tables
    assert utility_table(games[0]).flags.writeable


def test_channel_aggregate_must_be_finite():
    # Each received power is finite, but their sum on channel 0 is not.
    with pytest.raises(ValueError, match="overflows"):
        GameSpec.symmetric([[1.5, 1.0], [1.5, 1.0]], p_max=1e308)
    with pytest.raises(ValueError, match="overflows"):
        GameSpec.symmetric([[1.0, 2.0]], p_max=1e308)
    game = GameSpec.symmetric([[1.0, 0.5], [0.5, 1.0]], p_max=1e308)
    assert np.all(np.isfinite(game.received_power.sum(axis=0) + game.noise))


# Each channel aggregate is finite, yet the payoffs cannot be: the bandwidth
# total overflows, which would make every weight and payoff 0, or one
# received power is infinitely many times its channel's noise, which would
# make a payoff infinite.
@pytest.mark.parametrize("game, message", [
    (dict(bandwidths=[1e308, 1e308], noise=[1.0, 1.0], max_power=[1.0, 1.0],
          gains=[[1.0, 1.0], [1.0, 1.0]]), "bandwidths must have a finite total"),
    (dict(bandwidths=[1.0, 1.0], noise=[1e-300, 1e-300], max_power=[1e300, 1.0],
          gains=[[1.0, 0.0], [0.0, 1.0]]),
     "a received power over its channel's noise must be finite"),
], ids=["bandwidth-total", "received-over-noise"])
def test_payoffs_must_be_finite(game, message):
    with pytest.raises(ValueError, match=message):
        GameSpec(**game)


def test_reconstruction_is_exact_where_the_subtraction_cancels():
    # Player 0 alone on channel 0, with power far above that channel's
    # noise: gamma - own in floats loses the noise's low bits (1.05e-12
    # bits off utility), and the broadcast's rounding residual restores
    # them. The aggregate's value and the potential keep their bits.
    game = GameSpec(bandwidths=[4.0, 1.0], noise=[0.05, 1.0], max_power=[19.0, 19.0],
                    gains=[[27.0, 1.0], [1.0, 1.0]])
    gamma = aggregate_message(game, (0, 1))
    np.testing.assert_array_equal(gamma, [0.05 + 19.0 * 27.0, 1.0 + 19.0])
    for k, channel in enumerate((0, 1)):
        assert aggregated_utility(game, k, channel, gamma) == utility(game, (0, 1), k)
    assert aggregated_utility(game, 0, 0, gamma.tolist()) != utility(game, (0, 1), 0)


@st.composite
def pair_stacks(draw):
    """1-20 games of one shape (1-5 players, 1-4 channels), with noise down
    to 1e-30 and received powers from 1e-6 to 1e10, some gains exactly 0,
    and 1-40 (game, profile) pairs of them, a game's pairs repeating."""
    n_players, n_channels = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    n_games, n_pairs = draw(st.integers(1, 20)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gains = rng.uniform(1.0, 10.0, (n_games, n_players, n_channels))
    gains[rng.random(gains.shape) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    games = [GameSpec(bandwidths=10 ** rng.uniform(-1, 1, n_channels),
                      noise=10 ** rng.uniform(-30, 1, n_channels),
                      max_power=10 ** rng.uniform(-6, 9, n_players), gains=g) for g in gains]
    at = rng.integers(0, n_games, n_pairs)
    return games, at, rng.integers(0, n_channels, (n_pairs, n_players))


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


@settings(deadline=None, max_examples=150)
@given(pair_stacks())
def test_property_a_stack_of_pairs_is_each_pair_alone(case):
    # One batched call over a stack of (game, profile) pairs gives, row by
    # row and bit for bit, the plain TwoSum loop's aggregate and residual,
    # the single pair's potential and payoffs, and the scores the oracle
    # builds from scalar calls.
    games, at, profiles = case
    batch = _Batch(games)
    noise, received, weights = batch.rows(at)
    gammas, residuals = _aggregates(noise, received, profiles)
    potentials = _potentials(weights, gammas)
    payoffs = _payoffs(noise, received, weights, profiles)
    values = _Aggregation(batch, np.zeros(batch.stacks["gains"].shape), 0).values(at, profiles)
    for n, (game, profile) in enumerate(zip([games[g] for g in at], profiles.tolist())):
        gamma = oracle_aggregate_message(game, profile)
        assert np.array_equal(_bits(gammas[n]), _bits(gamma))
        assert np.array_equal(_bits(residuals[n]), _bits(gamma.residual))
        assert np.array_equal(_bits(aggregate_message(game, profile).residual),
                              _bits(gamma.residual))
        assert _bits(potentials[n]) == _bits(potential(game, profile))
        assert np.array_equal(_bits(payoffs[n]),
                              _bits([utility(game, profile, k) for k in range(game.K)]))
        assert np.array_equal(_bits(values[n]), _bits(_oracle_scores(game, profile, gamma)))


def test_the_broadcast_of_a_stack_is_the_scalar_loop():
    # The broadcast updates every profile at once, one player at a time in
    # ascending order, each with TwoSum per (profile, channel): bit for bit
    # the loop over every (profile, player), in values and residuals, on
    # stacks of 1-11 players, 1-4 channels, noise from 1e-30 to 1e2 and
    # received powers from 1e-6 to 1e10. With no profile, each is (0, S),
    # where the loop's array of no lists is (0,).
    rng = np.random.default_rng(34)
    for _ in range(400):
        n_players, n_channels = int(rng.integers(1, 12)), int(rng.integers(1, 5))
        n_profiles = int(rng.integers(1, 40))
        noise = 10 ** rng.uniform(-30, 2, (n_profiles, n_channels))
        received = 10 ** rng.uniform(-6, 10, (n_profiles, n_players, n_channels))
        channels = rng.integers(0, n_channels, (n_profiles, n_players)).astype(
            rng.choice([np.int8, np.int64]))
        for got, want in zip(_aggregates(noise, received, channels),
                             oracle_aggregates(noise, received, channels)):
            assert got.shape == want.shape == (n_profiles, n_channels)
            assert np.array_equal(_bits(got), _bits(want))
    none = _aggregates(np.empty((0, 3)), np.empty((0, 2, 3)), np.empty((0, 2), dtype=np.int8))
    assert [a.shape for a in none] == [(0, 3), (0, 3)]
    assert [a.shape for a in oracle_aggregates(np.empty((0, 3)), np.empty((0, 2, 3)),
                                               np.empty((0, 2), dtype=np.int8))] == [(0,), (0,)]
