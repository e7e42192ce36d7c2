"""Fictitious play: belief arithmetic, both engines, cycles, persistence."""

from __future__ import annotations

import math
import tracemalloc
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

from csgame import (
    TIE_BREAKS,
    BatchFPResult,
    BeliefState,
    GameSpec,
    QState,
    Trajectory,
    aggregate_message,
    aggregated_utility,
    classify_region_2x2,
    cycle_persistence_2x2,
    detect_cycle,
    empirical_frequencies,
    expected_utility,
    fp_best_response,
    load_config,
    potential,
    q_from_beliefs,
    read_trajectory_csv,
    run_aggregation_fp,
    run_fp,
    run_fp_batch_2x2,
    trial_game,
    utility,
    emit_plot_data,
    utility_table,
    write_trajectory_csv,
    write_trajectory_json,
)
from csgame import dynamics
from csgame import game as game_module
from csgame.dynamics import _MAX_T, MAX_PERIOD, _Columns, _smallest_period
from csgame.game import _Batch
from _oracles import (
    oracle_counted_sum,
    oracle_cycle_onset,
    oracle_run_aggregation_fp,
    oracle_run_fp,
    oracle_smallest_period,
    oracle_trajectory_csv,
    oracle_utility,
)
from conftest import random_game, random_symmetric_2x2

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# Potential-difference ratio ~0.894: its 2-cycle from xi = 0.5 persists
# through round 3 and dies at round 4.
NEAR_SYMMETRIC = GameSpec.symmetric([[1.0, 0.9], [0.9, 1.0]], p_max=10.0)


class TestBeliefState:
    def test_uniform(self):
        state = BeliefState.uniform(3, 4)
        assert state.step == 1
        np.testing.assert_array_equal(state.marginals, np.full((3, 4), 0.25))

    def test_from_xi(self):
        state = BeliefState.from_xi([0.5, 0.25])
        np.testing.assert_allclose(
            state.marginals,
            [[1 / 3, 2 / 3], [0.2, 0.8]],
            rtol=0,
            atol=1e-15,
        )
        assert state.step == 1

    def test_from_xi_rejects_out_of_range(self):
        for bad in ([0.0, 0.5], [1.0, 0.5], [-0.1, 0.5], [np.nan, 0.5]):
            with pytest.raises(ValueError, match="strictly between"):
                BeliefState.from_xi(bad)

    def test_point_mass(self):
        state = BeliefState.point_mass([2, 0], 3)
        np.testing.assert_array_equal(state.marginals, [[0, 0, 1], [1, 0, 0]])
        with pytest.raises(ValueError, match=r"must lie in \[0, 2\)"):
            BeliefState.point_mass([-1, 0], 2)
        with pytest.raises(ValueError, match="must be integers"):
            BeliefState.point_mass([0.7, 1.2], 2)

    def test_validation(self):
        with pytest.raises(ValueError, match="step"):
            BeliefState(step=0, marginals=[[0.5, 0.5]])
        with pytest.raises(ValueError, match="sum to 1"):
            BeliefState(step=1, marginals=[[0.6, 0.6]])
        with pytest.raises(ValueError, match="non-negative"):
            BeliefState(step=1, marginals=[[1.5, -0.5]])
        for bad in ([[np.nan, np.nan]], [[np.nan, 1.0]], [[np.inf, 0.0]]):
            with pytest.raises(ValueError, match="finite and non-negative"):
                BeliefState(step=1, marginals=bad)

    def test_marginals_read_only(self):
        state = BeliefState.uniform(2, 2)
        with pytest.raises(ValueError):
            state.marginals[0, 0] = 1.0
        # A caller's array is copied: a later write does not reach the state,
        # and the caller's array stays writable.
        marginals = np.full((2, 2), 0.5)
        state = BeliefState(step=1, marginals=marginals)
        marginals[0] = [1.0, 0.0]
        assert state.marginals.tolist() == [[0.5, 0.5], [0.5, 0.5]]


class TestQState:
    def test_zeros_is_a_cold_start(self):
        state = QState.zeros(2, 3)
        assert state.step == 0
        np.testing.assert_array_equal(state.q, np.zeros((2, 3)))

    def test_q_read_only(self):
        state = QState.zeros(2, 2)
        with pytest.raises(ValueError):
            state.q[0, 0] = 1.0
        # A caller's array is copied: a later write does not reach the state,
        # and the caller's array stays writable.
        q = np.full((2, 2), 0.25)
        state = QState(step=3, q=q)
        q[0] = [1.0, 0.0]
        assert state.q.tolist() == [[0.25, 0.25], [0.25, 0.25]]

    def test_validation(self):
        with pytest.raises(ValueError, match="step"):
            QState(step=-1, q=[[0.0, 0.0]])
        with pytest.raises(ValueError, match="finite and non-negative"):
            QState(step=0, q=[[0.1, -0.2]])
        with pytest.raises(ValueError, match="finite and non-negative"):
            QState(step=0, q=[[0.1, math.nan]])


class TestBestResponse:
    def test_against_point_mass(self, unit_game):
        # Opponent certainly on channel 0: going alone on 1 beats sharing 0.
        beliefs = BeliefState.point_mass([0, 0], 2)
        assert fp_best_response(unit_game, 0, beliefs) == 1
        beliefs = BeliefState.point_mass([1, 1], 2)
        assert fp_best_response(unit_game, 0, beliefs) == 0

    def test_tie_breaking(self, strong_interference_game):
        # Fully symmetric game under uniform beliefs: both channels tie.
        beliefs = BeliefState.uniform(2, 2)
        assert fp_best_response(strong_interference_game, 0, beliefs, "lowest") == 0
        assert fp_best_response(strong_interference_game, 0, beliefs, "highest") == 1

    def test_single_player(self):
        game = GameSpec(
            bandwidths=[1.0, 1.0],
            noise=[1.0, 0.1],
            max_power=[1.0],
            gains=[[1.0, 1.0]],
        )
        assert fp_best_response(game, 0, BeliefState.uniform(1, 2)) == 1

    def test_matches_expected_utility_argmax(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            game = random_symmetric_2x2(rng)
            marginals = rng.dirichlet(np.ones(2), size=2)
            beliefs = BeliefState(step=3, marginals=marginals)
            reply = fp_best_response(game, 0, beliefs)
            values = [expected_utility(game, 0, s, marginals[1]) for s in range(2)]
            assert values[reply] == max(values)

    def test_enumeration_guard(self):
        game = GameSpec(
            bandwidths=[1.0, 1.0],
            noise=[1.0, 1.0],
            max_power=[1.0] * 21,
            gains=[[1.0, 1.0]] * 21,
        )
        with pytest.raises(ValueError, match="enumeration guard"):
            fp_best_response(game, 0, BeliefState.uniform(21, 2))


class TestRunFP:
    def test_validation(self, unit_game):
        with pytest.raises(ValueError, match="T must be"):
            run_fp(unit_game, T=0)
        with pytest.raises(ValueError, match="tie_break"):
            run_fp(unit_game, T=1, tie_break="random")
        with pytest.raises(ValueError, match="shape"):
            run_fp(unit_game, BeliefState.uniform(3, 2), T=1)

    def test_converges_to_unique_equilibrium(self, unique_ne_game):
        traj = run_fp(unique_ne_game, T=500)
        assert tuple(traj.profiles[-1]) == (0, 1)
        # Once reached, the profile never changes again.
        hits = np.flatnonzero((traj.profiles == [0, 1]).all(axis=1))
        first = hits[0]
        assert np.all((traj.profiles[first:] == [0, 1]).all(axis=1))
        freq = empirical_frequencies(traj)
        np.testing.assert_allclose(freq, [[1, 0], [0, 1]], rtol=0, atol=0.05)

    def test_matches_hand_rolled_loop(self, unique_ne_game):
        game = unique_ne_game
        traj = run_fp(game, T=20)
        args = (game.bandwidths.tolist(), game.noise.tolist(),
                game.max_power.tolist(), game.gains.tolist())
        f = [[0.5, 0.5], [0.5, 0.5]]
        for t in range(20):
            actions = []
            for k in range(2):
                opp = f[1 - k]
                values = []
                for s in range(2):
                    profile = [0, 0]
                    profile[k] = s
                    total = 0.0
                    for c in range(2):
                        profile[1 - k] = c
                        total += opp[c] * oracle_utility(*args, profile, k)
                    values.append(total)
                actions.append(0 if values[0] >= values[1] else 1)
            assert list(traj.profiles[t]) == actions
            weight = 1.0 / (t + 2)
            for k in range(2):
                target = [1.0 if s == actions[k] else 0.0 for s in range(2)]
                f[k] = [f[k][s] + weight * (target[s] - f[k][s]) for s in range(2)]

    def test_records_decision_time_state(self, unique_ne_game):
        init = BeliefState.from_xi([0.3, 0.7])
        traj = run_fp(unique_ne_game, init, T=10)
        np.testing.assert_array_equal(traj.beliefs[0], init.marginals)
        assert traj.initial_step == 1
        assert traj.final_step == 11
        # Bookkeeping columns agree with the scalar model functions.
        for t in range(10):
            profile = traj.profiles[t]
            for k in range(2):
                assert traj.utilities[t, k] == utility(unique_ne_game, profile, k)
            assert traj.potentials[t] == potential(unique_ne_game, profile)

    def test_resuming_from_final_state_is_seamless(self, worked_mixed_game):
        full = run_fp(worked_mixed_game, T=80)
        head = run_fp(worked_mixed_game, T=50)
        resumed = run_fp(
            worked_mixed_game,
            BeliefState(step=head.final_step, marginals=head.final_state),
            T=30,
        )
        np.testing.assert_array_equal(
            np.vstack([head.profiles, resumed.profiles]), full.profiles
        )
        np.testing.assert_array_equal(resumed.beliefs, full.beliefs[50:])
        np.testing.assert_array_equal(resumed.final_state, full.final_state)
        assert resumed.final_step == full.final_step == 81

    def test_symmetric_game_cycles_forever(self, strong_interference_game):
        init = BeliefState.from_xi([0.5, 0.5])
        traj = run_fp(strong_interference_game, init, T=400)
        # Odd steps land on (0, 0), even steps on (1, 1), indefinitely.
        assert np.all(traj.profiles[0::2] == 0)
        assert np.all(traj.profiles[1::2] == 1)
        freq = empirical_frequencies(traj)
        np.testing.assert_allclose(freq, np.full((2, 2), 0.5), rtol=0, atol=1e-12)

    def test_cycle_beliefs_follow_closed_form(self, strong_interference_game):
        xi = 0.5
        traj = run_fp(strong_interference_game, BeliefState.from_xi([xi, xi]), T=200)
        for n in range(1, 101):
            odd = traj.beliefs[2 * n - 2]  # decision-time state at step 2n-1
            f_c0 = (n * xi + (n - 1)) / ((2 * n - 1) * (1 + xi))
            f_c1 = ((n - 1) * xi + n) / ((2 * n - 1) * (1 + xi))
            np.testing.assert_allclose(odd, [[f_c0, f_c1]] * 2, rtol=0, atol=1e-12)
            if 2 * n - 1 < 200:
                even = traj.beliefs[2 * n - 1]  # decision-time state at step 2n
                g_c0 = ((n + 1) * xi + n) / (2 * n * (1 + xi))
                g_c1 = ((n - 1) * xi + n) / (2 * n * (1 + xi))
                np.testing.assert_allclose(even, [[g_c0, g_c1]] * 2, rtol=0, atol=1e-12)

    def test_counting_identity(self, worked_mixed_game):
        # Beliefs of weight 1+T are (prior + action counts) / (1+T), bit for bit.
        init = BeliefState.uniform(2, 2)
        traj = run_fp(worked_mixed_game, init, T=200)
        counts = np.zeros((2, 2))
        for k in range(2):
            counts[k] = np.bincount(traj.profiles[:, k], minlength=2)
        np.testing.assert_array_equal(traj.final_state, (init.marginals + counts) / 201.0)

    def test_tie_break_highest_changes_first_move(self, strong_interference_game):
        low = run_fp(strong_interference_game, T=3, tie_break="lowest")
        high = run_fp(strong_interference_game, T=3, tie_break="highest")
        assert tuple(low.profiles[0]) == (0, 0)
        assert tuple(high.profiles[0]) == (1, 1)


def _assert_two_player_engines_agree(game):
    """Both engines from matched uniform beliefs: the same profiles,
    payoffs and potentials, bit for bit."""
    beliefs = BeliefState.uniform(2, game.S)
    classic = run_fp(game, beliefs, T=1000)
    aggregated = run_aggregation_fp(game, q_from_beliefs(game, beliefs), T=1000)
    for name in ("profiles", "utilities", "potentials"):
        np.testing.assert_array_equal(getattr(classic, name), getattr(aggregated, name))


class TestAggregationFP:
    def test_validation(self, unit_game):
        with pytest.raises(ValueError, match="T must be"):
            run_aggregation_fp(unit_game, T=0)
        with pytest.raises(ValueError, match="shape"):
            run_aggregation_fp(unit_game, QState.zeros(3, 2), T=1)

    def test_cold_start_first_round(self, unit_game):
        traj = run_aggregation_fp(unit_game, T=1)
        # All scores are zero, so lowest-index tie breaking sends both to 0.
        assert tuple(traj.profiles[0]) == (0, 0)
        np.testing.assert_array_equal(traj.q_values[0], np.zeros((2, 2)))
        np.testing.assert_array_equal(traj.gammas[0], [3.0, 1.0])
        shared = 0.5 * math.log2(1.5)
        alone = 0.5
        np.testing.assert_allclose(traj.utilities[0], [shared, shared], rtol=0, atol=1e-15)
        assert traj.potentials[0] == pytest.approx(0.5 * math.log2(3.0), abs=1e-15)
        # One sample into a cold start is a plain average: q equals the
        # counterfactual value vector itself.
        np.testing.assert_allclose(
            traj.final_state, [[shared, alone], [shared, alone]], rtol=0, atol=1e-15
        )
        assert traj.final_step == 1

    def test_gamma_matches_aggregate_message(self, worked_mixed_game):
        traj = run_aggregation_fp(worked_mixed_game, T=50)
        for t in range(50):
            np.testing.assert_array_equal(
                traj.gammas[t], aggregate_message(worked_mixed_game, traj.profiles[t])
            )

    def test_matches_classic_engine_with_matched_init(self):
        rng = np.random.default_rng(73)
        for _ in range(30):
            _assert_two_player_engines_agree(random_symmetric_2x2(rng))

    def test_two_player_engines_agree_bit_for_bit(self):
        # Criterion 9's games.
        rng = np.random.default_rng(987654)
        for _ in range(100):
            _assert_two_player_engines_agree(random_game(rng, 2, int(rng.integers(2, 5))))

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2")
    def test_two_player_engines_agree_on_exact_ties(self):
        # The all-ones game ties every score exactly whenever both players
        # have played each channel equally often. The rules' scores are
        # equal in exact arithmetic, but their floats may round a tie
        # differently, and then the two rules play different profiles.
        # Exact tie decisions make the two agree.
        _assert_two_player_engines_agree(GameSpec.symmetric(np.ones((2, 2)), p_max=10.0))

    def test_q_is_running_average_of_counterfactual_values(self, worked_mixed_game):
        game = worked_mixed_game
        beliefs = BeliefState.uniform(2, 2)
        start = q_from_beliefs(game, beliefs)
        traj = run_aggregation_fp(game, start, T=300)
        # With init weight 1, the score at decision step t is exactly
        # (q0 + sum of past counterfactual value vectors) / (1 + t).
        running = np.zeros((2, 2))
        for t in range(300):
            predicted = (start.q + running) / (t + 1.0)
            np.testing.assert_allclose(traj.q_values[t], predicted, rtol=0, atol=1e-12)
            gamma = traj.gammas[t]
            for k in range(2):
                own = np.zeros(2)
                own[traj.profiles[t, k]] = game.received_power[k, traj.profiles[t, k]]
                remainder = gamma - own
                running[k] += game.weights * np.log2(1.0 + game.received_power[k] / remainder)

    @pytest.mark.parametrize("n_players,n_channels", [(1, 1), (2, 2), (3, 3), (4, 2), (2, 4)])
    def test_q_from_beliefs_on_a_sequence_gives_each_game_its_own_bits(self, n_players,
                                                                       n_channels):
        # One start for one game and for a same-shape sequence: each game of
        # the sequence gets the bits it gets alone, under uniform, xi and
        # explicit beliefs (one of them Fortran-ordered).
        rng = np.random.default_rng(101 + 10 * n_players + n_channels)
        games = [random_game(rng, n_players, n_channels) for _ in range(6)]
        explicit = rng.dirichlet(np.ones(n_channels), size=n_players)
        starts = [BeliefState.uniform(n_players, n_channels),
                  BeliefState(step=3, marginals=explicit),
                  BeliefState(step=2, marginals=np.asfortranarray(explicit))]
        if n_channels == 2:
            starts.append(BeliefState.from_xi(rng.uniform(0.1, 0.9, n_players)))
        for beliefs in starts:
            states = q_from_beliefs(games, beliefs)
            assert len(states) == len(games)
            for game, state in zip(games, states):
                alone = q_from_beliefs(game, beliefs)
                assert state.step == alone.step == beliefs.step
                assert np.array_equal(state.q.view(np.int64), alone.q.view(np.int64))
        assert q_from_beliefs([], starts[0]) == []

    def test_q_from_beliefs_matches_expected_utility(self):
        rng = np.random.default_rng(79)
        for _ in range(20):
            game = random_symmetric_2x2(rng)
            marginals = rng.dirichlet(np.ones(2), size=2)
            state = q_from_beliefs(game, BeliefState(step=5, marginals=marginals))
            assert state.step == 5
            for k in range(2):
                for s in range(2):
                    assert state.q[k, s] == pytest.approx(
                        expected_utility(game, k, s, marginals[1 - k]), abs=1e-12
                    )


class TestSharedChecks:
    """One tie-break chooser and one validated expectation serve both
    engines and the best response, so each rejects bad input alike, and
    one registry of each visited pair's payoffs serves both engines."""

    @pytest.mark.parametrize("engine", [run_fp, run_aggregation_fp])
    def test_payoffs_and_potentials_are_the_games_own(self, engine):
        # What a run reports is utility() and potential() of the profile
        # played, whether the classic rule scored channels from its tables
        # or the aggregation rule from its reconstruction of the broadcast;
        # gamma, which only the aggregation rule carries, is the broadcast.
        rng = np.random.default_rng(31)
        for _ in range(300):
            n_players, n_channels = (int(x) for x in rng.integers(1, 5, 2))
            game = random_game(rng, n_players, n_channels)
            if engine is run_fp:
                init = BeliefState(step=int(rng.integers(1, 4)),
                                   marginals=rng.dirichlet(np.ones(n_channels), n_players))
            else:
                init = QState(step=int(rng.integers(0, 4)),
                              q=rng.uniform(0.0, 2.0, (n_players, n_channels)))
            traj = engine(game, init, T=50)
            assert (traj.gammas is None) == (engine is run_fp)
            for profile in np.unique(traj.profiles, axis=0):
                at = np.all(traj.profiles == profile, axis=1)
                payoffs = [utility(game, profile, k) for k in range(n_players)]
                assert np.all(traj.utilities[at] == payoffs)
                assert np.all(traj.potentials[at] == potential(game, profile))
                if traj.gammas is not None:
                    assert np.all(traj.gammas[at] == aggregate_message(game, profile))

    def test_unknown_tie_break_has_one_message(self, unit_game):
        messages = set()
        for call in (
            lambda: run_fp(unit_game, T=1, tie_break="random"),
            lambda: run_aggregation_fp(unit_game, T=1, tie_break="random"),
            lambda: fp_best_response(unit_game, 0, BeliefState.uniform(2, 2), "random"),
        ):
            with pytest.raises(ValueError) as info:
                call()
            messages.add(str(info.value))
        assert messages == {"unknown tie_break 'random', expected one of ('lowest', 'highest')"}

    def test_horizon_below_one_has_one_message(self, unit_game):
        for engine in (run_fp, run_aggregation_fp):
            with pytest.raises(ValueError) as info:
                engine(unit_game, T=0)
            assert str(info.value) == "T must be >= 1"

    def test_horizons_past_exact_step_counts_are_refused(self, strong_interference_game):
        # The log's readers count steps in int64 sums of up to T terms of up
        # to T steps. At the bound the paper's 2-cycle, jumped in a few
        # decisions, still counts every step exactly; one step past it no
        # engine runs.
        game, T = strong_interference_game, _MAX_T
        assert T * T <= np.iinfo(np.int64).max < (T + 1) ** 2
        traj = run_fp(game, BeliefState.from_xi([0.5, 0.5]), T=T)
        np.testing.assert_array_equal(traj.counts(), [[(T + 1) // 2, T // 2]] * 2)
        for engine in (run_fp, run_aggregation_fp):
            with pytest.raises(ValueError, match=f"T must be <= {T}"):
                engine(game, T=T + 1)

    @pytest.mark.parametrize("T", [5000.0, 5.5, True, "9"])
    def test_horizons_must_be_integers(self, strong_interference_game, T):
        # A float horizon once ran and sized the log's step columns as
        # float16, so reading the paper's cycle back raised a cast error;
        # T=True ran one step and reported T == True.
        for engine in (run_fp, run_aggregation_fp):
            with pytest.raises(TypeError, match=f"T must be an integer, got {T!r}"):
                engine(strong_interference_game, T=T)

    @pytest.mark.parametrize("engine", [run_fp, run_aggregation_fp])
    @pytest.mark.parametrize("read, error, message", [
        (lambda traj, batch: traj.steps(5, 3, "profiles"), ValueError, "steps 5..3 must"),
        (lambda traj, batch: traj.steps(-2, 3, "profiles"), ValueError, "steps -2..3 must"),
        (lambda traj, batch: traj.steps(0, 12, "profiles"), ValueError, "steps 0..12 must"),
        (lambda traj, batch: traj.steps(True, 3, "profiles"), TypeError, "got True"),
        (lambda traj, batch: traj.steps(0.5, 3, "profiles"), TypeError, "got 0.5"),
        (lambda traj, batch: batch.counts(2.5), TypeError, "got 2.5"),
        (lambda traj, batch: batch.counts(True), TypeError, "got True"),
        (lambda traj, batch: batch.counts(11), ValueError, r"step 11 must lie in \[0, T\]"),
        (lambda traj, batch: batch.counts(100), ValueError, r"step 100 must lie in \[0, T\]"),
        (lambda traj, batch: batch.counts(-3), ValueError, r"step -3 must lie in \[0, T\]"),
    ])
    def test_log_reads_take_integer_steps_within_the_run(self, strong_interference_game,
                                                         engine, read, error, message):
        # Steps once read as their truncation or as 1 for True, outside the
        # run as some other stretch or zeros, and a bad read left the view
        # without a block, so every later read of it failed.
        game, T = strong_interference_game, 10
        init = BeliefState.from_xi([0.5, 0.5])
        init = init if engine is run_fp else q_from_beliefs(game, init)
        traj, batch = engine(game, init, T=T), engine([game], init, T=T)
        with pytest.raises(error, match=message):
            read(traj, batch)
        profiles = np.array([[t % 2] * 2 for t in range(T)])  # the 2-cycle
        np.testing.assert_array_equal(traj.steps(0, T, "profiles")[0], profiles)
        np.testing.assert_array_equal(traj.steps(3, 3, "profiles")[0], profiles[:0])
        np.testing.assert_array_equal(traj.profiles, profiles)
        np.testing.assert_array_equal(batch.counts(T)[0], traj.counts())
        np.testing.assert_array_equal(batch.counts(0), np.zeros((1, 2, 2)))

    @pytest.mark.parametrize("engine", [run_fp, run_aggregation_fp])
    def test_steps_reject_a_field_outside_the_per_step_fields(self, strong_interference_game,
                                                               engine):
        # A misspelt field once read as None, like a field the run does not
        # carry, and re-rendered a view's block at every such read.
        view = engine(strong_interference_game, T=10)
        held = _manual_trajectory(engine(strong_interference_game, T=10).profiles)
        for traj in (view, held):
            with pytest.raises(ValueError, match="unknown trajectory field 'foo'"):
                traj.steps(0, 3, "foo", "profiles")
            np.testing.assert_array_equal(traj.steps(0, 3, "profiles")[0], [[0, 0], [1, 1],
                                                                            [0, 0]])
        absent = "gammas" if engine is run_fp else "beliefs"
        assert view.steps(0, 3, absent) == held.steps(0, 3, absent) == [None]

    def test_fields_must_have_one_length(self):
        with pytest.raises(ValueError, match="trajectory field utilities has length 4 != 5"):
            Trajectory(variant="classic", tie_break="lowest",
                       profiles=np.zeros((5, 2), dtype=np.int64), utilities=np.zeros((4, 2)),
                       potentials=np.zeros(5))

    def test_profile_codes_must_fit_64_bits(self):
        # 3**40 profiles: the driver numbers (game, profile) pairs by an
        # int64 code of the profile, so it refuses before it plays a step.
        with pytest.raises(ValueError, match="do not fit a 64-bit code"):
            run_aggregation_fp(GameSpec.symmetric(np.ones((40, 3)), p_max=1.0), T=3)

    def test_checkpoints_and_state_steps_must_be_integers(self, unit_game):
        for engine in (run_fp, run_aggregation_fp):
            with pytest.raises(TypeError, match="checkpoint must be an integer, got 2.7"):
                engine([unit_game], T=5, checkpoints=(2.7,))
        with pytest.raises(TypeError, match="belief step must be an integer, got 2.5"):
            BeliefState(step=2.5, marginals=[[0.5, 0.5]])
        with pytest.raises(TypeError, match="q step must be an integer, got 1.9"):
            QState(step=1.9, q=[[0.0, 0.0]])
        with pytest.raises(TypeError, match="belief step must be an integer, got True"):
            BeliefState(step=True, marginals=[[0.5, 0.5]])
        # Integral numbers of any type pass, as ints.
        batch = run_fp([unit_game], T=np.int64(5), checkpoints=(np.int32(2),))
        assert list(batch.frequencies) == [2] and type(list(batch.frequencies)[0]) is int
        assert type(QState(step=np.int64(3), q=[[0.0, 0.0]]).step) is int

    @pytest.mark.parametrize("shape", [(3, 2), (2, 3), (1, 2)])
    def test_beliefs_that_do_not_fit_the_game(self, unit_game, shape):
        # q_from_beliefs once returned a state with rows of uninitialised
        # memory for beliefs with more players than the game.
        beliefs = BeliefState.uniform(*shape)
        message = rf"beliefs have shape \({shape[0]}, {shape[1]}\), game needs \(2, 2\)"
        with pytest.raises(ValueError, match=message):
            q_from_beliefs(unit_game, beliefs)
        with pytest.raises(ValueError, match=message):
            fp_best_response(unit_game, 0, beliefs)

    @pytest.mark.parametrize("player", [-1, 2])
    def test_best_response_checks_the_player(self, unit_game, player):
        with pytest.raises(IndexError, match=rf"player index {player} out of range \[0, 2\)"):
            fp_best_response(unit_game, player, BeliefState.uniform(2, 2))

    def test_opponent_profile_guard(self):
        # 2**20 opponent profiles: past the guard, though the 2**21-profile
        # table is within its own.
        game = GameSpec.symmetric([[1.0, 1.0]] * 21, p_max=1.0)
        with pytest.raises(ValueError) as info:
            expected_utility(game, 0, 0, np.full(2**20, 2.0**-20))
        assert "S**(K-1) = 1048576 opponent profiles exceeds the enumeration guard" in str(
            info.value)
        with pytest.raises(ValueError) as other:
            fp_best_response(game, 0, BeliefState.uniform(21, 2))
        assert str(other.value) == str(info.value)

    def test_q_from_beliefs_is_not_held_to_the_opponent_guard(self, monkeypatch):
        # The guard bounds one player's opponent enumeration; q_from_beliefs
        # contracts the utility table, which has its own bound.
        game = GameSpec.symmetric([[1.0, 2.0], [2.0, 1.0], [1.5, 1.5]], p_max=1.0)
        beliefs = BeliefState.uniform(3, 2)
        before = q_from_beliefs(game, beliefs).q
        monkeypatch.setattr("csgame.game.MAX_OPPONENT_PROFILES", 3)
        with pytest.raises(ValueError, match="S\\*\\*\\(K-1\\) = 4 opponent profiles"):
            fp_best_response(game, 0, beliefs)
        np.testing.assert_array_equal(q_from_beliefs(game, beliefs).q, before)


def _assert_aggregation_matches_oracle(game, init, T, tie_break):
    traj = run_aggregation_fp(game, init, T=T, tie_break=tie_break)
    ref = oracle_run_aggregation_fp(game, init.q, T, tie_break, step=init.step)
    for name in ("profiles", "utilities", "potentials", "gammas", "q_values", "final_state"):
        np.testing.assert_array_equal(getattr(traj, name), getattr(ref, name), err_msg=name)
    assert traj.profiles.dtype == np.int64
    assert traj.final_step == ref.final_step
    assert traj.initial_step == init.step
    np.testing.assert_array_equal(traj.initial_state, init.q)
    return traj


class TestAggregationEngineAgainstOracle:
    """The engine computes the broadcast feedback once per distinct profile;
    the oracle recomputes it every step. Both must agree bit for bit."""

    def test_feedback_is_computed_once_per_game_and_profile(self, monkeypatch,
                                                             strong_interference_game):
        # Two copies of the paper's 2-cycle game revisit the same two
        # profiles, and every game of the batch plays codes the others play.
        rng = np.random.default_rng(77)
        games = [strong_interference_game] * 2 + [random_game(rng, 2, 2) for _ in range(6)]
        init = q_from_beliefs(strong_interference_game, BeliefState.from_xi([0.5, 0.5]))
        # The rule's values take the new pairs of a pass as one stack, and
        # compute their broadcast in one batched call.
        pairs, rows = [], []
        values, aggregates = dynamics._Aggregation.values, dynamics._aggregates
        monkeypatch.setattr(dynamics._Aggregation, "values", lambda rule, at, profiles: (
            pairs.extend(zip(at.tolist(), map(tuple, profiles.tolist())))
            or values(rule, at, profiles)))
        monkeypatch.setattr(dynamics, "_aggregates", lambda noise, received, profiles: (
            rows.append(len(profiles)) or aggregates(noise, received, profiles)))
        batch = run_aggregation_fp(games, init, T=500)
        distinct = [len({tuple(p) for p in batch.actions[:, i].tolist()})
                    for i in range(len(games))]
        assert distinct[:2] == [2, 2] and max(distinct) > 2
        assert len(pairs) == len(set(pairs)) == sum(rows) == sum(distinct)
        assert len(rows) < sum(distinct)  # pairs new at one pass share one call
        monkeypatch.undo()
        for i, game in enumerate(games):
            traj = run_aggregation_fp(game, init, T=500)
            np.testing.assert_array_equal(batch.utility_sums[i], traj.utility_sums)
            np.testing.assert_array_equal(batch.final_marginals[i], traj.final_state)

    @pytest.mark.parametrize("tie_break", ["lowest", "highest"])
    def test_random_games(self, tie_break):
        rng = np.random.default_rng(2024)
        switching = going_back = 0
        for n_players in range(1, 6):
            for n_channels in range(1, 5):
                for _ in range(3):
                    game = random_game(rng, n_players, n_channels)
                    # Random positive starts with little weight switch often;
                    # zero starts open on an exact tie in every row.
                    for init in (
                        QState(step=int(rng.integers(0, 4)),
                               q=rng.uniform(0.0, 2.0, (n_players, n_channels))),
                        QState.zeros(n_players, n_channels),
                    ):
                        traj = _assert_aggregation_matches_oracle(game, init, 150, tie_break)
                        switching += np.any(traj.profiles[1:] != traj.profiles[:-1])
                        # Runs that go back to a profile first visited before
                        # the one they leave, which the q render sums in order
                        # of first visit, not of the steps.
                        _, first, slot = np.unique(traj.profiles, axis=0, return_index=True,
                                                   return_inverse=True)
                        going_back += np.any(np.diff(first[slot.ravel()]) < 0)
        assert switching >= 10
        assert going_back >= 1

    @pytest.mark.parametrize("tie_break", ["lowest", "highest"])
    def test_cycling_run(self, strong_interference_game, tie_break):
        game = strong_interference_game
        init = q_from_beliefs(game, BeliefState.from_xi([0.5, 0.5]))
        traj = _assert_aggregation_matches_oracle(game, init, 400, tie_break)
        assert detect_cycle(traj, window=64).period == 2

    def test_a_lone_user_on_a_quiet_channel_hears_its_noise(self):
        # Channel 1 is so quiet that a lone user's power swallows its noise
        # in the float aggregate: gamma - own alone cancels to 0 once player
        # 0 moves there. The broadcast's rounding residual gives the noise
        # back, so every horizon plays on, as the per-step oracle does.
        game = GameSpec(bandwidths=[1.0, 1.0], noise=[1.0, 1e-30],
                        max_power=[1e10, 1.0], gains=[[1.0, 1.0], [1.0, 0.0]])
        init = QState(step=10, q=[[60.0, 0.0], [1.0, 0.0]])
        gamma = aggregate_message(game, (1, 0))
        assert gamma[1] - game.received_power[0, 1] == 0.0
        assert aggregated_utility(game, 0, 1, gamma) == utility(game, (1, 0), 0)
        for T in range(1, 40):
            traj = _assert_aggregation_matches_oracle(game, init, T, "lowest")
        assert (traj.profiles == [1, 0]).all(axis=1).any()

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_cold_start_reads_the_initial_scores(self, tie_break):
        # At weight 0 the first decision reads q0 itself, never 0/0; from
        # then on q0 weighs nothing.
        rng = np.random.default_rng(211)
        for n_players, n_channels in ((1, 3), (2, 2), (3, 3), (4, 2)):
            game = random_game(rng, n_players, n_channels)
            init = QState(step=0, q=rng.uniform(0.0, 2.0, (n_players, n_channels)))
            traj = _assert_aggregation_matches_oracle(game, init, 60, tie_break)
            np.testing.assert_array_equal(traj.q_values[0], init.q)
            first = (init.q.argmax(axis=1) if tie_break == "lowest"
                     else n_channels - 1 - init.q[:, ::-1].argmax(axis=1))
            np.testing.assert_array_equal(traj.profiles[0], first)

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_batch_matches_the_oracle_game_by_game(self, tie_break):
        # Games stepped in lockstep, each one against the per-step oracle:
        # random games, near-symmetric ones, which wander, and all-ones
        # games, which meet exact ties and cycle.
        rng = np.random.default_rng(223)
        T = 300
        jumped = 0  # games whose cycles were jumped
        for n_players, n_channels in ((1, 3), (2, 2), (3, 3), (4, 2)):
            games = [random_game(rng, n_players, n_channels) for _ in range(3)]
            games += [GameSpec.symmetric(np.exp(rng.normal(0.0, 0.15, (n_players, n_channels))),
                                         p_max=10.0) for _ in range(3)]
            games += [GameSpec.symmetric(np.ones((n_players, n_channels)), p_max=10.0)] * 2
            inits = [QState(step=1, q=rng.uniform(0.0, 2.0, (n_players, n_channels)))
                     for _ in games]
            inits[-1] = QState(step=1, q=np.zeros((n_players, n_channels)))
            batch = run_aggregation_fp(games, inits, T=T, tie_break=tie_break,
                                       checkpoints=(1, T // 3, T))
            assert batch.final_step == T + 1
            switches = np.any(batch.actions[1:] != batch.actions[:-1], axis=2).sum(axis=0)
            jumped += np.sum(switches > 10 * batch.evaluations)
            for i, (game, init) in enumerate(zip(games, inits)):
                ref = oracle_run_aggregation_fp(game, init.q, T, tie_break, step=init.step)
                np.testing.assert_array_equal(batch.actions[:, i], ref.profiles)
                np.testing.assert_array_equal(batch.final_marginals[i], ref.final_state)
                np.testing.assert_array_equal(batch.utility_sums[i],
                                              oracle_counted_sum(ref.profiles, ref.utilities))
                for t, freq in batch.frequencies.items():
                    counts = [np.bincount(ref.profiles[:t, k], minlength=n_channels)
                              for k in range(n_players)]
                    np.testing.assert_array_equal(freq[i], np.array(counts) / t)
        assert jumped >= 2

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_near_ties_are_decided_step_by_step(self, tie_break):
        # Gains of 1 and 2 from zero scores keep channels within rounding
        # of each other; the rounding slack must leave those margins to the
        # per-step rule (without it, these runs leave the oracle's play).
        rng = np.random.default_rng(229)
        T = 300
        for n_players, n_channels in ((2, 2), (3, 2), (4, 2), (3, 3)):
            games = [GameSpec.symmetric(rng.integers(1, 3, (n_players, n_channels)).astype(float),
                                        p_max=2.0) for _ in range(6)]
            batch = run_aggregation_fp(games, QState.zeros(n_players, n_channels), T=T,
                                       tie_break=tie_break)
            for i, game in enumerate(games):
                ref = oracle_run_aggregation_fp(game, np.zeros((n_players, n_channels)), T,
                                                tie_break)
                np.testing.assert_array_equal(batch.actions[:, i], ref.profiles)
                np.testing.assert_array_equal(batch.final_marginals[i], ref.final_state)

    def test_a_run_that_settles_costs_two_decisions(self):
        # The demo game settles on (2, 1) at once: one decision, then a
        # second that certifies the profile up to the horizon, one log entry
        # each.
        config = load_config(CONFIGS / "aggregation_demo.yaml")
        game = config.game
        init = q_from_beliefs(game, config.dynamics.initial_beliefs_for(game))
        batch = run_aggregation_fp([game], init, T=25_000)
        assert batch.evaluations.tolist() == [2]
        assert batch.decisions.size == 2
        np.testing.assert_array_equal(batch.tail(3)[0], [[2, 1]] * 3)
        _assert_aggregation_matches_oracle(game, init, 2000, "lowest")

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_two_cycle_is_jumped_period_by_period(self, strong_interference_game, tie_break):
        game = strong_interference_game
        init = q_from_beliefs(game, BeliefState.from_xi([0.5, 0.5]))
        batch = run_aggregation_fp([game], init, T=3000, tie_break=tie_break)
        assert batch.evaluations[0] <= 10
        traj = _assert_aggregation_matches_oracle(game, init, 3000, tie_break)
        np.testing.assert_array_equal(batch.actions[:, 0], traj.profiles)
        assert detect_cycle(traj, window=64).period == 2

    def test_games_with_huge_profile_spaces_read_their_own_payoffs(self):
        # 62 players on 2 channels: 2**62 profile codes, so a key packing
        # the game index with the code would overflow 64 bits from the
        # third game on. Each game of the batch must read its own payoffs.
        rng = np.random.default_rng(241)
        n_players, T = 62, 40
        games = [GameSpec.symmetric(rng.exponential(1.0, (n_players, 2)), p_max=10.0)
                 for _ in range(3)]
        batch = run_aggregation_fp(games, None, T=T)
        for i, game in enumerate(games):
            traj = run_aggregation_fp(game, None, T=T)
            np.testing.assert_array_equal(batch.actions[:, i], traj.profiles)
            np.testing.assert_array_equal(batch.utility_sums[i],
                                          oracle_counted_sum(traj.profiles, traj.utilities))


def _spy_renders(monkeypatch) -> list:
    """The (a, b) of every step span a trajectory view renders from now on."""
    rendered, render = [], Trajectory._render
    monkeypatch.setattr(Trajectory, "_render", lambda traj, a, b, names: (
        rendered.append((a, b)) or render(traj, a, b, names)))
    return rendered


@pytest.mark.parametrize("engine", [run_fp, run_aggregation_fp])
def test_a_view_renders_nothing_for_an_unknown_attribute(monkeypatch, unique_ne_game, engine):
    traj = engine(unique_ne_game, T=50)
    rendered = _spy_renders(monkeypatch)
    with pytest.raises(AttributeError, match="no_such_field"):
        traj.no_such_field
    assert not hasattr(traj, "no_such_field")
    assert rendered == []
    assert not set(dynamics._PER_STEP) & set(vars(traj))


@pytest.mark.parametrize("engine", [run_fp, run_aggregation_fp])
def test_a_view_renders_exactly_the_steps_each_reader_asks(monkeypatch, tmp_path,
                                                           strong_interference_game, engine):
    # The writers read a view a chunk at a time, and detect_cycle reads its
    # tail, then seeks the onset of the paper's 2-cycle (periodic from step
    # 1) back a block at a time. Each read renders the steps it asks for,
    # no more: a view keeps no rendered block.
    game = strong_interference_game
    beliefs = BeliefState.from_xi([0.5, 0.5])
    init = beliefs if engine is run_fp else q_from_beliefs(game, beliefs)
    monkeypatch.setattr(dynamics, "_BLOCK_STEPS", 700)
    readers = [lambda traj: write_trajectory_csv(traj, tmp_path / "run.csv"),
               lambda traj: write_trajectory_json(traj, tmp_path / "run.json"),
               lambda traj: emit_plot_data(traj, "beliefs", tmp_path / "beliefs.csv"),
               lambda traj: emit_plot_data(traj, "utilities", tmp_path / "utilities.csv"),
               lambda traj: detect_cycle(traj, 64)]
    for read in readers:
        traj = engine(game, init, T=2500)
        asked, steps = [], Trajectory.steps
        with monkeypatch.context() as patch:
            patch.setattr(Trajectory, "steps", lambda traj, a, b, *names: (
                asked.append((a, b)) or steps(traj, a, b, *names)))
            rendered = _spy_renders(patch)
            read(traj)
        assert len(asked) >= 3
        assert rendered == asked
    assert asked[1:-2] == [(1736, 2438), (1036, 1738), (336, 1038), (0, 338)]  # onset blocks


@pytest.mark.parametrize("engine", [run_fp, run_aggregation_fp])
def test_a_jumped_cycle_is_logged_in_bounded_blocks(strong_interference_game, engine):
    # Both rules play 2 * 10**6 steps of the paper's 2-cycle, a switch at
    # every step, in a few decisions. The log holds one entry per phase of
    # a decision, not one per step, so neither it nor the engine's peak
    # grows with the horizon.
    game = strong_interference_game
    beliefs = BeliefState.from_xi([0.5, 0.5])
    init = beliefs if engine is run_fp else q_from_beliefs(game, beliefs)
    tracemalloc.start()
    try:
        batch = engine([game], init, T=2 * 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert batch.decisions.size <= MAX_PERIOD * batch.evaluations.sum()
    assert peak < 2**20
    np.testing.assert_array_equal(batch.tail(4)[0], [[0, 0], [1, 1]] * 2)


@pytest.mark.parametrize("engine", [run_fp, run_aggregation_fp])
def test_actions_are_rendered_in_bounded_blocks(monkeypatch, engine):
    # Every game's profile at every step is rendered a block of games and
    # steps at a time, so rendering it peaks within a small multiple of its
    # own size, and the blocks join into per-step play.
    rng = np.random.default_rng(7)
    games = [random_game(rng, 2, 2) for _ in range(200)]
    batch = engine(games, T=20_000)
    tracemalloc.start()
    try:
        actions = batch.actions
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert actions.shape == (20_000, 200, 2)
    assert peak < 2 * actions.nbytes
    for i in (0, 199):
        np.testing.assert_array_equal(actions[:, i], engine(games[i], T=20_000).profiles)
    monkeypatch.setattr(dynamics, "_BLOCK_CELLS", 7)  # blocks of 7 steps of one game
    small = engine([random_game(rng, 2, 3) for _ in range(3)], T=40)
    np.testing.assert_array_equal(small.actions, small.tail(40).swapaxes(0, 1))


def _assert_decisions_tile_steps(batch):
    """Per game of ``batch``: its log entries start at strictly increasing
    steps, each decision's phases start at consecutive steps and share its
    period and laps, the decisions' period * laps steps sum to T, and so do
    the steps each entry is played."""
    log, T = batch._log, batch.T
    played = batch._played(T)
    for g in range(len(batch.final_marginals)):
        mine = np.flatnonzero(log.game == g)
        start, period, laps = log.start[mine], log.period[mine], log.laps[mine]
        assert np.all(np.diff(start) > 0)
        i = step = 0
        while i < len(mine):
            p = int(period[i])
            np.testing.assert_array_equal(start[i:i + p], step + np.arange(p))
            assert np.all(period[i:i + p] == p) and np.all(laps[i:i + p] == laps[i])
            step += p * int(laps[i])
            i += p
        assert step == T
        assert played[mine].sum() == T


@pytest.mark.parametrize("engine", [run_fp, run_aggregation_fp])
def test_each_games_decisions_tile_its_steps(strong_interference_game, engine):
    # One 2x2 batch holds a game that settles, the paper's 2-cycle, a
    # near-symmetric game whose cycle dies, and the cycle game from uniform
    # beliefs, kept on exact ties and decided at about every other step.
    # Near-symmetric 3x3 games, which switch often before they settle,
    # share another batch (a batch holds one shape).
    rng = np.random.default_rng(1)
    settles = GameSpec.symmetric([[10.0, 0.01], [0.01, 10.0]], p_max=1.0)
    xi = BeliefState.from_xi([0.5, 0.5])
    near_symmetric_3x3 = [GameSpec.symmetric(np.exp(rng.normal(0.0, 0.15, (3, 3))), p_max=10.0)
                          for _ in range(6)]
    batches = [([settles, strong_interference_game, NEAR_SYMMETRIC, strong_interference_game],
                [xi, xi, xi, BeliefState.uniform(2, 2)]),
               (near_symmetric_3x3, [BeliefState.uniform(3, 3)] * 6)]
    T = 600
    results = []
    for games, inits in batches:
        if engine is run_aggregation_fp:
            inits = [q_from_beliefs(game, init) for game, init in zip(games, inits)]
        batch = engine(games, inits, T=T)
        _assert_decisions_tile_steps(batch)
        # The engine's visit counts are the steps the log plays each pair.
        visits = batch.pairs["visits"]
        np.testing.assert_array_equal(visits, np.bincount(batch._log.pair,
                                                          weights=batch._played(T)))
        np.testing.assert_array_equal(np.bincount(batch.pairs["game"], weights=visits),
                                      [T] * len(games))
        # Under either rule, each pair's payoffs are its game's table entry,
        # bit for bit.
        cells = (batch.pairs["game"], slice(None)) + tuple(batch.pairs["profile"].T)
        assert np.array_equal(batch.pairs["payoff"].view(np.int64),
                              _Batch(games).tables[cells].view(np.int64))
        results.append(batch)
    narrow, wide = results
    assert narrow.evaluations[0] <= 3 and narrow.evaluations[1] <= 10
    assert narrow.evaluations[3] > T // 3
    switches = np.any(wide.actions[1:] != wide.actions[:-1], axis=2).sum(axis=0)
    assert switches.max() >= 25 and wide._log.period.max() > 1


def _hand_result(entries, steps, T, init_step, tables):
    """The result of a decision log on 2 players x 3 channels (code c is
    profile (c // 3, c % 3)) built by hand from ``entries`` (game, step,
    code, period, laps) in the order the engine appends them, each (game,
    code) pair numbered at its first entry, as the engine numbers them.
    ``steps[g]`` holds game g's code at every step, from which each pair's
    visits are counted; its payoffs are read off ``tables`` (G, 2, 3, 3)."""
    pairs = _Columns(game=np.int64, start=np.int64, profile=(np.int8, (2,)),
                     payoff=(float, (2,)), visits=float)
    decisions = _Columns(pair=np.int64, start=np.int64, period=np.int64, laps=np.int64)
    numbered = {}
    for game, step, code, period, laps in entries:
        if (game, code) not in numbered:
            numbered[game, code] = pairs.size
            profile = divmod(code, 3)
            pairs.append(game=[game], start=[step], profile=[profile],
                         payoff=[tables[(game, slice(None)) + profile]],
                         visits=[steps[game].count(code)])
        decisions.append(pair=[numbered[game, code]], start=[step], period=[period], laps=[laps])
    n_games = len(steps)
    return BatchFPResult(frequencies={}, final_marginals=np.zeros((n_games, 2, 3)),
                         final_step=init_step + T, evaluations=np.zeros(n_games, dtype=np.int64),
                         decisions=decisions, pairs=pairs, T=T)


def test_the_decision_log_reads_as_per_step_play():
    # Two games, logged as the engine logs them: one entry per phase of a
    # decision, the games' entries interleaved. Game 0 plays a 2-cycle, then
    # a 3-cycle whose middle phase repeats the step before it, then holds
    # one profile for two laps; game 1 holds its last profile for one lap,
    # then nine.
    T, init_step = 19, 2
    steps = [
        [5, 5] + [3, 7] * 3 + [0, 0, 4] * 3 + [0, 0],
        [2] + [6, 1] * 4 + [6] * 10,
    ]
    entries = [
        (0, 0, 5, 1, 1), (1, 0, 2, 1, 1), (0, 1, 5, 1, 1), (1, 1, 6, 2, 4), (1, 2, 1, 2, 4),
        (0, 2, 3, 2, 3), (0, 3, 7, 2, 3), (0, 8, 0, 3, 3), (0, 9, 0, 3, 3), (0, 10, 4, 3, 3),
        (1, 9, 6, 1, 1), (1, 10, 6, 1, 9), (0, 17, 0, 1, 2),
    ]
    tables = np.random.default_rng(5).uniform(0.0, 3.0, (2, 2, 3, 3))
    batch = _hand_result(entries, steps, T, init_step, tables)
    profiles = [[divmod(c, 3) for c in codes] for codes in steps]
    for window in (1, 2, 5, T):
        np.testing.assert_array_equal(batch.tail(window), [p[T - window:] for p in profiles])
    np.testing.assert_array_equal(batch.actions, np.swapaxes(profiles, 0, 1))
    for t in range(1, T + 1):
        np.testing.assert_array_equal(batch.counts(t), [
            [[sum(p[k] == c for p in profiles[g][:t]) for c in range(3)] for k in range(2)]
            for g in range(2)])
    # The log plays each pair as many steps as the per-step codes do, and
    # each game's payoffs are summed over its pairs in order of first visit.
    np.testing.assert_array_equal(batch.pairs["visits"],
                                  np.bincount(batch._log.pair, weights=batch._played(T)))
    sums = [oracle_counted_sum(profiles[g], [tables[g, :, a, b] for a, b in profiles[g]])
            for g in range(2)]
    np.testing.assert_array_equal(batch.utility_sums, sums)


def _random_log(rng, T):
    """The entries of a decision log of random play of one game on 2 players
    x 3 channels, logged as the engine logs it: decisions of 1-4 phases
    played for 1-29 laps, one entry per phase. A cycle of several laps
    switches at the same phases in every lap; the step before it may
    differ from its last phase (the engine's never does)."""
    steps, entries = [], []
    while len(steps) < T:
        period = int(rng.integers(1, 5))
        laps = int(rng.integers(1, 30)) if period > 1 else 1
        laps = min(laps, (T - len(steps)) // period) or 1
        cycle = rng.integers(0, 3, period).tolist()
        before = steps[-1] if steps else -1
        if laps > 1 and (cycle[0] != before) != (cycle[0] != cycle[-1]):
            continue  # phase 0 would switch in some laps only
        entries += [(0, len(steps) + phase, code, period, laps)
                    for phase, code in enumerate(cycle)]
        steps += cycle * laps
    del steps[T:]
    return entries, steps


@pytest.mark.parametrize("block", [2, 5, 2**14])
def test_a_view_of_any_log_reads_as_per_step_play(monkeypatch, block):
    # A trajectory view of random logs renders their per-step profiles and
    # counts, and finds every cycle's onset as the walk over those profiles
    # does, reading a few steps at a time.
    monkeypatch.setattr("csgame.dynamics._BLOCK_STEPS", block)
    rng = np.random.default_rng(43)
    games = _Batch([GameSpec.symmetric(np.ones((2, 3)), p_max=1.0)])
    found = 0
    for T in [1, 2, 3, 9, 40, 120] * 8:
        entries, codes = _random_log(rng, T)
        batch = _hand_result(entries, [codes], T, 3, np.zeros((1, 2, 3, 3)))
        traj = Trajectory._view(batch, dynamics._Classic(games, np.full((1, 2, 3), 1 / 3), 3),
                                "lowest", np.full((2, 3), 1 / 3))
        profiles = np.array([divmod(c, 3) for c in codes])
        np.testing.assert_array_equal(traj.steps(0, T, "profiles")[0], profiles)
        np.testing.assert_array_equal(traj.counts(), [
            [np.sum(profiles[:, k] == c) for c in range(3)] for k in range(2)])
        for window in range(1, T + 1):
            report = detect_cycle(traj, window)
            expected = detect_cycle(_manual_trajectory(profiles), window)
            assert (report is None) == (expected is None)
            if report is not None:
                found += 1
                assert (report.period, report.onset, report.cycle_profiles) == (
                    expected.period, expected.onset, expected.cycle_profiles)
    assert found > 300


@pytest.mark.parametrize("engine", [run_fp, run_aggregation_fp])
def test_a_trajectory_built_from_arrays_reads_the_same_counted_sum(engine):
    # A trajectory held as arrays (as read back from CSV) sums each player's
    # payoffs as the engine's view of the same run does.
    rng = np.random.default_rng(11)
    for game in [random_game(rng, 2, 2) for _ in range(4)] + [random_game(rng, 3, 3)]:
        traj = engine(game, T=300)
        held = Trajectory(variant="classic", tie_break="lowest", profiles=traj.profiles,
                          utilities=traj.utilities, potentials=traj.potentials)
        np.testing.assert_array_equal(held.utility_sums, traj.utility_sums)
        np.testing.assert_array_equal(held.utility_sums,
                                      oracle_counted_sum(traj.profiles, traj.utilities))


class TestEmpiricalFrequencies:
    def test_counts_rounds(self):
        traj = run_fp(
            GameSpec.symmetric([[1.0, 1.0], [1.0, 1.0]], p_max=10.0),
            BeliefState.from_xi([0.5, 0.5]),
            T=7,
        )
        freq = empirical_frequencies(traj)
        # 4 visits to channel 0 (odd steps), 3 to channel 1, for each player.
        np.testing.assert_allclose(freq, np.full((2, 2), [4 / 7, 3 / 7]), rtol=0, atol=1e-15)

    def test_a_trajectory_read_back_counts_as_its_view(self, tmp_path):
        rng = np.random.default_rng(8)
        traj = run_fp(random_game(rng, 3, 3), T=400)
        held = read_trajectory_csv(write_trajectory_csv(traj, tmp_path / "t.csv"))
        assert held._result is None
        np.testing.assert_array_equal(empirical_frequencies(held), empirical_frequencies(traj))

    def test_rejects_empty_trajectory(self):
        empty = Trajectory(
            variant="classic",
            tie_break="lowest",
            profiles=np.empty((0, 2), dtype=np.int64),
            utilities=np.empty((0, 2)),
            potentials=np.empty(0),
        )
        with pytest.raises(ValueError, match="empty"):
            empirical_frequencies(empty)


def _manual_trajectory(profiles) -> Trajectory:
    profiles = np.asarray(profiles, dtype=np.int64)
    T, n_players = profiles.shape
    return Trajectory(
        variant="classic",
        tie_break="lowest",
        profiles=profiles,
        utilities=np.zeros((T, n_players)),
        potentials=np.zeros(T),
    )


class TestDetectCycle:
    def test_two_cycle_with_onset_one(self, strong_interference_game):
        traj = run_fp(strong_interference_game, BeliefState.from_xi([0.5, 0.5]), T=500)
        report = detect_cycle(traj, window=64)
        assert report.period == 2
        assert report.cycle_profiles == ((0, 0), (1, 1))
        assert report.onset == 1
        np.testing.assert_allclose(
            report.time_avg_utility,
            [0.4664429020707315] * 2,
            rtol=0,
            atol=1e-12,
        )

    def test_convergence_shows_as_period_one(self, unique_ne_game):
        traj = run_fp(unique_ne_game, T=300)
        report = detect_cycle(traj, window=64)
        assert report.period == 1
        assert report.cycle_profiles == ((0, 1),)
        hits = np.flatnonzero((traj.profiles != [0, 1]).any(axis=1))
        expected_onset = (int(hits[-1]) + 2) if hits.size else 1
        assert report.onset == expected_onset

    def test_aperiodic_window_returns_none(self):
        traj = _manual_trajectory(
            [[0, 0], [0, 1], [1, 0], [0, 0], [0, 1], [1, 1]]
        )
        assert detect_cycle(traj, window=6) is None

    def test_window_validation(self):
        traj = _manual_trajectory([[0, 0], [1, 1]])
        with pytest.raises(ValueError, match="window"):
            detect_cycle(traj, window=0)
        with pytest.raises(ValueError, match="window"):
            detect_cycle(traj, window=3)

    @pytest.mark.parametrize("window", [True, 2.5, 64.0])
    def test_window_must_be_an_integer(self, strong_interference_game, window):
        # On the paper's 2-cycle a bool would read a 1-step window, a fixed
        # profile, and an integral float would fail inside the onset search.
        init = BeliefState.from_xi([0.5, 0.5])
        traj = run_fp(strong_interference_game, init, T=500)
        batch = run_fp([strong_interference_game], init, T=500)
        for read in (lambda w: detect_cycle(traj, w), batch.tail):
            with pytest.raises(TypeError, match="window must be an integer"):
                read(window)

    def test_onset_extends_before_window(self):
        profiles = [[1, 1]] + [[0, 1], [1, 0]] * 10
        traj = _manual_trajectory(profiles)
        report = detect_cycle(traj, window=6)
        assert report.period == 2
        assert report.onset == 2


class TestCycleOnsetAgainstWalkBack:
    """The onset is found by one vectorized comparison; the old loop walked
    back one step at a time."""

    def _check(self, profiles, window):
        report = detect_cycle(_manual_trajectory(profiles), window=window)
        if report is not None:
            assert report.onset == oracle_cycle_onset(np.asarray(profiles), report.period, window)
        return report

    def test_random_profiles(self):
        rng = np.random.default_rng(5)
        found = 0
        for _ in range(300):
            n_players = int(rng.integers(1, 4))
            period = int(rng.integers(1, 5))
            cycle = rng.integers(0, 3, (period, n_players))
            lead = rng.integers(0, 3, (int(rng.integers(0, 30)), n_players))
            body = np.tile(cycle, (int(rng.integers(3, 20)), 1))
            profiles = np.concatenate([lead, body])
            window = int(rng.integers(1, len(profiles) + 1))
            found += self._check(profiles, window) is not None
        assert found > 100

    def test_periodic_from_step_one(self):
        profiles = np.tile([[0, 1], [1, 1], [1, 0]], (12, 1))
        report = self._check(profiles, window=12)
        assert (report.period, report.onset) == (3, 1)

    def test_no_cycle(self):
        steps = np.arange(40)
        assert self._check(np.stack([steps, steps % 3], axis=1), window=40) is None

    @pytest.mark.parametrize("block", [3, 7, 2**14])
    def test_engine_runs_read_a_block_at_a_time(self, monkeypatch, block):
        # A run the engine returns is read a few steps at a time here, and
        # its onset is sought back one block at a time. Cycles that persist,
        # die or settle must give the walk back's onset.
        monkeypatch.setattr("csgame.dynamics._BLOCK_STEPS", block)
        rng = np.random.default_rng(31)
        games = [GameSpec.symmetric(np.exp(rng.normal(0.0, 0.03, (2, 2))),
                                    p_max=float(rng.choice([1.0, 10.0, 100.0])))
                 for _ in range(8)]
        games += [random_game(rng, 3, 3) for _ in range(3)]
        games += [GameSpec.symmetric(np.ones((n, 2)), p_max=10.0) for n in (2, 3, 4)]
        found = 0
        for game in games:
            beliefs = (BeliefState.from_xi(rng.uniform(0.05, 0.95, 2)) if game.K == 2
                       else BeliefState.uniform(game.K, game.S))
            for engine, init in ((run_fp, beliefs), (run_aggregation_fp,
                                                     q_from_beliefs(game, beliefs))):
                profiles, traj = engine(game, init, T=500).profiles, engine(game, init, T=500)
                for window in (4, 9, 64):
                    report = detect_cycle(traj, window=window)
                    if report is not None:
                        found += 1
                        assert report.onset == oracle_cycle_onset(profiles, report.period,
                                                                  window)
                        assert report.cycle_profiles == tuple(
                            map(tuple, profiles[report.onset - 1:][:report.period].tolist()))
        assert found > 60


class TestSmallestPeriodAgainstScan:
    """The period rule runs on a stack of windows at once; the scalar scan
    tries one period of one window at a time."""

    def test_random_stacks(self):
        rng = np.random.default_rng(17)
        found = set()
        for window in (1, 2, 3, 7, 16, 33, 64):
            for n_players in (1, 2, 3):
                stack = rng.integers(0, 3, (40, window, n_players))  # mostly aperiodic
                for g in range(0, 40, 2):  # every other window periodic, p in 1..W/2
                    p = int(rng.integers(1, window // 2 + 1)) if window >= 2 else 1
                    cycle = rng.integers(0, 3, (p, n_players))
                    stack[g] = np.tile(cycle, (window // p + 1, 1))[:window]
                periods = _smallest_period(stack)
                assert periods.dtype == np.int64 and periods.shape == (40,)
                for tail, period in zip(stack, periods.tolist()):
                    assert period == (oracle_smallest_period(tail) or 0)
                    found.add(min(period, 2))
        assert found == {0, 1, 2}  # none, settled and cycling windows all met


class TestCyclePersistence:
    def test_symmetric_ratio_one_never_dies(self, strong_interference_game):
        for n in (1, 10, 1000, 10**6):
            assert cycle_persistence_2x2(strong_interference_game, (0.5, 0.5), n)

    def test_near_symmetric_game_dies_at_known_round(self):
        # Potential-difference ratio ~0.894: inside the xi=0.5 band for
        # n <= 3, outside from n = 4 on.
        for n in (1, 2, np.int64(3)):
            assert cycle_persistence_2x2(NEAR_SYMMETRIC, (0.5, 0.5), n)
        for n in (np.int32(4), 5, 100):
            assert not cycle_persistence_2x2(NEAR_SYMMETRIC, (0.5, 0.5), n)

    def test_engine_leaves_the_cycle_where_the_predicate_turns_false(self):
        init = BeliefState.from_xi([0.5, 0.5])
        assert cycle_persistence_2x2(NEAR_SYMMETRIC, (0.5, 0.5), 3)
        assert not cycle_persistence_2x2(NEAR_SYMMETRIC, (0.5, 0.5), 4)
        for batch in _assert_cycles_match_oracle([NEAR_SYMMETRIC], [init], 2000).values():
            assert batch.evaluations[0] <= 10
            assert _round_leaving_two_cycle(batch.actions[:, 0]) == 4

    def test_dying_cycle_is_jumped_to_the_round_it_dies(self):
        # For K = 2 the certificate is the margin itself, so a cycle that
        # dies at round 643 is jumped right up to it, in as few decisions as
        # a cycle that never dies.
        game = GameSpec.symmetric([[1.0, 0.9995], [0.9995, 1.0]], p_max=10.0)
        init = BeliefState.from_xi([0.5, 0.5])
        assert cycle_persistence_2x2(game, (0.5, 0.5), 642)
        assert not cycle_persistence_2x2(game, (0.5, 0.5), 643)
        for batch in _assert_cycles_match_oracle([game], [init], 1500).values():
            assert batch.evaluations[0] <= 7
            assert _round_leaving_two_cycle(batch.actions[:, 0]) == 643

    def test_symmetric_cycle_is_jumped_to_two_million_steps(self, strong_interference_game):
        # The predicate says the cycle persists through round 10**6; the
        # engine plays all 2 * 10**6 steps of it in a few decisions.
        game, T = strong_interference_game, 2 * 10**6
        init = BeliefState.from_xi([0.5, 0.5])
        assert cycle_persistence_2x2(game, (0.5, 0.5), T // 2)
        batch = run_fp([game], init, T=T, checkpoints=(T - 1, T))
        assert batch.evaluations[0] <= 10
        # Every step switches, to (0, 0) on odd steps and (1, 1) on even.
        profile = batch.actions[:, 0]
        assert np.all(profile[0::2] == 0) and np.all(profile[1::2] == 1)
        np.testing.assert_array_equal(batch.frequencies[T][0], np.full((2, 2), 0.5))
        np.testing.assert_array_equal(batch.frequencies[T - 1][0],
                                      [[T // 2, T // 2 - 1]] * 2 / np.float64(T - 1))
        np.testing.assert_array_equal(batch.final_marginals[0], (init.marginals + T // 2) / (T + 1))

    def test_first_false_round_is_where_play_leaves_the_cycle(self):
        # 8 near-symmetric games and 52 random ones in H1 and H4, each from
        # 5 xi pairs. The bands are nested, so the predicate is True up to
        # some round and False from the next on; that round is the last one
        # exact play spends in the 2-cycle. Past the horizon the predicate
        # must hold through it.
        rng = np.random.default_rng(0)
        games = [GameSpec.symmetric([[1.0, 1.001], [1.001, 1.0]], p_max=10.0)]
        games += [GameSpec.symmetric(np.exp(rng.normal(0.0, 0.01, (2, 2))),
                                     p_max=float(rng.choice([1.0, 10.0, 100.0])))
                  for _ in range(7)]
        while len(games) < 60:
            game = random_symmetric_2x2(rng)
            if {"H1", "H4"} <= classify_region_2x2(game):
                games.append(game)
        xis = [(0.5, 0.5)] + [tuple(rng.uniform(0.05, 0.95, 2)) for _ in range(4)]
        T = 1000
        rounds = []
        for xi in xis:
            batch = run_fp(games, BeliefState.from_xi(xi), T=T)
            for i, game in enumerate(games):
                n = _round_leaving_two_cycle(batch.actions[:, i])
                assert n == 1 or cycle_persistence_2x2(game, xi, n - 1)
                assert n > T // 2 or not cycle_persistence_2x2(game, xi, n)
                rounds.append(n)
        # Gains 1.001 from xi 0.5 leave at round 322; the predicate once
        # held through round 642.
        assert rounds[0] == 322
        assert len(rounds) == 300
        # Most cases leave at once; dozens hold for rounds, one past the horizon.
        assert sum(n == 1 for n in rounds) == 208
        assert sum(n > 20 for n in rounds) >= 25 and max(rounds) == T // 2 + 1

    def test_strongly_asymmetric_game_exits_cycle_immediately(self):
        # Ratio ~46 lies far outside every band; play leaves the cycle and
        # settles on the pure profile (1, 0).
        game = GameSpec.symmetric([[1.0, 1.0], [2.0, 0.2]], p_max=10.0)
        assert not cycle_persistence_2x2(game, (0.5, 0.5), 1)
        traj = run_fp(game, BeliefState.from_xi([0.5, 0.5]), T=2000)
        report = detect_cycle(traj, window=64)
        assert report.period == 1
        assert report.cycle_profiles == ((1, 0),)

    def test_zero_denominator_raises(self):
        # Aggregates on both deviation profiles are exact powers of two, so
        # the potential difference in the denominator is exactly zero.
        game = GameSpec.symmetric([[1.0, 1.0], [6.0, 3.0]], p_max=1.0)
        with pytest.raises(ValueError, match="denominator"):
            cycle_persistence_2x2(game, (0.5, 0.5), 1)

    def test_argument_validation(self, strong_interference_game):
        with pytest.raises(ValueError, match="length 2"):
            cycle_persistence_2x2(strong_interference_game, (0.5,), 1)
        with pytest.raises(ValueError, match="strictly between"):
            cycle_persistence_2x2(strong_interference_game, (0.5, 1.0), 1)
        with pytest.raises(ValueError, match="n must be"):
            cycle_persistence_2x2(strong_interference_game, (0.5, 0.5), 0)
        for n in (3.9, True):  # neither truncated to round 3 nor read as round 1
            with pytest.raises(TypeError, match="n must be an integer"):
                cycle_persistence_2x2(NEAR_SYMMETRIC, (0.5, 0.5), n)
        asymmetric = GameSpec(
            bandwidths=[1.0, 1.0],
            noise=[1.0, 2.0],
            max_power=[1.0, 1.0],
            gains=[[1.0, 1.0], [1.0, 1.0]],
        )
        with pytest.raises(ValueError):
            cycle_persistence_2x2(asymmetric, (0.5, 0.5), 1)


def _batch_with_ties(rng, n_players, n_channels, n_games=6):
    """Random games with random per-game beliefs, plus two all-ones games
    from uniform beliefs, where every first move is an exact tie."""
    games = [random_game(rng, n_players, n_channels) for _ in range(n_games)]
    inits = [
        BeliefState(step=1, marginals=rng.dirichlet(np.ones(n_channels), size=n_players))
        for _ in games
    ]
    tied = GameSpec.symmetric(np.ones((n_players, n_channels)), p_max=10.0)
    games += [tied, tied]
    inits += [BeliefState.uniform(n_players, n_channels)] * 2
    return games, inits


def _assert_matches_oracle(batch, i, game, init, T, tie_break):
    ref = oracle_run_fp(game, init.marginals, T, tie_break, step=init.step)
    np.testing.assert_array_equal(batch.actions[:, i], ref.profiles)
    np.testing.assert_array_equal(batch.final_marginals[i], ref.final_state)
    np.testing.assert_array_equal(batch.utility_sums[i], ref.utility_sums)
    for t, freq in batch.frequencies.items():
        np.testing.assert_array_equal(freq[i], ref.counts[t] / t)
    assert batch.final_step == ref.final_step
    return ref


def _round_leaving_two_cycle(profiles) -> int:
    """The first round n, steps 2n - 1 and 2n, not played as (0, 0), (1, 1),
    or the round after the last if every round is."""
    rounds = profiles.reshape(-1, 2, 2)
    kept = [np.array_equal(r, [[0, 0], [1, 1]]) for r in rounds] + [False]
    return kept.index(False) + 1


def _assert_trajectory_matches(traj, ref):
    """One game run alone, a batch of one, against the oracle's run."""
    for name in ("profiles", "utilities", "potentials", "beliefs", "final_state"):
        np.testing.assert_array_equal(getattr(traj, name), getattr(ref, name))


class TestBatchEngine:
    def test_exact_parity_with_reference_engine(self):
        rng = np.random.default_rng(89)
        T = 120
        for n_players, n_channels in ((2, 2), (3, 3), (4, 3)):
            games, inits = _batch_with_ties(rng, n_players, n_channels)
            for tie_break in ("lowest", "highest"):
                batch = run_fp(games, inits, T=T, tie_break=tie_break,
                               checkpoints=(T // 2, T))
                assert batch.actions.shape == (T, len(games), n_players)
                assert batch.actions.dtype == np.int8
                for i, (game, init) in enumerate(zip(games, inits)):
                    ref = _assert_matches_oracle(batch, i, game, init, T, tie_break)
                    # One game is a batch of one with the same arithmetic.
                    _assert_trajectory_matches(run_fp(game, init, T=T, tie_break=tie_break), ref)
                first = 0 if tie_break == "lowest" else n_channels - 1
                assert np.all(batch.actions[0, -2:] == first)

    def test_parity_with_custom_init_and_tie_break(self):
        rng = np.random.default_rng(97)
        for n_players, n_channels in ((2, 2), (3, 3)):
            games = [random_game(rng, n_players, n_channels) for _ in range(5)]
            marginals = rng.dirichlet(np.ones(n_channels), size=n_players)
            shared = BeliefState(step=5, marginals=marginals)
            batch = run_fp(games, shared, T=80, tie_break="highest", checkpoints=(80,))
            assert batch.final_step == 85
            for i, game in enumerate(games):
                _assert_matches_oracle(batch, i, game, shared, 80, "highest")

    def test_per_game_initial_states(self):
        rng = np.random.default_rng(101)
        games, inits = _batch_with_ties(rng, 4, 3)
        batch = run_fp(games, inits, T=60, checkpoints=(1, 59, 60))
        for i, (game, init) in enumerate(zip(games, inits)):
            _assert_matches_oracle(batch, i, game, init, 60, "lowest")
        # Channel indices past 127 need a wider action type than int8.
        gains = np.ones((2, 130))
        gains[:, 129] = 50.0
        wide = [GameSpec.symmetric(gains, p_max=1.0)]
        batch = run_fp(wide, T=4, checkpoints=(4,))
        assert batch.actions.dtype == np.int16
        assert batch.actions[0, 0, 0] == 129
        _assert_matches_oracle(batch, 0, wide[0], BeliefState.uniform(2, 130), 4, "lowest")

    @pytest.mark.parametrize("n_channels", [2, 3, 4, 5])
    @pytest.mark.parametrize("n_players", [1, 2, 3, 4, 5])
    def test_every_shape(self, n_players, n_channels):
        # For K > 2 the certified runs rest on a bound, not the exact margin.
        rng = np.random.default_rng(1000 * n_players + n_channels)
        games, inits = _batch_with_ties(rng, n_players, n_channels, n_games=4)
        T = 150
        for tie_break in ("lowest", "highest"):
            batch = run_fp(games, inits, T=T, tie_break=tie_break, checkpoints=(7, T))
            for i, (game, init) in enumerate(zip(games, inits)):
                ref = _assert_matches_oracle(batch, i, game, init, T, tie_break)
            _assert_trajectory_matches(run_fp(game, init, T=T, tie_break=tie_break), ref)

    @pytest.mark.parametrize("n_players, n_channels", [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2)])
    def test_switches_after_certified_runs(self, n_players, n_channels):
        # Near-symmetric gains keep play wandering: the game checked switches
        # often, and every run before a switch must end right at it.
        rng = np.random.default_rng(10 * n_players + n_channels)
        games, inits = [], []
        for _ in range(40):
            gains = np.exp(rng.normal(0.0, 0.15, (n_players, n_channels)))
            games.append(GameSpec.symmetric(gains, p_max=float(rng.choice([1.0, 10.0, 100.0]))))
            inits.append(BeliefState(
                step=1, marginals=rng.dirichlet(np.ones(n_channels), size=n_players)))
        T = 1000
        batch = run_fp(games, inits, T=T)
        switches = np.any(batch.actions[1:] != batch.actions[:-1], axis=2).sum(axis=0)
        i = int(np.argmax(switches * (batch.evaluations < T // 2)))
        assert switches[i] >= 25 and batch.evaluations[i] < T // 2
        _assert_matches_oracle(batch, i, games[i], inits[i], T, "lowest")

    def test_all_ones_games_tie_exactly_at_step_three(self):
        # From uniform beliefs both players tie, both take the same channel,
        # both flee, and at step 3 every belief is (0.5 + 1) / 3 = 0.5 again.
        game = GameSpec.symmetric(np.ones((2, 2)), p_max=10.0)
        for tie_break, first in (("lowest", 0), ("highest", 1)):
            traj = run_fp(game, T=3, tie_break=tie_break)
            np.testing.assert_array_equal(traj.beliefs[2], np.full((2, 2), 0.5))
            np.testing.assert_array_equal(traj.profiles, [[first] * 2, [1 - first] * 2,
                                                          [first] * 2])
            ref = oracle_run_fp(game, np.full((2, 2), 0.5), 3, tie_break)
            np.testing.assert_array_equal(traj.profiles, ref.profiles)
            np.testing.assert_array_equal(traj.beliefs, ref.beliefs)

    def test_two_cycle_in_a_batch_of_settling_games(self, strong_interference_game):
        # The cycle switches every step but is jumped period by period, the
        # near-symmetric game's cycle dies, and the settled games leave the
        # stack early.
        rng = np.random.default_rng(103)
        games = [strong_interference_game, NEAR_SYMMETRIC]
        games += [random_game(rng, 2, 2) for _ in range(5)]
        init = BeliefState.from_xi([0.5, 0.5])
        T = 400
        for tie_break in ("lowest", "highest"):
            batch = run_fp(games, init, T=T, tie_break=tie_break, checkpoints=(T // 2, T))
            assert batch.evaluations[0] <= 10
            assert np.all(batch.evaluations[1:] < T // 10)
            for i, game in enumerate(games):
                _assert_matches_oracle(batch, i, game, init, T, tie_break)
            np.testing.assert_array_equal(batch.tail(9), batch.actions[-9:].swapaxes(0, 1))

    def test_checkpoint_inside_a_run(self):
        # Player 0 is far better off on channel 0, player 1 on channel 1.
        game = GameSpec.symmetric([[10.0, 0.01], [0.01, 10.0]], p_max=1.0)
        init = BeliefState.uniform(2, 2)
        batch = run_fp([game], init, T=1000, checkpoints=(1, 2, 3, 500, 999, 1000))
        assert batch.evaluations[0] <= 3
        _assert_matches_oracle(batch, 0, game, init, 1000, "lowest")
        np.testing.assert_array_equal(batch.frequencies[500][0], np.eye(2))

    def test_engine_skips_constant_runs(self):
        # A dominant profile is decided at most three times in 10**6 steps.
        game = GameSpec.symmetric([[10.0, 0.01], [0.01, 10.0]], p_max=1.0)
        T = 10**6
        batch = run_fp([game], T=T, checkpoints=(T,))
        assert batch.evaluations[0] <= 3
        np.testing.assert_array_equal(batch.frequencies[T][0], np.eye(2))
        np.testing.assert_array_equal(batch.final_marginals[0], (0.5 + T * np.eye(2)) / (T + 1))
        # The committed 2x2 sweep settles in few lockstep passes.
        config = load_config(CONFIGS / "montecarlo_2x2_snr20.yaml")
        games = [trial_game(config, i) for i in range(config.generator.trials)]
        batch = run_fp(games, T=config.dynamics.steps)
        assert batch.evaluations.max() <= 200
        # The paper's 2-cycle is jumped period by period.
        cycle = GameSpec.symmetric(np.ones((2, 2)), p_max=10.0)
        init = BeliefState.from_xi([0.5, 0.5])
        batch = run_fp([cycle], init, T=5000, checkpoints=(5000,))
        assert batch.evaluations[0] <= 10
        _assert_matches_oracle(batch, 0, cycle, init, 5000, "lowest")

    def test_validation(self, unit_game):
        with pytest.raises(ValueError, match="at least one"):
            run_fp([], T=10)
        with pytest.raises(ValueError, match="T must be"):
            run_fp([unit_game], T=0)
        three_channel = GameSpec.symmetric(np.ones((2, 3)), p_max=1.0)
        with pytest.raises(ValueError, match="one \\(K, S\\) shape"):
            run_fp([unit_game, three_channel], T=10)
        with pytest.raises(ValueError, match="2 initial belief states for 1 games"):
            run_fp([unit_game], [BeliefState.uniform(2, 2)] * 2, T=10)
        with pytest.raises(ValueError, match="shape"):
            run_fp([unit_game], [BeliefState.uniform(2, 3)], T=10)
        with pytest.raises(ValueError, match="same step"):
            run_fp([unit_game] * 2,
                   [BeliefState.uniform(2, 2), BeliefState(step=2, marginals=np.full((2, 2), 0.5))],
                   T=10)
        with pytest.raises(ValueError, match="2 players x 2 channels"):
            run_fp_batch_2x2([three_channel], T=10)
        via_2x2 = run_fp_batch_2x2([unit_game], T=10, checkpoints=(10,))
        direct = run_fp([unit_game], T=10, checkpoints=(10,))
        np.testing.assert_array_equal(via_2x2.actions, direct.actions)
        np.testing.assert_array_equal(via_2x2.frequencies[10], direct.frequencies[10])

    @pytest.mark.parametrize("checkpoint", [20, 0, -3])
    def test_checkpoints_outside_the_run(self, unit_game, checkpoint):
        message = f"checkpoint {checkpoint} must lie in \\[1, T\\] = \\[1, 10\\]"
        for run in (lambda c: run_fp([unit_game], T=10, checkpoints=c),
                    lambda c: run_fp(unit_game, T=10, checkpoints=c),
                    lambda c: run_fp_batch_2x2([unit_game], T=10, checkpoints=c)):
            with pytest.raises(ValueError, match=message):
                run((5, checkpoint))

    @pytest.mark.parametrize("window", [0, 11, -1])
    def test_tail_window_outside_the_run(self, unit_game, window):
        batch = run_fp([unit_game], T=10)
        with pytest.raises(ValueError, match="window must lie in \\[1, 10\\]"):
            batch.tail(window)


def _assert_cycles_match_oracle(games, inits, T, checkpoints=()):
    """Both tie-breaks: every game of the batch, and each game run alone as
    a batch of one, bit for bit against the per-step oracle."""
    batches = {}
    for tie_break in TIE_BREAKS:
        batch = run_fp(games, inits, T=T, tie_break=tie_break, checkpoints=checkpoints)
        for i, (game, init) in enumerate(zip(games, inits)):
            ref = _assert_matches_oracle(batch, i, game, init, T, tie_break)
            _assert_trajectory_matches(run_fp(game, init, T=T, tie_break=tie_break), ref)
        batches[tie_break] = batch
    return batches


# (players, channels, Dirichlet draw, period) of all-ones games that cycle.
_MULTI_PLAYER_CYCLES = [(3, 3, 0, 2), (3, 3, 2, 3), (4, 2, 0, 2), (4, 2, 2, 2), (2, 3, 1, 3)]


def _all_ones_cycle(n_players: int, n_channels: int, draw: int):
    """An all-ones game from Dirichlet beliefs: everyone crowds onto the
    same channels and flees them together, in cycles of 2 or 3 profiles."""
    rng = np.random.default_rng(10 * n_players + n_channels)
    init = [BeliefState(step=1, marginals=rng.dirichlet(np.ones(n_channels), size=n_players))
            for _ in range(draw + 1)][draw]
    return GameSpec.symmetric(np.ones((n_players, n_channels)), p_max=10.0), init


class TestCertifiedCycles:
    """Cycles of profiles are jumped whole periods at a time, exactly."""

    def test_placement_sums_are_sums_over_opponent_subsets(self):
        # The certificate's coefficients: sums[m, :, k] adds player k's
        # expected payoffs over every way to put m of its opponents at the
        # target and the others at their beliefs. Without a target only m = 0
        # is computed, the plain expectation, with the same bits.
        rng = np.random.default_rng(29)
        n_games = 3
        for n_players, n_channels in product(range(1, 6), (2, 3)):
            games = [random_game(rng, n_players, n_channels) for _ in range(n_games)]
            tables = np.stack([utility_table(game) for game in games])
            f, target = rng.dirichlet(np.ones(n_channels), (2, n_games, n_players))
            own_first = game_module._layout(tables)
            sums = game_module._expectations(own_first, f, target)
            assert sums.shape == (n_players, n_games, n_players, n_channels)
            plain = game_module._expectations(own_first, f)
            assert np.array_equal(plain.view(np.int64), sums[:1].view(np.int64))
            for g, k in product(range(n_games), range(n_players)):
                opponents = [j for j in range(n_players) if j != k]
                for m in range(n_players):
                    expected = np.zeros(n_channels)
                    for placed in combinations(opponents, m):
                        for profile in product(range(n_channels), repeat=n_players):
                            weight = math.prod((target if j in placed else f)[g, j, profile[j]]
                                               for j in opponents)
                            expected[profile[k]] += weight * tables[(g, k) + profile]
                    np.testing.assert_allclose(sums[m, g, k], expected, rtol=1e-12)

    @pytest.mark.parametrize("xi", [(0.5, 0.5), (0.2, 0.2), (0.9, 0.9), (0.3, 0.7)])
    def test_symmetric_two_cycle(self, strong_interference_game, xi):
        init = BeliefState.from_xi(xi)
        T = 3000
        for batch in _assert_cycles_match_oracle([strong_interference_game], [init], T,
                                                 (T,)).values():
            assert batch.evaluations[0] <= 10
            np.testing.assert_array_equal(batch.tail(4)[0], [[0, 0], [1, 1]] * 2)

    def test_random_near_symmetric_games(self):
        # Gains within a few percent of each other: some cycles persist,
        # others die after a while.
        rng = np.random.default_rng(107)
        games = [GameSpec.symmetric(np.exp(rng.normal(0.0, 0.03, (2, 2))),
                                    p_max=float(rng.choice([1.0, 10.0, 100.0])))
                 for _ in range(12)]
        inits = [BeliefState.from_xi(rng.uniform(0.05, 0.95, 2)) for _ in games]
        T = 1500
        batch = _assert_cycles_match_oracle(games, inits, T, (T // 3, T))["lowest"]
        switches = np.any(batch.actions[1:] != batch.actions[:-1], axis=2).sum(axis=0)
        assert np.any(switches > 10 * batch.evaluations)

    def test_checkpoints_inside_a_jumped_cycle(self, strong_interference_game):
        # An odd horizon ends on a partial period, decided step by step.
        init = BeliefState.from_xi([0.5, 0.5])
        T = 1001
        checkpoints = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 500, 501, 999, 1000, 1001)
        for batch in _assert_cycles_match_oracle([strong_interference_game], [init], T,
                                                 checkpoints).values():
            assert batch.evaluations[0] <= 10
            np.testing.assert_array_equal(batch.frequencies[500][0], np.full((2, 2), 0.5))

    @pytest.mark.parametrize("n_players, n_channels, draw, period", _MULTI_PLAYER_CYCLES)
    def test_multi_player_cycles(self, n_players, n_channels, draw, period):
        game, init = _all_ones_cycle(n_players, n_channels, draw)
        T = 600
        for batch in _assert_cycles_match_oracle([game], [init], T, (T // 2, T)).values():
            assert batch.evaluations[0] <= 10
        assert detect_cycle(run_fp(game, init, T=T), window=60).period == period

    @pytest.mark.parametrize("n_players, n_channels, draw",
                             [cycle[:3] for cycle in _MULTI_PLAYER_CYCLES])
    def test_multi_player_cycle_beliefs_across_blocks(self, monkeypatch, n_players, n_channels,
                                                      draw):
        # The view renders the beliefs of exactly the steps read. Read in
        # order, 64 or 7 steps at a time, each read starts from the visits
        # the last one carried; read in reverse order, each counts them
        # afresh off the log. All of them, and the whole field, are the
        # per-step oracle's beliefs, bit for bit.
        game, init = _all_ones_cycle(n_players, n_channels, draw)
        T = 600
        recounts, played = [], BatchFPResult._played
        monkeypatch.setattr(BatchFPResult, "_played", lambda result, t: (
            recounts.append(t) or played(result, t)))
        for tie_break in TIE_BREAKS:
            ref = oracle_run_fp(game, init.marginals, T, tie_break, step=init.step)
            traj = run_fp(game, init, T=T, tie_break=tie_break)
            for stride in (64, 7):
                starts = range(0, T, stride)
                recounts.clear()
                beliefs = [traj.steps(a, min(a + stride, T), "beliefs")[0] for a in starts]
                np.testing.assert_array_equal(np.concatenate(beliefs), ref.beliefs)
                assert recounts == ([] if stride == 64 else [0])  # at 0 after reads back to 0..64
                recounts.clear()
                beliefs = [traj.steps(a, min(a + stride, T), "beliefs")[0]
                           for a in reversed(starts)]
                np.testing.assert_array_equal(np.concatenate(beliefs[::-1]), ref.beliefs)
                assert recounts == list(reversed(starts))
            np.testing.assert_array_equal(traj.beliefs, ref.beliefs)

    def test_cycle_trajectory_csv_matches_oracle(self, tmp_path):
        # The simulate path of the paper's 2-cycle: engine, rendering and CSV
        # writer against the per-step oracle, byte for byte.
        config = load_config(CONFIGS / "symmetric_cycle.yaml")
        game, init, T = config.game, config.dynamics.initial_beliefs_for(config.game), 30_000
        ref = oracle_run_fp(game, init.marginals, T)
        ref_traj = Trajectory(variant="classic", tie_break="lowest", profiles=ref.profiles,
                              utilities=ref.utilities, potentials=ref.potentials,
                              beliefs=ref.beliefs)
        path = write_trajectory_csv(run_fp(game, init, T=T), tmp_path / "trajectory.csv")
        assert path.read_bytes() == oracle_trajectory_csv(ref_traj).encode()
