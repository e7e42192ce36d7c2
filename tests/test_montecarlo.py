"""Monte-Carlo harness: seeded generation, trial records, aggregation."""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import functools
import io
import itertools
import json
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from csgame import (
    CYCLE_WINDOW,
    GameSpec,
    generate_game,
    load_config,
    parse_config,
    run_experiment,
    run_trial,
    sample_gains,
    snr_db_to_power,
    trial_rng,
)
from csgame import aggregate_message, aggregated_utility, trial_game, utility
from csgame import analyze_game, dynamics, equilibrium, montecarlo
from csgame import game as game_module
from csgame.cli import main
from csgame.config import DynamicsSpec
from csgame.dynamics import empirical_frequencies, run_fp
from csgame.montecarlo import _trial_games, simulate_trajectory
from csgame.output import write_trial_records
from _oracles import oracle_analyze_game, oracle_mixed_mean_utility, oracle_nearest_equilibrium
from conftest import random_game, random_symmetric_2x2

ROOT = Path(__file__).resolve().parents[1]

XI_CYCLE_CONFIG = {
    "game": {
        "bandwidths": [1.0, 1.0],
        "noise": [1.0, 1.0],
        "max_power": [10.0, 10.0],
        "gains": [[1.0, 1.0], [1.0, 1.0]],
    },
    "dynamics": {"steps": 400, "initial_beliefs": {"xi": [0.5, 0.5]}},
}


class TestSeeding:
    def test_trial_rng_is_reproducible(self):
        a = trial_rng(42, 3).uniform(size=8)
        b = trial_rng(42, 3).uniform(size=8)
        np.testing.assert_array_equal(a, b)

    def test_trials_get_independent_streams(self):
        base = trial_rng(42, 0).uniform(size=8)
        other_trial = trial_rng(42, 1).uniform(size=8)
        other_seed = trial_rng(43, 0).uniform(size=8)
        assert not np.array_equal(base, other_trial)
        assert not np.array_equal(base, other_seed)

    def test_snr_conversion(self):
        assert snr_db_to_power(0.0) == 1.0
        assert snr_db_to_power(10.0) == pytest.approx(10.0, rel=1e-15)
        assert snr_db_to_power(20.0) == pytest.approx(100.0, rel=1e-15)
        assert snr_db_to_power(-10.0) == pytest.approx(0.1, rel=1e-15)

    def test_sample_gains(self):
        rng = trial_rng(0, 0)
        gains = sample_gains(rng, 3, 2, "exponential")
        assert gains.shape == (3, 2)
        assert np.all(gains > 0)
        # "rayleigh" names the same unit-mean power law (amplitude view), so
        # the draw path — and therefore any seeded run — is identical.
        exp = sample_gains(trial_rng(1, 0), 2, 2, "exponential")
        ray = sample_gains(trial_rng(1, 0), 2, 2, "rayleigh")
        np.testing.assert_array_equal(exp, ray)
        big = sample_gains(trial_rng(2, 0), 200, 200, "exponential")
        assert abs(big.mean() - 1.0) < 0.05
        with pytest.raises(ValueError, match="fading"):
            sample_gains(rng, 2, 2, "nakagami")

    def test_generate_game_structure(self):
        game = generate_game(trial_rng(7, 0), 2, 2, snr_db=20.0, fading="exponential")
        np.testing.assert_array_equal(game.bandwidths, [1.0, 1.0])
        np.testing.assert_array_equal(game.noise, [1.0, 1.0])
        np.testing.assert_allclose(game.max_power, [100.0, 100.0], rtol=1e-15)
        assert game.gains.shape == (2, 2)


class TestRunExperiment:
    def test_deterministic_across_runs(self):
        config = parse_config(
            {
                "generator": {"players": 2, "channels": 2, "snr_db": 10.0, "trials": 12},
                "dynamics": {"steps": 800},
                "seed": 5,
            }
        )
        summary_a, records_a = run_experiment(config)
        summary_b, records_b = run_experiment(config)
        assert records_a.records() == records_b.records()
        assert summary_a.to_dict() == summary_b.to_dict()

    def test_seed_changes_games(self):
        base = {"generator": {"trials": 5}, "dynamics": {"steps": 50}}
        records_a = run_experiment(parse_config(dict(base, seed=1)))[1].records()
        records_b = run_experiment(parse_config(dict(base, seed=2)))[1].records()
        assert [r["game"] for r in records_a] != [r["game"] for r in records_b]

    @pytest.mark.parametrize("tie_break", ["lowest", "highest"])
    @pytest.mark.parametrize("variant", ["classic", "aggregation"])
    @pytest.mark.parametrize("players,channels", [(2, 2), (3, 3), (4, 2), (3, 4)])
    def test_simulate_starts_as_a_sweep_trial_does(self, players, channels, variant, tie_break):
        # simulate and a sweep's chunk start from one place: trial i run on
        # its own gives the frequencies and mean payoffs of record i, bit
        # for bit, under the aggregation rule's batched initial scores too.
        steps = 200
        config = parse_config({
            "generator": {"players": players, "channels": channels, "snr_db": 10.0,
                          "trials": 12},
            "dynamics": {"variant": variant, "steps": steps, "tie_break": tie_break},
            "seed": 8,
        })
        records = run_experiment(config)[1].records()
        for i, record in enumerate(records):
            traj = simulate_trajectory(trial_game(config, i), config.dynamics)
            assert empirical_frequencies(traj).tolist() == record["dynamics"]["final_frequencies"]
            assert (traj.utility_sums / steps).tolist() == record["dynamics"]["time_avg_utility"]

    def test_fast_batch_path_matches_reference_path(self):
        # A sweep's batched records equal, bit for bit, single trials run
        # as batches of one.
        for players, channels, trials, steps in ((2, 2, 15, 600), (3, 3, 6, 300)):
            config = parse_config(
                {
                    "generator": {"players": players, "channels": channels,
                                  "snr_db": 10.0, "trials": trials},
                    "dynamics": {"steps": steps},
                    "seed": 31,
                }
            )
            fast_records = run_experiment(config)[1].records()
            games = _trial_games(config)
            assert len(fast_records) == len(games) == trials
            for i, game in enumerate(games):
                assert fast_records[i] == run_trial(i, game, config.dynamics)

    def test_sweeps_are_chunked_to_the_cell_budget(self, monkeypatch):
        # The budget is in bytes: per game, 8 * K * S**K of float64 tables
        # plus K * T actions of one byte each (up to 128 channels).
        calls = []

        def traced_run_fp(*args, **kwargs):
            result = run_fp(*args, **kwargs)
            calls.append((result.actions.size, len(args[0])))
            return result

        monkeypatch.setattr(montecarlo, "run_fp", traced_run_fp)
        # Long runs: the actions history binds.
        config = parse_config({"generator": {"players": 3, "channels": 2, "trials": 7},
                               "dynamics": {"steps": 100}, "seed": 4})
        bytes_per_game = 3 * (8 * 2**3 + 100)
        whole = run_experiment(config)[1].records()
        assert calls == [(7 * 300, 7)]
        calls.clear()
        monkeypatch.setattr(montecarlo, "_BATCH_BYTE_BUDGET", 3 * bytes_per_game + 1)
        chunked = run_experiment(config)[1].records()
        assert calls == [(900, 3), (900, 3), (300, 1)]
        assert chunked == whole
        # Short runs of many-player games: the stacked tables bind.
        config = parse_config({"generator": {"players": 4, "channels": 3, "trials": 5},
                               "dynamics": {"steps": 10}, "seed": 4})
        bytes_per_game = 4 * (8 * 3**4 + 10)
        calls.clear()
        monkeypatch.setattr(montecarlo, "_BATCH_BYTE_BUDGET", 2 * bytes_per_game)
        chunked = run_experiment(config)[1].records()
        assert [c[1] for c in calls] == [2, 2, 1]
        monkeypatch.setattr(montecarlo, "_BATCH_BYTE_BUDGET", bytes_per_game - 1)
        calls.clear()
        assert run_experiment(config)[1].records() == chunked
        assert [c[1] for c in calls] == [1] * 5  # a game over budget still runs alone
        monkeypatch.setattr(montecarlo, "_BATCH_BYTE_BUDGET", 10**9)
        calls.clear()
        assert run_experiment(config)[1].records() == chunked
        assert len(calls) == 1

    @pytest.mark.parametrize("tie_break", ["lowest", "highest"])
    def test_aggregation_sweep_in_chunks_matches_single_trials(self, monkeypatch, tie_break):
        # Aggregation sweeps go through the same chunked driver as classic
        # ones: cut into chunks of 3, 3 and 1 games, their records still
        # equal single trials, trial indices included.
        config = parse_config({
            "generator": {"players": 3, "channels": 2, "snr_db": 10.0, "trials": 7},
            "dynamics": {"variant": "aggregation", "steps": 150, "tie_break": tie_break},
            "seed": 12,
        })
        games = _trial_games(config)
        whole = run_experiment(config)[1].records()
        monkeypatch.setattr(montecarlo, "_BATCH_BYTE_BUDGET", 3 * 3 * (8 * 2**3 + 150))
        assert montecarlo._batch_size(games[0], 150) == 3
        records = run_experiment(config)[1].records()
        assert records == whole
        assert [r["trial"] for r in records] == list(range(7))
        for i, game in enumerate(games):
            assert records[i] == run_trial(i, game, config.dynamics)

    @pytest.mark.parametrize("tie_break", ["lowest", "highest"])
    def test_two_player_aggregation_records_equal_classic_ones(self, tie_break):
        # With two players both rules play the same profiles from matched
        # initial state, and one record builder reads both batches, so the
        # records differ in the variant's name alone (time_avg_utility once
        # differed in all 100 trials: the mean of per-step payoffs against
        # sums run by run).
        config = load_config(ROOT / "configs/generator_2x2_snr10.yaml")
        config = dataclasses.replace(
            config, generator=dataclasses.replace(config.generator, trials=100))
        records = {}
        for variant in ("classic", "aggregation"):
            swept = config.with_overrides(steps=2000, variant=variant, tie_break=tie_break)
            records[variant] = run_experiment(swept)[1].records()
        assert len(records["classic"]) == 100
        for classic, aggregation in zip(records["classic"], records["aggregation"]):
            assert classic["dynamics"].pop("variant") == "classic"
            assert aggregation["dynamics"].pop("variant") == "aggregation"
            assert aggregation == classic

    def test_committed_sweeps_run_as_one_batch(self):
        # The 1000-trial 2x2 config and the 3x3 generator sweep each fit the
        # byte budget whole, while a 7x3 sweep of 1000 short trials does not.
        for path in ("configs/montecarlo_2x2_snr20.yaml", "bench/workloads/sweep3x3.yaml"):
            config = load_config(ROOT / path)
            games = _trial_games(config)
            assert montecarlo._batch_size(games[0], config.dynamics.steps) >= len(games)
        wide = generate_game(trial_rng(0, 0), 7, 3, 10.0)
        assert montecarlo._batch_size(wide, 5) < 1000
        assert 7 * (8 * 3**7 + 5) * montecarlo._batch_size(wide, 5) <= 32 * 2**20

    def test_engine_calls_report_every_game_step(self, monkeypatch, tmp_path, capsys):
        # Wrap the engine where the sweep binds it and read the batch result
        # the way an outside profiler does: game steps are T * G of the
        # actions, next to the final marginals, payoff sums and frequencies.
        steps = []

        def counted_run_fp(*args, **kwargs):
            result = run_fp(*args, **kwargs)
            T, G, K = result.actions.shape
            assert result.final_marginals.shape == (G, K, 3)
            assert result.utility_sums.shape == (G, K)
            assert all(f.shape == (G, K, 3) for f in result.frequencies.values())
            steps.append(T * G)
            return result

        monkeypatch.setattr(montecarlo, "run_fp", counted_run_fp)
        path = tmp_path / "sweep.yaml"
        path.write_text(
            "generator:\n  players: 3\n  channels: 3\n  trials: 9\n"
            "dynamics:\n  steps: 70\nseed: 2\n"
            f"outputs:\n  directory: {tmp_path / 'out'}\n"
        )
        assert main(["montecarlo", str(path)]) == 0
        assert steps == [9 * 70]

    def test_cycle_record_content(self):
        config = parse_config(copy.deepcopy(XI_CYCLE_CONFIG))
        summary, records = run_experiment(config)
        assert summary.trials == 1
        record = records.records()[0]
        assert record["ne_count"] == 2
        assert record["pure_ne"] == [[0, 1], [1, 0]]
        assert record["regions"] == ["H1", "H4"]
        assert record["mixed_ne"] == [[0.5, 0.5], [0.5, 0.5]]
        dyn = record["dynamics"]
        assert dyn["outcome"] == "cycling"
        assert dyn["cycle"]["period"] == 2
        assert dyn["cycle"]["profiles"] == [[0, 0], [1, 1]]
        assert summary.convergence["cycling"] == 1
        # Payoff ordering: cycling play earns less than the mixed
        # equilibrium, which earns less than either pure equilibrium.
        cycle_payoff = float(np.mean(dyn["time_avg_utility"]))
        mixed_payoff = record["mixed_ne_mean_utility"]
        pure_payoff = float(np.mean(record["ne_utilities"]))
        assert cycle_payoff < mixed_payoff < pure_payoff
        assert cycle_payoff == pytest.approx(0.4664429020707315, abs=1e-9)
        assert mixed_payoff == pytest.approx(1.0980793556946902, abs=1e-9)
        assert pure_payoff == pytest.approx(1.7297158093186487, abs=1e-9)

    def test_aggregation_variant_uses_reference_engine(self):
        config = parse_config(
            {
                "game": {
                    "bandwidths": [1.0, 1.0],
                    "noise": [0.1, 0.1],
                    "max_power": [1.0, 1.0],
                    "gains": [[1.0, 0.2], [0.2, 1.0]],
                },
                "dynamics": {"variant": "aggregation", "steps": 400},
            }
        )
        summary, records = run_experiment(config)
        record = records.records()[0]
        assert record["dynamics"]["variant"] == "aggregation"
        assert record["dynamics"]["outcome"] == "pure"
        assert record["dynamics"]["cycle"]["profiles"] == [[0, 1]]
        assert summary.convergence["pure"] == 1

    def test_zero_trials(self):
        config = parse_config({"generator": {"trials": 0}, "seed": 0})
        summary, records = run_experiment(config)
        assert len(records) == 0 and records.records() == []
        assert summary.trials == 0
        assert summary.ne_count_histogram == {}
        assert summary.payoffs["mean_time_avg_utility"] is None
        assert summary.payoffs["trials_with_mixed"] == 0
        json.dumps(summary.to_dict())

    def test_histogram_masses(self):
        config = parse_config(
            {
                "generator": {"players": 2, "channels": 2, "snr_db": 10.0, "trials": 30},
                "dynamics": {"steps": 300},
                "seed": 8,
            }
        )
        summary, records = run_experiment(config)
        assert sum(summary.ne_count_histogram.values()) == 30
        assert sum(summary.region_histogram.values()) == 30
        assert sum(summary.convergence.values()) == 30
        assert summary.trials == 30
        # The summary is a pure function of the records.
        for record in records.records():
            assert record["dynamics"]["outcome"] in summary.convergence

    def test_summary_matches_record_arithmetic(self):
        config = parse_config(
            {
                "generator": {"players": 2, "channels": 2, "snr_db": 10.0, "trials": 20},
                "dynamics": {"steps": 300},
                "seed": 13,
            }
        )
        summary, records = run_experiment(config)
        records = records.records()
        realized = [float(np.mean(r["dynamics"]["time_avg_utility"])) for r in records]
        assert summary.payoffs["mean_time_avg_utility"] == pytest.approx(
            float(np.mean(realized)), abs=1e-15
        )
        best = [max(float(np.mean(u)) for u in r["ne_utilities"]) for r in records]
        assert summary.payoffs["mean_best_pure_ne_utility"] == pytest.approx(
            float(np.mean(best)), abs=1e-15
        )
        mixed = [r["mixed_ne_mean_utility"] for r in records if r["mixed_ne"] is not None]
        assert summary.payoffs["trials_with_mixed"] == len(mixed)

    def test_three_channel_games_use_reference_path(self):
        config = parse_config(
            {
                "generator": {"players": 2, "channels": 3, "snr_db": 10.0, "trials": 4},
                "dynamics": {"steps": 200},
                "seed": 3,
            }
        )
        summary, records = run_experiment(config)
        assert summary.trials == 4
        for record in records.records():
            assert len(record["dynamics"]["final_frequencies"][0]) == 3
            assert 1 <= record["ne_count"] <= 3

    def test_short_runs_shrink_the_cycle_window(self):
        config = parse_config(copy.deepcopy(XI_CYCLE_CONFIG))
        short = parse_config(
            dict(copy.deepcopy(XI_CYCLE_CONFIG), dynamics={"steps": 10,
                 "initial_beliefs": {"xi": [0.5, 0.5]}})
        )
        assert short.dynamics.steps < CYCLE_WINDOW
        records = run_experiment(short)[1].records()
        assert records[0]["dynamics"]["cycle"]["period"] == 2
        full = run_experiment(config)[1].records()
        assert full[0]["dynamics"]["cycle"]["period"] == 2


class TestRecords:
    def test_records_are_json_serializable(self):
        config = parse_config(
            {"generator": {"trials": 3}, "dynamics": {"steps": 100}, "seed": 21}
        )
        records = run_experiment(config)[1].records()
        parsed = json.loads(json.dumps(records))
        assert parsed == records

    def test_a_sweep_is_counted_and_written_without_record_dicts(self, tmp_path, monkeypatch):
        # A sweep's records stay as columns: its length and its trial files
        # are read off them, so neither run_experiment nor the CLI builds a
        # record dict.
        monkeypatch.setattr(montecarlo._Chunk, "records", None)  # no dict may be built
        config = load_config(ROOT / "configs/montecarlo_2x2_snr20.yaml").with_overrides(steps=50)
        assert len(run_experiment(config)[1]) == config.trials == 1000
        assert main(["montecarlo", str(ROOT / "configs/montecarlo_2x2_snr20.yaml"),
                     "--steps", "50", "--out", str(tmp_path / "cli")]) == 0
        assert len(list((tmp_path / "cli" / "trials").iterdir())) == 1000

    def test_run_trial_fields(self, worked_mixed_game):
        record = run_trial(0, worked_mixed_game, DynamicsSpec(steps=300))
        assert record["schema_version"] == 1
        assert record["trial"] == 0
        assert GameSpec.from_dict(record["game"]).gains.tolist() == [[1.0, 0.5], [0.5, 1.0]]
        assert record["ne_count"] == 2
        assert record["regions"] == ["H1", "H4"]
        assert record["mixed_ne"] is not None
        dyn = record["dynamics"]
        assert dyn["steps"] == 300
        assert dyn["outcome"] in ("pure", "mixed", "cycling", "undetermined")
        assert dyn["nearest_ne_tv"] is not None


def _bits(value):
    return None if value is None else float(value).hex()


class TestChunkAnalysis:
    """A chunk's records read the mixed-equilibrium payoff and the nearest
    equilibrium point off the chunk's analysis columns, bit for bit what the
    per-record oracles compute."""

    def _games(self):
        rng = np.random.default_rng(83)
        ones = [[1.0, 1.0], [1.0, 1.0]]
        return [random_symmetric_2x2(rng, snr) for snr in (0.3, 3.0, 30.0)
                for _ in range(40)] + [
            GameSpec.symmetric(ones, p_max=10.0),  # mixed exactly one half
            GameSpec.symmetric(ones, p_max=1e-9),  # four tied pure equilibria
            GameSpec.symmetric([[2.0, 1.0], [1.0, 1.0]], p_max=1.0),  # no interior point
            GameSpec(bandwidths=[1.0, 2.0], noise=[1.0, 1.0], max_power=[3.0, 3.0],
                     gains=[[1.0, 0.5], [0.4, 1.2]]),  # outside the 2x2 setting
        ]

    def test_mixed_payoffs_match_the_per_record_oracle(self):
        # The mixed payoff is a column of the analysis, which a chunk keeps
        # as it is: the batch's columns and the chunk's hold the oracle's bits.
        games = self._games()
        chunk = montecarlo._records(0, games, DynamicsSpec(steps=1))
        expected = [oracle_mixed_mean_utility(g, oracle_analyze_game(g)) for g in games]
        assert sum(m is not None for m in expected) > 20
        for columns in (equilibrium._analysis_columns(game_module._game_batch(games)[0]),
                        chunk.analysis):
            assert columns.mixed.tolist() == [m is not None for m in expected]
            means = [m if mixed else None
                     for m, mixed in zip(columns.mixed_ne_mean_utility.tolist(), columns.mixed)]
            assert [_bits(m) for m in means] == [_bits(m) for m in expected]
            assert not columns.mixed_ne_mean_utility[~columns.mixed].any()

    @pytest.mark.parametrize("n_players,n_channels", [(2, 2), (3, 3), (1, 4)])
    def test_nearest_points_match_the_per_record_oracle(self, n_players, n_channels):
        rng = np.random.default_rng(89 + n_players)
        if (n_players, n_channels) == (2, 2):
            games = self._games()
        else:
            games = [random_game(rng, n_players, n_channels) for _ in range(30)]
        reports = [oracle_analyze_game(g) for g in games]
        eye = np.eye(n_channels)
        freqs = rng.dirichlet(np.ones(n_channels), size=(len(games), n_players))
        for g, report in enumerate(reports):
            # Points on an equilibrium, and halfway between two of them.
            if g % 3 == 0 and report.mixed_ne is not None:
                freqs[g] = report.mixed_ne
            elif g % 3 == 1:
                freqs[g] = eye[list(report.pure_ne[-1])]
            elif len(report.pure_ne) >= 2:
                freqs[g] = 0.5 * (eye[list(report.pure_ne[0])] + eye[list(report.pure_ne[1])])
        if (n_players, n_channels) == (2, 2):
            # Equally far, 0.25, from the pure (0, 1) and the mixed point
            # (0.5, 0.5) of the fully symmetric game: the pure one wins.
            symmetric = len(games) - 4
            assert reports[symmetric].mixed_ne.tolist() == [[0.5, 0.5], [0.5, 0.5]]
            freqs[symmetric] = [[0.75, 0.25], [0.25, 0.75]]
        # The chunk's analysis columns, built from the oracle's reports.
        game_of = np.repeat(np.arange(len(games)), [len(r.pure_ne) for r in reports])
        pure_ne = np.array([p for r in reports for p in r.pure_ne], dtype=np.int64)
        mixed = np.array([r.mixed_ne is not None for r in reports])
        mixed_ne = np.array([np.zeros((n_players, n_channels)) if r.mixed_ne is None
                             else r.mixed_ne for r in reports])
        kinds, tvs = montecarlo._nearest_equilibria(
            freqs, game_of, pure_ne.reshape(len(game_of), n_players), mixed, mixed_ne)
        expected = [oracle_nearest_equilibrium(f, r, n_channels) for f, r in zip(freqs, reports)]
        assert kinds.tolist() == [kind for kind, _ in expected]
        if n_channels == 2:
            assert {"pure", "mixed"} <= set(kinds.tolist())
        assert [_bits(tv) for tv in tvs] == [_bits(tv) for _, tv in expected]

    @pytest.mark.parametrize("variant", ["classic", "aggregation"])
    def test_sweep_records_match_the_per_record_oracles(self, variant):
        config = parse_config({
            "generator": {"players": 2, "channels": 2, "snr_db": 5.0, "trials": 60},
            "dynamics": {"variant": variant, "steps": 300}, "seed": 21,
        })
        records = run_experiment(config)[1].records()
        for game, record in zip(_trial_games(config), records):
            report = oracle_analyze_game(game)
            freq = np.array(record["dynamics"]["final_frequencies"])
            _, tv = oracle_nearest_equilibrium(freq, report, game.S)
            assert _bits(record["dynamics"]["nearest_ne_tv"]) == _bits(tv)
            assert (_bits(record["mixed_ne_mean_utility"])
                    == _bits(oracle_mixed_mean_utility(game, report)))
            assert record["ne_utilities"] == report.utilities.tolist()
            assert record["ne_potentials"] == report.potentials.tolist()

    @pytest.mark.parametrize("variant", ["classic", "aggregation"])
    def test_a_sweep_builds_its_utility_tables_once_per_chunk(self, monkeypatch, variant):
        # The stacked table function, wrapped where the batch binds it: one
        # call per chunk (7 games, then chunks of 3, 3 and 1), with that
        # chunk's games in order. The classic engine, the aggregation start
        # and the analysis read the chunk batch's one stack. No table is
        # built for a single game: neither the engine nor the analysis binds
        # the single-game table function.
        built = []
        stacked = game_module._utility_tables

        def counted(games):
            built.append([g.gains.tolist() for g in games])
            return stacked(games)

        monkeypatch.setattr(game_module, "_utility_tables", counted)
        for module in (dynamics, equilibrium, montecarlo):
            assert not hasattr(module, "utility_table")
        analyses = []

        def counted_analysis(games):
            analyses.append(len(games))
            return equilibrium._analysis_columns(games)

        monkeypatch.setattr(montecarlo, "_analysis_columns", counted_analysis)
        config = parse_config({
            "generator": {"players": 3, "channels": 2, "snr_db": 10.0, "trials": 7},
            "dynamics": {"variant": variant, "steps": 40}, "seed": 6,
        })
        gains = [g.gains.tolist() for g in _trial_games(config)]
        whole = run_experiment(config)[1].records()
        assert built == [gains] and analyses == [7]
        built.clear()
        analyses.clear()
        monkeypatch.setattr(montecarlo, "_BATCH_BYTE_BUDGET", 3 * 3 * (8 * 2**3 + 40))
        chunked = run_experiment(config)[1].records()
        assert analyses == [3, 3, 1]
        assert built == [gains[0:3], gains[3:6], gains[6:7]]
        assert chunked == whole

    @pytest.mark.parametrize("variant", ["classic", "aggregation"])
    def test_a_sweep_reads_no_table_in_montecarlo(self, monkeypatch, variant):
        # A chunk composes the engine's result and the analysis' columns:
        # every read of a batch's utility tables comes from the engine, the
        # aggregation start or the analysis, none from montecarlo itself.
        readers = []
        tables = game_module._Batch.tables

        def spied(batch):
            readers.append(sys._getframe(1).f_globals["__name__"])
            return tables.__get__(batch, type(batch))

        monkeypatch.setattr(game_module._Batch, "tables", property(spied))
        config = parse_config({
            "generator": {"players": 2, "channels": 2, "snr_db": 10.0, "trials": 40},
            "dynamics": {"variant": variant, "steps": 60}, "seed": 5,
        })
        summary, _ = run_experiment(config)
        assert summary.payoffs["trials_with_mixed"] > 0
        assert "csgame.equilibrium" in readers
        assert "csgame.montecarlo" not in readers

    @pytest.mark.parametrize("variant", ["classic", "aggregation"])
    def test_a_potential_table_is_built_only_for_2x2_mixed_points(self, monkeypatch, variant):
        # The analysis computes each pure equilibrium's potential from its
        # profile; only the common-budget 2x2 branch builds potential tables,
        # for the mixed points, once per chunk (7 games, then chunks of 3, 3
        # and 1). No table is built for a 3x2 sweep or a 3x3 game.
        built = []
        table = equilibrium.potential_table

        def counted(games):
            built.append(len(games))
            return table(games)

        monkeypatch.setattr(equilibrium, "potential_table", counted)

        def sweep(players):
            return parse_config({
                "generator": {"players": players, "channels": 2, "snr_db": 10.0, "trials": 7},
                "dynamics": {"variant": variant, "steps": 40}, "seed": 6,
            })

        run_experiment(sweep(3))
        analyze_game(random_game(np.random.default_rng(5), 3, 3))
        assert built == []
        config = sweep(2)
        whole = run_experiment(config)[1].records()
        assert built == [7]
        built.clear()
        monkeypatch.setattr(montecarlo, "_BATCH_BYTE_BUDGET", 3 * (8 * 2 * 2**2 + 2 * 40))
        assert run_experiment(config)[1].records() == whole
        assert built == [3, 3, 1]

    @pytest.mark.parametrize("variant", ["classic", "aggregation"])
    def test_a_sweep_builds_no_equilibrium_report(self, monkeypatch, variant):
        # A chunk reads its equilibria as the analysis columns; a report is
        # built only for a caller of analyze_game.
        built = []
        init = equilibrium.EquilibriumReport.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(equilibrium.EquilibriumReport, "__init__", counted)
        analyze_game(GameSpec.symmetric(np.ones((2, 2)), p_max=10.0))
        assert len(built) == 1
        built.clear()
        config = parse_config({
            "generator": {"players": 2, "channels": 2, "snr_db": 10.0, "trials": 60},
            "dynamics": {"variant": variant, "steps": 50}, "seed": 4,
        })
        summary, records = run_experiment(config)
        assert len(records) == 60 and summary.payoffs["trials_with_mixed"] > 0
        assert built == []

    @pytest.mark.parametrize("variant", ["classic", "aggregation"])
    def test_a_chunk_past_the_enumeration_guard_exits_two(self, variant, tmp_path, capsys):
        # 2**24 profiles: the first game's table is refused before any is built.
        path = tmp_path / "wide.yaml"
        path.write_text(
            "generator:\n  players: 24\n  channels: 2\n  trials: 3\n"
            f"dynamics:\n  variant: {variant}\n  steps: 10\nseed: 1\n"
            f"outputs:\n  directory: {tmp_path / 'out'}\n"
        )
        assert main(["montecarlo", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: S**K = 16777216 profiles exceeds the enumeration guard of 10000000\n"
        )
        assert not (tmp_path / "out").exists()


@st.composite
def generator_configs(draw):
    """Sweeps of 1-4 generated games of 1-4 players on 1-3 channels, at an
    SNR anywhere from -300 to 3000 dB, under either fading law, for at most
    200 steps."""
    return {
        "generator": {"players": draw(st.integers(1, 4)), "channels": draw(st.integers(1, 3)),
                      "snr_db": draw(st.floats(-300.0, 3000.0)),
                      "fading": draw(st.sampled_from(["exponential", "rayleigh"])),
                      "trials": draw(st.integers(1, 4))},
        "dynamics": {"steps": draw(st.integers(1, 200))},
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


@settings(deadline=None, max_examples=60)
@given(generator_configs())
def test_property_generated_sweeps_run_and_reconstruct_their_payoffs(config):
    # Every sweep runs to exit 0 under both rules, and every generated
    # game's payoffs reconstructed from the broadcast aggregate stay within
    # 4 ulps of the larger of 1 and the payoff itself.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep.yaml"
        path.write_text(yaml.safe_dump(config))
        for variant in ("classic", "aggregation"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["montecarlo", str(path), "--variant", variant,
                             "--out", f"{tmp}/{variant}"]) == 0
        sweep = load_config(path)
    for index in range(sweep.trials):
        game = trial_game(sweep, index)
        for profile in itertools.product(range(game.S), repeat=game.K):
            gamma = aggregate_message(game, profile)
            for k in range(game.K):
                payoff = utility(game, profile, k)
                assert abs(aggregated_utility(game, k, profile[k], gamma) - payoff) <= (
                    4 * np.finfo(float).eps * max(1.0, abs(payoff)))


def test_a_cycling_chunk_reads_its_records_within_the_byte_budget():
    # The paper's 2-cycle switches at every step. Reading the records of ten
    # such games (counts, counted payoff sums, the trailing window) goes
    # through the decision log's few entries, so it peaks within the bytes
    # _BATCH_BYTE_BUDGET counts for the chunk: per game, its table and K
    # channel indices per step.
    config = load_config(ROOT / "configs/symmetric_cycle.yaml").with_overrides(steps=10**5)
    game, T = config.game, config.dynamics.steps
    budget = 10 * (8 * game.K * game.S**game.K
                   + game.K * T * dynamics._action_dtype(game.S).itemsize)
    tracemalloc.start()
    try:
        chunk = montecarlo._records(0, [game] * 10, config.dynamics)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert chunk.periods.tolist() == [2] * 10
    assert peak <= budget


@pytest.mark.parametrize("variant", ["classic", "aggregation"])
def test_a_chunk_checks_the_shape_of_its_games_once(monkeypatch, variant):
    # The engine, the analysis and the potential tables all take the
    # chunk's games; only the first look walks them to compare shapes, and
    # their arrays are stacked once: the tables, the 2x2 check and the
    # records' game columns all read the batch's stacks.
    games = [generate_game(trial_rng(5, i), 2, 2, 20.0) for i in range(40)]
    walks, builds, batches = [], [], []

    class Batch(game_module._Batch):
        def __init__(self, games):
            walks.append(len(games))
            batches.append(self)
            super().__init__(games)

        @functools.cached_property
        def stacks(self):
            builds.append(len(self))
            return super().stacks

    monkeypatch.setattr(game_module, "_Batch", Batch)
    chunk = montecarlo._records(0, games, DynamicsSpec(steps=50, variant=variant))
    assert walks == [len(games)]
    assert builds == [len(games)]
    [batch] = batches
    for key, column in chunk.games.items():
        assert column is batch.stacks[key]


@pytest.mark.parametrize("variant", ["classic", "aggregation"])
def test_a_sweep_stacks_its_games_once(monkeypatch, tmp_path, variant):
    # A sweep's games are checked and stacked once, by _game_stack, before
    # any is played; its chunks (3, 3 and 1 games) are slices of that batch,
    # whose stacks are views of the sweep's, so no chunk stacks its games
    # again. The trial files are those of chunks stacked apart, byte for byte.
    builds = []

    class Batch(game_module._Batch):
        @functools.cached_property
        def stacks(self):
            builds.append(len(self))
            return super().stacks

    config = parse_config({
        "generator": {"players": 3, "channels": 2, "snr_db": 10.0, "trials": 7},
        "dynamics": {"variant": variant, "steps": 40}, "seed": 6,
    })
    monkeypatch.setattr(montecarlo, "_BATCH_BYTE_BUDGET", 3 * 3 * (8 * 2**3 + 40))
    monkeypatch.setattr(game_module, "_Batch", Batch)
    records = run_experiment(config)[1]
    assert [len(chunk.trials) for chunk in records.chunks] == [3, 3, 1]
    assert builds == []
    games = list(_trial_games(config))
    apart = montecarlo.SweepRecords([montecarlo._records(a, games[a:a + 3], config.dynamics)
                                     for a in range(0, 7, 3)])
    assert builds == [3, 3, 1]
    paths = write_trial_records(records, tmp_path / "sliced")
    for path, other in zip(paths, write_trial_records(apart, tmp_path / "apart"), strict=True):
        assert path.read_bytes() == other.read_bytes()
