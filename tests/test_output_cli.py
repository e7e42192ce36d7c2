"""File outputs (deterministic bytes, round trips) and the CLI front end."""

from __future__ import annotations

import filecmp
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from csgame import (
    BeliefState,
    GameSpec,
    SweepRecords,
    Trajectory,
    emit_plot_data,
    generate_game,
    load_config,
    parse_config,
    read_trajectory_csv,
    run_aggregation_fp,
    run_experiment,
    run_fp,
    snr_db_to_power,
    trial_rng,
    write_summary_json,
    write_trajectory_csv,
    write_trajectory_json,
    write_trial_records,
)
from csgame import cli, output
from csgame.cli import main
from csgame.montecarlo import simulate_trajectory
from csgame.output import _strings, dumps_json, write_json
from _oracles import (
    oracle_plot_csv,
    oracle_regions_2x2,
    oracle_trajectory_csv,
    oracle_trajectory_json,
)
from conftest import random_game

INLINE_GAME_YAML = """\
game:
  bandwidths: [1.0, 1.0]
  noise: [1.0, 1.0]
  max_power: [10.0, 10.0]
  gains:
    - [1.0, 1.0]
    - [1.0, 1.0]
dynamics:
  steps: 200
  initial_beliefs:
    xi: [0.5, 0.5]
"""

GENERATOR_YAML = """\
generator:
  players: 2
  channels: 2
  snr_db: 10.0
  trials: 6
dynamics:
  steps: 300
seed: 17
"""


CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Every committed config, with the subcommand its header and the README run
# it with and the files that run writes.
COMMITTED_CONFIGS = {
    "aggregation_demo.yaml": ("simulate", ["run_summary.json", "trajectory.json"]),
    "generator_2x2_snr10.yaml": ("regions", ["regions.csv", "regions.json"]),
    "mixed_worked_example.yaml": ("equilibria", ["equilibria.json"]),
    "montecarlo_2x2_snr20.yaml": ("montecarlo", ["summary.json", "trials"]),
    "symmetric_cycle.yaml": ("simulate", ["run_summary.json", "trajectory.csv"]),
    "unique_ne.yaml": ("simulate", ["run_summary.json", "trajectory.csv"]),
}


def _empty_trajectory() -> Trajectory:
    return Trajectory(
        variant="classic",
        tie_break="lowest",
        profiles=np.empty((0, 2), dtype=np.int64),
        utilities=np.empty((0, 2)),
        potentials=np.empty(0),
        beliefs=np.empty((0, 2, 2)),
    )


class TestFloatFormatting:
    """The writers' one rule for a float cell: ``_strings`` on a float block."""

    def test_round_trip_is_exact(self):
        block = np.random.default_rng(0).uniform(-1e6, 1e6, (100, 2))
        strings = _strings(block)
        assert strings.shape == block.shape
        for x, text in zip(block.ravel().tolist(), strings.ravel().tolist()):
            assert float(text) == x

    def test_shortest_form(self):
        assert _strings(np.array([0.1, 0.5, 2.0])).tolist() == ["0.1", "0.5", "2.0"]


class TestWriteJson:
    def test_sorted_keys_and_trailing_newline(self, tmp_path):
        path = write_json({"b": 1, "a": 2}, tmp_path / "x.json")
        text = path.read_text()
        assert text == '{\n  "a": 2,\n  "b": 1\n}\n'

    def test_creates_parent_directories(self, tmp_path):
        path = write_json({"k": 1}, tmp_path / "deep" / "nested" / "x.json")
        assert path.is_file()

    def test_byte_identical_rewrites(self, tmp_path):
        payload = {"values": [0.1, 0.2, 1 / 3], "n": 7}
        a = write_json(payload, tmp_path / "a.json")
        b = write_json(payload, tmp_path / "b.json")
        assert a.read_bytes() == b.read_bytes()


class TestTrajectoryCsv:
    def test_classic_round_trip(self, worked_mixed_game, tmp_path):
        traj = run_fp(worked_mixed_game, T=40)
        path = write_trajectory_csv(traj, tmp_path / "run.csv")
        header = path.read_text().splitlines()[0]
        assert header == "t,player,channel,utility,potential,belief_1,belief_2"
        back = read_trajectory_csv(path)
        assert back.variant == "classic"
        np.testing.assert_array_equal(back.profiles, traj.profiles)
        np.testing.assert_array_equal(back.utilities, traj.utilities)
        np.testing.assert_array_equal(back.potentials, traj.potentials)
        np.testing.assert_array_equal(back.beliefs, traj.beliefs)

    def test_aggregation_round_trip(self, worked_mixed_game, tmp_path):
        traj = run_aggregation_fp(worked_mixed_game, T=40)
        path = write_trajectory_csv(traj, tmp_path / "run.csv")
        header = path.read_text().splitlines()[0]
        assert header == "t,player,channel,utility,potential,q_1,q_2"
        back = read_trajectory_csv(path)
        assert back.variant == "aggregation"
        np.testing.assert_array_equal(back.profiles, traj.profiles)
        np.testing.assert_array_equal(back.q_values, traj.q_values)
        assert back.gammas is None  # not part of the CSV schema

    def test_steps_are_one_based(self, worked_mixed_game, tmp_path):
        traj = run_fp(worked_mixed_game, T=3)
        lines = write_trajectory_csv(traj, tmp_path / "run.csv").read_text().splitlines()
        first_fields = lines[1].split(",")
        assert first_fields[0] == "1"
        assert lines[-1].split(",")[0] == "3"

    def test_empty_trajectory_writes_header_only(self, tmp_path):
        path = write_trajectory_csv(_empty_trajectory(), tmp_path / "empty.csv")
        assert path.read_text().splitlines() == [
            "t,player,channel,utility,potential,belief_1,belief_2"
        ]
        back = read_trajectory_csv(path)
        assert back.T == 0
        assert back.variant == "classic"

    def test_byte_identical_rewrites(self, worked_mixed_game, tmp_path):
        traj = run_fp(worked_mixed_game, T=25)
        a = write_trajectory_csv(traj, tmp_path / "a.csv")
        b = write_trajectory_csv(traj, tmp_path / "b.csv")
        assert a.read_bytes() == b.read_bytes()


class TestTrajectoryJson:
    def test_full_fidelity_payload(self, worked_mixed_game, tmp_path):
        init = BeliefState.from_xi([0.3, 0.6])
        traj = run_fp(worked_mixed_game, init, T=5)
        payload = json.loads(
            write_trajectory_json(traj, tmp_path / "run.json").read_text()
        )
        assert payload["schema_version"] == 1
        assert payload["variant"] == "classic"
        assert payload["tie_break"] == "lowest"
        assert payload["initial_step"] == 1
        assert payload["final_step"] == 6
        np.testing.assert_array_equal(payload["initial_state"], init.marginals)
        np.testing.assert_array_equal(payload["final_state"], traj.final_state)
        assert len(payload["steps"]) == 5
        step1 = payload["steps"][0]
        assert step1["t"] == 1
        assert step1["profile"] == traj.profiles[0].tolist()
        assert step1["belief"] == init.marginals.tolist()
        assert "gamma" not in step1

    @pytest.mark.parametrize("engine", [run_fp, run_aggregation_fp])
    def test_numpy_integer_horizon(self, worked_mixed_game, engine, tmp_path):
        # The horizon is checked as an integer and carried as an int, so a
        # numpy one leaks into no step field and the JSON writer takes it.
        traj = engine(worked_mixed_game, T=np.int64(5))
        assert type(traj.T) is int and traj.T == 5
        assert type(traj.initial_step) is int and type(traj.final_step) is int
        batch = engine([worked_mixed_game], T=np.int64(5))
        assert type(batch.T) is int and type(batch.final_step) is int
        written = write_trajectory_json(traj, tmp_path / "numpy.json").read_bytes()
        plain = engine(worked_mixed_game, T=5)
        assert written == write_trajectory_json(plain, tmp_path / "int.json").read_bytes()

    def test_aggregation_payload_includes_gamma(self, worked_mixed_game, tmp_path):
        traj = run_aggregation_fp(worked_mixed_game, T=4)
        payload = json.loads(
            write_trajectory_json(traj, tmp_path / "run.json").read_text()
        )
        assert payload["variant"] == "aggregation"
        for t, step in enumerate(payload["steps"]):
            assert step["gamma"] == traj.gammas[t].tolist()
            assert step["q"] == traj.q_values[t].tolist()


ODD_FLOATS = [-0.0, 5e-324, 1e16, 0.0, 0.1, 1 / 3, 1e-7, 123456789.125, 2.0**-1022, 1e308]


def _odd_trajectory(variant: str, T: int, n_players: int, n_channels: int) -> Trajectory:
    """A hand-made trajectory whose every float column cycles through values
    with awkward shortest forms (signed zero, subnormals, exponent switch)."""
    def fill(*shape):
        size = int(np.prod(shape))
        return np.resize(np.array(ODD_FLOATS), size).reshape(shape)

    state = fill(T, n_players, n_channels)
    return Trajectory(
        variant=variant,
        tie_break="highest",
        profiles=np.arange(T * n_players).reshape(T, n_players) % n_channels,
        utilities=fill(T, n_players)[::-1],
        potentials=-fill(T),
        beliefs=state if variant == "classic" else None,
        q_values=state if variant == "aggregation" else None,
        gammas=fill(T, n_channels) if variant == "aggregation" else None,
        initial_step=3,
        initial_state=fill(n_players, n_channels),
        final_step=T + 3,
        final_state=-fill(n_players, n_channels),
    )


def _engine_trajectories(T: int):
    rng = np.random.default_rng(T)
    game = random_game(rng, 3, 4)
    yield run_fp(game, T=T, tie_break="highest")
    yield run_aggregation_fp(game, T=T)
    lone = random_game(rng, 1, 2)
    yield run_fp(lone, T=T)
    yield run_aggregation_fp(lone, T=T)


class TestBulkRenderingAgainstStdlib:
    """The bulk writers equal, byte for byte, the whole-payload standard
    encoder and row-by-row ``csv.writer`` they replaced."""

    def _check_all(self, traj, tmp_path):
        json_path = output.write_trajectory_json(traj, tmp_path / "t.json")
        assert json_path.read_bytes() == oracle_trajectory_json(traj).encode()
        csv_path = output.write_trajectory_csv(traj, tmp_path / "t.csv")
        assert csv_path.read_bytes() == oracle_trajectory_csv(traj).encode()
        for kind in ("beliefs", "utilities"):
            plot = emit_plot_data(traj, kind, tmp_path / f"{kind}.csv")
            assert plot.read_bytes() == oracle_plot_csv(traj, kind).encode()

    @pytest.mark.parametrize("T", [1, 3, 4, 5, 8, 9])
    def test_chunk_boundaries(self, T, tmp_path, monkeypatch):
        monkeypatch.setattr(output, "_CHUNK_STEPS", 4)
        for traj in _engine_trajectories(T):
            self._check_all(traj, tmp_path)
        for variant in ("classic", "aggregation"):
            self._check_all(_odd_trajectory(variant, T, 2, 3), tmp_path)

    def test_default_chunk_boundary(self, tmp_path):
        chunk = output._CHUNK_STEPS
        for T in (chunk, chunk + 1):
            for traj in _engine_trajectories(T):
                self._check_all(traj, tmp_path)

    def test_odd_floats_one_player_one_channel(self, tmp_path):
        for variant in ("classic", "aggregation"):
            for n_channels in (1, 2):
                traj = _odd_trajectory(variant, 2 * len(ODD_FLOATS), 1, n_channels)
                self._check_all(traj, tmp_path)
        text = (tmp_path / "t.json").read_text()
        for x in ODD_FLOATS:
            assert repr(x) in text

    def test_trajectory_without_state_snapshots(self, tmp_path):
        traj = _odd_trajectory("classic", 5, 2, 3)
        traj.beliefs = None
        json_path = output.write_trajectory_json(traj, tmp_path / "t.json")
        assert json_path.read_bytes() == oracle_trajectory_json(traj).encode()
        csv_path = output.write_trajectory_csv(traj, tmp_path / "t.csv")
        assert csv_path.read_bytes() == oracle_trajectory_csv(traj).encode()

    @pytest.mark.parametrize("variant", ["classic", "aggregation"])
    def test_belief_plot_without_state_snapshots(self, variant, tmp_path):
        # A trajectory without the state names what is missing; the utility
        # series needs no state.
        traj = _odd_trajectory(variant, 5, 2, 3)
        traj.beliefs = traj.q_values = None
        with pytest.raises(ValueError, match="no per-step state snapshots"):
            emit_plot_data(traj, "beliefs", tmp_path / "beliefs.csv")
        assert not (tmp_path / "beliefs.csv").exists()
        plot = emit_plot_data(traj, "utilities", tmp_path / "utilities.csv")
        assert plot.read_bytes() == oracle_plot_csv(traj, "utilities").encode()

    def test_empty_trajectory(self, tmp_path):
        traj = _empty_trajectory()
        traj.initial_state = traj.final_state = np.empty((2, 2))
        assert (output.write_trajectory_json(traj, tmp_path / "t.json").read_bytes()
                == oracle_trajectory_json(traj).encode())

    def test_region_scatter(self, tmp_path):
        config = parse_config({"generator": {"trials": 9}, "dynamics": {"steps": 5}, "seed": 3})
        records = run_experiment(config)[1].records()
        path = emit_plot_data(records, "regions", tmp_path / "regions.csv")
        assert path.read_bytes() == oracle_plot_csv(records, "regions").encode()


class TestStrictJson:
    def test_write_json_refuses_non_finite_floats(self, tmp_path):
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match="JSON compliant"):
                write_json({"x": [1.0, bad]}, tmp_path / "bad.json")
        assert not (tmp_path / "bad.json").exists()

    @pytest.mark.parametrize("field", ["utilities", "q_values", "gammas", "final_state"])
    def test_trajectory_json_refuses_non_finite_floats(self, field, tmp_path):
        traj = _odd_trajectory("aggregation", 6, 2, 3)
        getattr(traj, field).flat[-1] = np.nan if field == "gammas" else np.inf
        with pytest.raises(ValueError, match="JSON compliant"):
            output.write_trajectory_json(traj, tmp_path / "bad.json")
        assert not (tmp_path / "bad.json").exists()
        # CSV has no such restriction and still writes what csv.writer would.
        path = output.write_trajectory_csv(traj, tmp_path / "ok.csv")
        assert path.read_bytes() == oracle_trajectory_csv(traj).encode()


class TestTrialRecords:
    def test_file_naming_and_content(self, tmp_path):
        config = parse_config(
            {"generator": {"trials": 3}, "dynamics": {"steps": 50}, "seed": 2}
        )
        summary, records = run_experiment(config)
        paths = write_trial_records(records, tmp_path / "trials")
        assert [p.name for p in paths] == [
            "trial_00000.json",
            "trial_00001.json",
            "trial_00002.json",
        ]
        for path, record in zip(paths, records.records()):
            assert json.loads(path.read_text()) == record
        summary_path = write_summary_json(summary, tmp_path / "summary.json")
        assert json.loads(summary_path.read_text()) == summary.to_dict()

    @pytest.mark.parametrize("config", [
        # Regions and mixed equilibria, under each rule.
        {"generator": {"trials": 200, "snr_db": 10.0}, "dynamics": {"steps": 300}, "seed": 4},
        {"generator": {"trials": 200, "snr_db": 10.0},
         "dynamics": {"variant": "aggregation", "steps": 300}, "seed": 4},
        # No regions and no mixed point; runs that settle and runs that do not.
        {"generator": {"players": 3, "channels": 3, "trials": 60}, "dynamics": {"steps": 60},
         "seed": 5},
        # The paper's 2-cycle.
        str(CONFIGS / "symmetric_cycle.yaml"),
    ])
    def test_trial_files_equal_the_standard_encoder(self, config, tmp_path):
        # Trial files are filled into one template per record skeleton from
        # the sweep's columns; each equals the encoder's layout of its dict.
        config = load_config(config) if isinstance(config, str) else parse_config(config)
        _, records = run_experiment(config)
        paths = write_trial_records(records, tmp_path / "trials")
        assert len(paths) == len(records) == config.trials
        records = records.records()
        skeletons = {(r["ne_count"], r["mixed_ne"] is None, r["regions"] is None,
                      (r["dynamics"]["cycle"] or {}).get("period")) for r in records}
        assert len(skeletons) >= min(config.trials, 2)
        for path, record in zip(paths, records):
            assert path.read_text() == dumps_json(record) + "\n"

    def test_trial_files_with_odd_floats_and_non_finite_leaves(self, tmp_path):
        config = parse_config({"generator": {"trials": 10}, "dynamics": {"steps": 50}, "seed": 3})
        _, records = run_experiment(config)
        [chunk] = records.chunks
        odd = np.resize([0.0, -0.0, 1.0, 1e-05, 1e16], chunk.time_avg_utility.size)
        records = SweepRecords([chunk._replace(
            time_avg_utility=odd.reshape(chunk.time_avg_utility.shape))])
        paths = write_trial_records(records, tmp_path / "trials")
        text = "".join(path.read_text() for path in paths)
        assert all(f"  {x!r}" in text for x in (0.0, -0.0, 1.0, 1e-05, 1e16))
        for path, record in zip(paths, records.records()):
            assert path.read_text() == dumps_json(record) + "\n"
        # A non-finite float raises, as the encoder does on the record's dict.
        for bad in (np.inf, -np.inf, np.nan):
            utilities = chunk.time_avg_utility.copy()
            utilities[-1, 0] = bad
            records = SweepRecords([chunk._replace(time_avg_utility=utilities)])
            with pytest.raises(ValueError, match="JSON compliant"):
                write_trial_records(records, tmp_path / "bad")
            with pytest.raises(ValueError, match="JSON compliant"):
                write_json(records.records()[-1], tmp_path / "bad.json")

    def test_a_non_finite_float_leaves_no_trial_file(self, tmp_path):
        # The trials are written skeleton after skeleton: a non-finite float
        # in the last skeleton's first trial raises after the files of the
        # earlier skeletons are written, and those must go too.
        config = parse_config({"generator": {"trials": 10, "snr_db": 20.0},
                               "dynamics": {"steps": 200}, "seed": 7})
        _, records = run_experiment(config)
        [chunk] = records.chunks
        skeletons = [rows for rows, _ in chunk.skeletons()]
        assert len(skeletons) >= 2
        utilities = chunk.time_avg_utility.copy()
        utilities[skeletons[-1][0], 0] = np.inf
        with pytest.raises(ValueError, match="JSON compliant"):
            write_trial_records(SweepRecords([chunk._replace(time_avg_utility=utilities)]),
                                tmp_path / "trials")
        assert list((tmp_path / "trials").iterdir()) == []


class TestPlotData:
    def test_belief_series(self, strong_interference_game, tmp_path):
        traj = run_fp(strong_interference_game, BeliefState.from_xi([0.5, 0.5]), T=6)
        path = emit_plot_data(traj, "beliefs", tmp_path / "beliefs.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "t,belief_p0_c0,belief_p0_c1,belief_p1_c0,belief_p1_c1"
        assert len(lines) == 7
        t1 = lines[1].split(",")
        assert t1[0] == "1"
        assert [float(x) for x in t1[1:]] == traj.beliefs[0].ravel().tolist()

    def test_utility_series(self, worked_mixed_game, tmp_path):
        traj = run_fp(worked_mixed_game, T=5)
        path = emit_plot_data(traj, "utilities", tmp_path / "utilities.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "t,utility_p0,utility_p1,potential"
        row = lines[3].split(",")
        assert float(row[1]) == traj.utilities[2, 0]
        assert float(row[3]) == traj.potentials[2]

    def test_region_scatter(self, tmp_path):
        records = [
            {
                "trial": 0,
                "game": {"gains": [[1.0, 0.5], [0.5, 1.0]]},
                "regions": ["H1", "H4"],
            },
            {
                "trial": 1,
                "game": {"gains": [[2.0, 1.0], [4.0, 1.0]]},
                "regions": ["H2"],
            },
        ]
        path = emit_plot_data(records, "regions", tmp_path / "scatter.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "trial,g11,g12,g21,g22,own_ratio,cross_ratio,regions"
        assert lines[1].split(",") == [
            "0", "1.0", "0.5", "0.5", "1.0", "2.0", "0.5", "H1+H4"
        ]
        assert lines[2].split(",") == [
            "1", "2.0", "1.0", "4.0", "1.0", "2.0", "4.0", "H2"
        ]

    def test_kind_validation(self, worked_mixed_game, tmp_path):
        traj = run_fp(worked_mixed_game, T=3)
        with pytest.raises(ValueError, match="unsupported"):
            emit_plot_data(traj, "spectrum", tmp_path / "x.csv")
        with pytest.raises(ValueError, match="needs a Trajectory"):
            emit_plot_data([{"trial": 0}], "beliefs", tmp_path / "x.csv")
        config = parse_config(
            {"generator": {"trials": 1}, "dynamics": {"steps": 10}, "seed": 0}
        )
        summary, _ = run_experiment(config)
        with pytest.raises(ValueError, match="per-trial records"):
            emit_plot_data(summary, "regions", tmp_path / "x.csv")
        # A 3x3 sweep's records have no 2x2 gains to scatter.
        config = parse_config({"generator": {"trials": 2, "players": 3, "channels": 3},
                               "dynamics": {"steps": 5}, "seed": 0})
        records = run_experiment(config)[1].records()
        with pytest.raises(ValueError, match=r"^region scatter needs 2x2 records"):
            emit_plot_data(records, "regions", tmp_path / "x.csv")
        assert not (tmp_path / "x.csv").exists()

    def test_empty_trajectory_series(self, tmp_path):
        path = emit_plot_data(_empty_trajectory(), "beliefs", tmp_path / "b.csv")
        assert path.read_text().splitlines() == ["t"]


@pytest.fixture
def inline_config(tmp_path):
    path = tmp_path / "inline.yaml"
    path.write_text(INLINE_GAME_YAML + f"outputs:\n  directory: {tmp_path / 'out'}\n")
    return path


@pytest.fixture
def generator_config(tmp_path):
    path = tmp_path / "generator.yaml"
    path.write_text(GENERATOR_YAML + f"outputs:\n  directory: {tmp_path / 'out'}\n")
    return path


class TestCli:
    def test_equilibria(self, inline_config, tmp_path, capsys):
        assert main(["equilibria", str(inline_config)]) == 0
        payload = json.loads((tmp_path / "out" / "equilibria.json").read_text())
        assert payload["pure_ne"] == [[0, 1], [1, 0]]
        assert payload["regions"] == ["H1", "H4"]
        assert payload["mixed_ne"] == [[0.5, 0.5], [0.5, 0.5]]
        stdout = json.loads(capsys.readouterr().out)
        assert stdout == payload

    def test_regions_inline(self, inline_config, tmp_path, capsys):
        assert main(["regions", str(inline_config)]) == 0
        payload = json.loads((tmp_path / "out" / "regions.json").read_text())
        assert payload["regions"] == ["H1", "H4"]

    def test_regions_generator(self, generator_config, tmp_path, capsys):
        assert main(["regions", str(generator_config)]) == 0
        out = tmp_path / "out"
        payload = json.loads((out / "regions.json").read_text())
        assert payload["trials"] == 6
        assert sum(payload["region_histogram"].values()) == 6
        # The scatter, byte for byte: each trial's game drawn on its own
        # generator, with the oracle's sorted region labels.
        config = load_config(generator_config)
        gen = config.generator
        records = []
        for trial in range(gen.trials):
            game = generate_game(trial_rng(config.seed, trial), gen.players, gen.channels,
                                 gen.snr_db, gen.fading)
            records.append({"trial": trial, "game": {"gains": game.gains.tolist()},
                            "regions": sorted(oracle_regions_2x2(game))})
        assert (out / "regions.csv").read_bytes() == oracle_plot_csv(records, "regions").encode()

    def test_simulate_csv(self, inline_config, tmp_path, capsys):
        assert main(["simulate", str(inline_config)]) == 0
        out = tmp_path / "out"
        summary = json.loads((out / "run_summary.json").read_text())
        assert summary["steps"] == 200
        assert summary["cycle"]["period"] == 2
        assert summary["cycle"]["profiles"] == [[0, 0], [1, 1]]
        assert (out / "trajectory.csv").is_file()
        traj = read_trajectory_csv(out / "trajectory.csv")
        assert traj.T == 200

    def test_simulate_json_format_and_steps_override(self, inline_config, tmp_path, capsys):
        assert main(
            ["simulate", str(inline_config), "--format", "json", "--steps", "37"]
        ) == 0
        out = tmp_path / "out"
        assert (out / "trajectory.json").is_file()
        summary = json.loads((out / "run_summary.json").read_text())
        assert summary["steps"] == 37

    def test_simulate_variant_override(self, inline_config, tmp_path, capsys):
        assert main(["simulate", str(inline_config), "--variant", "aggregation"]) == 0
        summary = json.loads((tmp_path / "out" / "run_summary.json").read_text())
        assert summary["variant"] == "aggregation"

    def test_montecarlo_outputs_and_determinism(self, generator_config, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["montecarlo", str(generator_config), "--out", str(out_a)]) == 0
        assert main(["montecarlo", str(generator_config), "--out", str(out_b)]) == 0
        trials_a = sorted((out_a / "trials").iterdir())
        assert len(trials_a) == 6
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
        for path in trials_a:
            twin = out_b / "trials" / path.name
            assert path.read_bytes() == twin.read_bytes()

    def test_empty_three_by_three_sweep(self, tmp_path, capsys):
        path = tmp_path / "empty.yaml"
        path.write_text(
            "generator:\n  players: 3\n  channels: 3\n  trials: 0\nseed: 1\n"
            f"outputs:\n  directory: {tmp_path / 'out'}\n"
        )
        assert main(["montecarlo", str(path)]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["trials"] == 0
        assert summary["ne_count_histogram"] == {}
        assert set(summary["convergence"].values()) == {0}

    def test_montecarlo_seed_override_changes_games(self, generator_config, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["montecarlo", str(generator_config), "--out", str(out_a)]) == 0
        assert main(
            ["montecarlo", str(generator_config), "--out", str(out_b), "--seed", "18"]
        ) == 0
        a = json.loads((out_a / "trials" / "trial_00000.json").read_text())
        b = json.loads((out_b / "trials" / "trial_00000.json").read_text())
        assert a["game"] != b["game"]

    def test_missing_config_is_a_config_error(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "absent.yaml")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_invalid_game_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(
            "game:\n"
            "  bandwidths: [1.0, 1.0]\n"
            "  noise: [0.0, 1.0]\n"
            "  max_power: [1.0, 1.0]\n"
            "  gains:\n"
            "    - [1.0, 1.0]\n"
            "    - [1.0, 1.0]\n"
        )
        assert main(["equilibria", str(path)]) == 1
        assert "noise must be positive" in capsys.readouterr().err

    def test_bad_override_is_a_config_error(self, inline_config, capsys):
        assert main(["simulate", str(inline_config), "--steps", "0"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_sweep_whose_channel_aggregate_overflows(self, tmp_path, capsys):
        # 3080 dB is a finite power budget (about 1e308), but power times gain
        # summed over the players overflows: the sweep stops with the trial
        # and seed that failed instead of writing Infinity into summary.json.
        path = tmp_path / "loud.yaml"
        path.write_text(
            "generator:\n  players: 2\n  channels: 2\n  snr_db: 3080\n"
            "  fading: exponential\n  trials: 20\n"
            "dynamics:\n  variant: classic\n  steps: 10000\nseed: 7\n"
            f"outputs:\n  directory: {tmp_path / 'out'}\n"
        )
        assert main(["montecarlo", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "trial 0 (seed 7)" in captured.err
        assert "overflows" in captured.err
        assert not (tmp_path / "out").exists()

    def test_sweep_names_its_first_failing_trial(self, tmp_path, capsys):
        # At 3079.6 dB a trial fails when a channel's two gains sum past
        # about 1.97. The games are checked as one stack, and the error
        # names the first trial that fails, found here by drawing each
        # trial's gains from its own generator.
        power = snr_db_to_power(3079.6)
        with np.errstate(over="ignore"):
            first = next(i for i in range(40) if not np.isfinite(
                1.0 + (power * trial_rng(7, i).exponential(1.0, size=(2, 2))).sum(axis=0)).all())
        assert first >= 2
        path = tmp_path / "loud.yaml"
        path.write_text(
            "generator:\n  players: 2\n  channels: 2\n  snr_db: 3079.6\n"
            "  fading: exponential\n  trials: 40\n"
            "dynamics:\n  variant: classic\n  steps: 100\nseed: 7\n"
            f"outputs:\n  directory: {tmp_path / 'out'}\n"
        )
        assert main(["montecarlo", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: trial {first} (seed 7): noise plus")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "equilibria", "regions"])
    def test_generated_game_that_overflows_names_trial_and_seed(self, command, tmp_path,
                                                                capsys):
        # The same 3080 dB game as above, built outside the sweep: simulate and
        # equilibria use trial 0, regions walks every trial.
        path = tmp_path / "loud.yaml"
        path.write_text(
            "generator:\n  players: 2\n  channels: 2\n  snr_db: 3080\n"
            "  fading: exponential\n  trials: 20\n"
            "dynamics:\n  variant: classic\n  steps: 100\nseed: 7\n"
            f"outputs:\n  directory: {tmp_path / 'out'}\n"
        )
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "trial 0 (seed 7)" in captured.err
        assert "overflows" in captured.err
        assert not (tmp_path / "out").exists()

    def test_runtime_failure_exits_two(self, tmp_path, capsys):
        # 2**24 profiles exceed the enumeration guard: the config is valid,
        # the analysis it asks for is not possible.
        path = tmp_path / "wide.yaml"
        path.write_text(
            "generator:\n  players: 24\n  channels: 2\n  trials: 1\nseed: 3\n"
            f"outputs:\n  directory: {tmp_path / 'out'}\n"
        )
        assert main(["equilibria", str(path)]) == 2
        assert "exceeds the enumeration guard" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section,expected", [
        ("game:\n  bandwidths: [1.0, 1.0]\n  noise: [1.0, 1.0]\n"
         "  max_power: [1.0, 1.0, 1.0]\n  gains: [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]\n",
         "game: this analysis needs exactly 2 players and 2 channels"),
        ("game:\n  bandwidths: [1.0, 2.0]\n  noise: [1.0, 1.0]\n"
         "  max_power: [1.0, 1.0]\n  gains: [[1.0, 1.0], [1.0, 1.0]]\n",
         "game: this analysis needs equal channel bandwidths"),
        ("game:\n  bandwidths: [1.0, 1.0]\n  noise: [1.0, 1.0]\n"
         "  max_power: [1.0, 1.0]\n  gains: [[1.0, 0.0], [1.0, 1.0]]\n",
         "game: this analysis needs strictly positive gains"),
        ("generator:\n  players: 3\n  channels: 3\n  trials: 5\nseed: 1\n",
         "generator: this analysis needs exactly 2 players and 2 channels, got 3 and 3"),
    ])
    def test_regions_outside_the_2x2_setting_is_a_config_error(self, section, expected,
                                                                tmp_path, capsys, monkeypatch):
        # In generator mode the shape is checked before any game is drawn.
        monkeypatch.setattr(cli, "trial_game", None)
        path = tmp_path / "bad.yaml"
        path.write_text(section + f"outputs:\n  directory: {tmp_path / 'out'}\n")
        assert main(["regions", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"config error: {expected}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.yaml")))
    def test_committed_config(self, name, tmp_path, capsys):
        command, files = COMMITTED_CONFIGS[name]
        argv = [command, str(CONFIGS / name), "--steps", "20", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == files
        stdout = json.loads(capsys.readouterr().out)
        if command == "montecarlo":
            assert len(list((tmp_path / "trials").iterdir())) == stdout["trials"] == 1000
        if command == "simulate":
            assert stdout["steps"] == 20


@pytest.mark.parametrize("write", [
    lambda traj, path: write_trajectory_csv(traj, path),
    lambda traj, path: emit_plot_data(traj, "beliefs", path),
], ids=["trajectory_csv", "beliefs_plot"])
def test_a_trajectory_is_written_in_memory_that_does_not_grow_with_the_horizon(tmp_path,
                                                                               write):
    # The paper's 2-cycle switches at every step. A run is a view of the
    # engine's decision log, rendered a chunk at a time, so ten times the
    # steps peak within 10% of the same bytes.
    config = load_config(CONFIGS / "symmetric_cycle.yaml")
    peaks = []
    for steps in (3 * 10**4, 3 * 10**5):
        tracemalloc.start()
        try:
            traj = simulate_trajectory(config.game, config.with_overrides(steps=steps).dynamics)
            write(traj, tmp_path / "out.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


def test_the_cli_never_imports_numpy_ma(tmp_path):
    # np.unique without a return option imports numpy.ma (about 9 ms of
    # start-up); no simulate or sweep path may reach it.
    script = (
        "import sys\n"
        "from csgame.cli import main\n"
        "for argv in sys.argv[1:]:\n"
        "    assert main(argv.split()) == 0\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n"
    )
    out = tmp_path / "out"
    runs = [f"simulate {CONFIGS / 'aggregation_demo.yaml'} --steps 300 --out {out}/a",
            f"simulate {CONFIGS / 'symmetric_cycle.yaml'} --variant aggregation --steps 300 "
            f"--format json --out {out}/b",
            f"montecarlo {CONFIGS / 'generator_2x2_snr10.yaml'} --variant aggregation "
            f"--steps 200 --out {out}/c"]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", script, *runs], env=env, capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr
