"""YAML experiment configs: parsing, validation, defaults, overrides."""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from csgame import (
    BeliefState,
    ConfigError,
    DynamicsSpec,
    ExperimentConfig,
    GameSpec,
    GeneratorSpec,
    OutputSpec,
    load_config,
    parse_config,
    run_experiment,
)
from csgame.cli import main

INLINE_GAME = {
    "bandwidths": [1.0, 1.0],
    "noise": [1.0, 1.0],
    "max_power": [10.0, 10.0],
    "gains": [[1.0, 1.0], [1.0, 1.0]],
}


class TestParseConfig:
    def test_inline_game_round_trip(self):
        config = parse_config(
            {
                "game": dict(INLINE_GAME),
                "dynamics": {"variant": "aggregation", "steps": 500, "tie_break": "highest"},
                "outputs": {"directory": "results", "format": "json"},
            }
        )
        assert config.generator is None
        assert config.game.K == 2
        assert config.dynamics.variant == "aggregation"
        assert config.dynamics.steps == 500
        assert config.dynamics.tie_break == "highest"
        assert config.outputs.directory == "results"
        assert config.outputs.format == "json"
        assert config.seed == 0  # inline mode default
        assert config.trials == 1

    def test_generator_mode(self):
        config = parse_config(
            {
                "generator": {"players": 2, "channels": 2, "snr_db": 20.0, "trials": 7},
                "seed": 99,
            }
        )
        assert config.game is None
        assert config.generator.snr_db == 20.0
        assert config.generator.fading == "exponential"
        assert config.trials == 7
        assert config.seed == 99

    def test_defaults(self):
        config = parse_config({"game": dict(INLINE_GAME)})
        assert config.dynamics.variant == "classic"
        assert config.dynamics.steps == 10_000
        assert config.dynamics.tie_break == "lowest"
        assert config.dynamics.initial_beliefs == "uniform"
        assert config.outputs.directory == "out"
        assert config.outputs.format == "csv"

    def test_generator_requires_seed(self):
        with pytest.raises(ConfigError, match="seed: mandatory"):
            parse_config({"generator": {"trials": 3}})

    def test_exactly_one_of_game_or_generator(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config({"seed": 1})
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(
                {"game": dict(INLINE_GAME), "generator": {"trials": 1}, "seed": 1}
            )

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "7"])
    def test_rejects_bad_seeds(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            parse_config({"game": dict(INLINE_GAME), "seed": seed})

    @pytest.mark.parametrize("section", ["game", "generator", "dynamics", "outputs"])
    def test_section_keys_are_the_dataclass_fields(self, section):
        data = {"game": dict(INLINE_GAME)} if section != "generator" else {"seed": 1}
        data[section] = dict(data.get(section, {}), bogus=1)
        with pytest.raises(ConfigError, match=rf"^{section}: unknown keys \['bogus'\]$"):
            parse_config(data)

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown keys.*'extra'"):
            parse_config({"game": dict(INLINE_GAME), "extra": 1})
        with pytest.raises(ConfigError, match="dynamics: unknown keys"):
            parse_config({"game": dict(INLINE_GAME), "dynamics": {"step": 10}})

    def test_game_validation_is_wrapped(self):
        bad = dict(INLINE_GAME, noise=[0.0, 1.0])
        with pytest.raises(ConfigError, match="noise must be positive"):
            parse_config({"game": bad})

    def test_a_value_too_large_for_a_float_is_a_config_error(self):
        with pytest.raises(ConfigError, match="^game: int too large"):
            parse_config({"game": dict(INLINE_GAME, noise=[10**400, 1.0])})
        with pytest.raises(ConfigError, match="^dynamics.initial_beliefs: int too large"):
            parse_config({"game": dict(INLINE_GAME),
                          "dynamics": {"initial_beliefs": {"xi": [10**400, 0.5]}}})

    def test_xi_initial_beliefs(self):
        config = parse_config(
            {
                "game": dict(INLINE_GAME),
                "dynamics": {"initial_beliefs": {"xi": [0.5, 0.5]}},
            }
        )
        assert config.dynamics.initial_beliefs == ("xi", (0.5, 0.5))
        state = config.dynamics.initial_beliefs_for(config.game)
        np.testing.assert_allclose(state.marginals, [[1 / 3, 2 / 3]] * 2, atol=1e-15)

    def test_explicit_initial_beliefs(self):
        config = parse_config(
            {
                "game": dict(INLINE_GAME),
                "dynamics": {"initial_beliefs": [[0.9, 0.1], [0.2, 0.8]]},
            }
        )
        state = config.dynamics.initial_beliefs_for(config.game)
        np.testing.assert_array_equal(state.marginals, [[0.9, 0.1], [0.2, 0.8]])
        assert state.step == 1

    def test_bad_initial_beliefs_strings(self):
        with pytest.raises(ConfigError, match="initial_beliefs"):
            parse_config(
                {"game": dict(INLINE_GAME), "dynamics": {"initial_beliefs": "spiky"}}
            )


class TestSpecValidation:
    def test_generator_spec(self):
        with pytest.raises(ConfigError, match="players"):
            GeneratorSpec(players=0)
        with pytest.raises(ConfigError, match="fading"):
            GeneratorSpec(fading="nakagami")
        with pytest.raises(ConfigError, match="trials"):
            GeneratorSpec(trials=-1)

    def test_snr_whose_power_budget_overflows(self, tmp_path, capsys):
        assert GeneratorSpec(snr_db=3000.0).snr_db == 3000.0  # 1e300 is a float
        with pytest.raises(ConfigError, match="snr_db.*overflows"):
            GeneratorSpec(snr_db=4000.0)
        path = tmp_path / "loud.yaml"
        path.write_text(f"generator:\n  snr_db: 4000\nseed: 1\noutputs:\n  directory: {tmp_path}\n")
        assert main(["montecarlo", str(path)]) == 1
        assert "generator.snr_db" in capsys.readouterr().err

    def test_dynamics_spec(self):
        with pytest.raises(ConfigError, match="variant"):
            DynamicsSpec(variant="smoothed")
        with pytest.raises(ConfigError, match="steps"):
            DynamicsSpec(steps=0)
        with pytest.raises(ConfigError, match="tie_break"):
            DynamicsSpec(tie_break="random")

    def test_output_spec(self):
        with pytest.raises(ConfigError, match="format"):
            OutputSpec(format="parquet")
        directory = OutputSpec(directory=pathlib.Path("x")).directory
        assert type(directory) is str and directory == "x"

    def test_initial_beliefs_for_mismatches(self):
        three_channels = GameSpec.symmetric(np.ones((2, 3)), p_max=1.0)
        with pytest.raises(ConfigError, match="2 channels"):
            DynamicsSpec(initial_beliefs=("xi", (0.5, 0.5))).initial_beliefs_for(
                three_channels
            )
        two = GameSpec.symmetric(np.ones((2, 2)), p_max=1.0)
        with pytest.raises(ConfigError, match="one entry per player"):
            DynamicsSpec(initial_beliefs=("xi", (0.5,))).initial_beliefs_for(two)
        with pytest.raises(ConfigError, match="shape"):
            DynamicsSpec(initial_beliefs=np.full((3, 2), 0.5)).initial_beliefs_for(two)
        with pytest.raises(ConfigError, match="sum to 1"):
            DynamicsSpec(initial_beliefs=np.full((2, 2), 0.4)).initial_beliefs_for(two)
        with pytest.raises(ConfigError, match="finite and non-negative"):
            DynamicsSpec(initial_beliefs=[[np.nan, np.nan], [0.5, 0.5]]).initial_beliefs_for(two)
        with pytest.raises(ConfigError, match="strictly between"):
            DynamicsSpec(initial_beliefs=("xi", (np.nan, 0.5))).initial_beliefs_for(two)


class TestOverrides:
    def test_with_overrides_replaces_only_given_fields(self):
        base = parse_config({"generator": {"trials": 3}, "seed": 5})
        bumped = base.with_overrides(seed=11, steps=42, out="elsewhere")
        assert bumped.seed == 11
        assert bumped.dynamics.steps == 42
        assert bumped.dynamics.variant == base.dynamics.variant
        assert bumped.outputs.directory == "elsewhere"
        assert bumped.outputs.format == base.outputs.format
        # The original is untouched.
        assert base.seed == 5
        assert base.dynamics.steps == 10_000

    def test_overrides_are_validated(self):
        base = parse_config({"generator": {"trials": 3}, "seed": 5})
        with pytest.raises(ConfigError, match="variant"):
            base.with_overrides(variant="nonsense")
        with pytest.raises(ConfigError, match="format"):
            base.with_overrides(fmt="xml")


class TestLoadConfig:
    def test_yaml_round_trip(self, tmp_path):
        path = tmp_path / "experiment.yaml"
        path.write_text(
            "generator:\n"
            "  players: 2\n"
            "  channels: 2\n"
            "  snr_db: 15.0\n"
            "  trials: 4\n"
            "dynamics:\n"
            "  steps: 250\n"
            "  initial_beliefs:\n"
            "    xi: [0.5, 0.5]\n"
            "seed: 7\n"
            "outputs:\n"
            "  directory: runs\n"
        )
        config = load_config(path)
        assert config.generator.snr_db == 15.0
        assert config.dynamics.steps == 250
        assert config.dynamics.initial_beliefs == ("xi", (0.5, 0.5))
        assert config.seed == 7
        assert config.outputs.directory == "runs"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.yaml")

    def test_invalid_yaml(self, tmp_path, capsys):
        # YAML's message spans several lines, with a snippet under each mark;
        # the config error is one line naming where each mark is.
        path = tmp_path / "broken.yaml"
        path.write_text("game: [1, 2\n")
        with pytest.raises(ConfigError, match="not valid YAML") as info:
            load_config(path)
        assert str(info.value) == (
            "config file is not valid YAML: while parsing a flow sequence at line 1, "
            "column 7; expected ',' or ']', but got '<stream end>' at line 2, column 1")
        assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: {info.value}\n"
        assert not (tmp_path / "out").exists()

    def test_undecodable_bytes_are_a_config_error(self, tmp_path, capsys):
        # YAML reads the file's bytes as UTF-8 (or UTF-16 with a BOM) whatever
        # the locale: a byte that no encoding accepts is invalid YAML.
        path = tmp_path / "latin1.yaml"
        path.write_bytes(b"game: {bandwidths: [1, 1], noise: [1, 1], max_power: [1, 1], "
                         b"gains: [[1, 1], [1, 1]]}\n# caf\xe9 \xff\n")
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_config(path)
        assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == ("config error: config file is not valid YAML: unacceptable "
                       "character #x00e9: invalid continuation byte at position 91\n")
        assert not (tmp_path / "out").exists()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        with pytest.raises(ConfigError, match="empty"):
            load_config(path)

    def test_non_mapping_top_level(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError, match="expected a mapping"):
            load_config(path)


class TestExperimentConfigDirect:
    def test_direct_construction_checks_exclusivity(self):
        game = GameSpec.from_dict(INLINE_GAME)
        with pytest.raises(ConfigError, match="exactly one"):
            ExperimentConfig(
                game=game,
                generator=GeneratorSpec(),
                dynamics=DynamicsSpec(),
                seed=0,
                outputs=OutputSpec(),
            )

    @pytest.mark.parametrize("seed", [True, 3.0, np.True_, np.float64(3.0)])
    def test_direct_construction_checks_the_seed(self, seed):
        with pytest.raises(ConfigError, match=r"^seed: must be an integer, got "):
            ExperimentConfig(game=GameSpec.from_dict(INLINE_GAME), seed=seed)

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8])
    def test_numpy_integers_are_integers_stored_as_int(self, kind):
        # The config's integer rule is the engine's: an integral number,
        # numpy's included. The value is stored as an int, so a trial record's
        # dynamics.steps leaf encodes as JSON.
        generator = GeneratorSpec(players=kind(3), channels=kind(2), trials=kind(3))
        dynamics = DynamicsSpec(steps=kind(10))
        config = ExperimentConfig(generator=generator, dynamics=dynamics, seed=kind(7))
        values = [generator.players, generator.channels, generator.trials, dynamics.steps,
                  config.seed]
        assert values == [3, 2, 3, 10, 7] and {type(v) for v in values} == {int}
        assert config.with_overrides(seed=kind(8), steps=kind(20)).seed == 8
        _, records = run_experiment(config)
        assert json.loads(json.dumps(records.records()[0]))["dynamics"]["steps"] == 10

    def test_a_seed_beyond_64_bits_runs_a_sweep(self):
        config = parse_config({"generator": {"trials": 2}, "dynamics": {"steps": 20},
                               "seed": 2**70})
        assert config.seed == 2**70 and len(run_experiment(config)[1]) == 2

    def test_trials_property(self):
        game = GameSpec.from_dict(INLINE_GAME)
        config = ExperimentConfig(
            game=game, generator=None, dynamics=DynamicsSpec(), seed=0, outputs=OutputSpec()
        )
        assert config.trials == 1


def _inline_config(out_dir) -> dict:
    return {
        "game": dict(INLINE_GAME),
        "dynamics": {"variant": "classic", "steps": 20, "tie_break": "lowest",
                     "initial_beliefs": "uniform"},
        "seed": 3,
        "outputs": {"directory": str(out_dir), "format": "csv"},
    }


def _run(tmp_path, data, *argv):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(data))
    return main([*argv[:1], str(path), *argv[1:]])


# Each malformed value exits 1 with one config error naming its field.
MALFORMED = [
    ("simulate", "dynamics", "steps", "abc"),
    ("simulate", "dynamics", "steps", 1.5),
    ("simulate", "dynamics", "steps", True),
    ("simulate", "dynamics", "initial_beliefs", {"xi": [0.5, "abc"]}),
    ("simulate", "dynamics", "initial_beliefs", {"xi": 5}),
    ("simulate", "dynamics", "initial_beliefs", [[0.5, "abc"], [0.5, 0.5]]),
    ("montecarlo", "generator", "players", 2.5),
    ("montecarlo", "generator", "trials", 1.5),
    ("montecarlo", "generator", "snr_db", True),
    ("montecarlo", "generator", "snr_db", -3300),
    ("simulate", "outputs", "directory", None),
    ("simulate", "outputs", "directory", True),
    ("simulate", "outputs", "directory", ["out"]),
    ("simulate", "outputs", "directory", ""),
    ("simulate", "dynamics", "steps", 4 * 10**9),
    ("simulate", "dynamics", "initial_beliefs", [[float("nan"), float("nan")], [0.5, 0.5]]),
]


@pytest.mark.parametrize("command,section,key,value", MALFORMED)
def test_malformed_values_are_config_errors(tmp_path, monkeypatch, capsys, command, section,
                                           key, value):
    # A replaced output directory would be relative to the working directory.
    monkeypatch.chdir(tmp_path)
    data = _inline_config(tmp_path / "out")
    if section == "generator":
        del data["game"]
        data["generator"] = {"players": 2, "channels": 2, "trials": 2}
    data[section][key] = value
    assert _run(tmp_path, data, command) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {section}.{key}: ")
    assert [p.name for p in tmp_path.iterdir()] == ["config.yaml"]


_WRONG_TYPES = st.one_of(
    st.booleans(),
    st.floats().filter(lambda x: not x.is_integer()),
    st.text(alphabet="abcxyz", max_size=4),
    st.lists(st.one_of(st.integers(), st.text(alphabet="abc", max_size=2)), max_size=3),
    st.none(),
    st.dictionaries(st.text(alphabet="abcxi", max_size=2), st.integers(), max_size=2),
)
_KEYS = [(key,) for key in _inline_config("out")] + [
    (section, key) for section, value in _inline_config("out").items()
    if isinstance(value, dict) for key in value
]


@settings(deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(_KEYS), value=_WRONG_TYPES)
def test_property_a_wrongly_typed_value_never_raises(tmp_path, monkeypatch, capsys, key, value):
    # A replaced output directory is relative to the working directory.
    monkeypatch.chdir(tmp_path)
    data = _inline_config(tmp_path / "out")
    parent = data if len(key) == 1 else data[key[0]]
    parent[key[-1]] = value
    code = _run(tmp_path, data, "simulate", "--steps", "5")
    err = capsys.readouterr().err
    assert code in (0, 1)
    if code == 1:
        assert err.count("config error:") == 1
