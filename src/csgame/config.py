"""Experiment configuration: YAML schema, validation and defaults.

A config file is a single YAML document. Exactly one of ``game`` (inline
instance) or ``generator`` (random sampling recipe) must be present::

    game:                     # inline mode
      bandwidths: [1.0, 1.0]
      noise: [0.1, 0.1]
      max_power: [1.0, 1.0]
      gains: [[1.0, 0.2], [0.2, 1.0]]
    # generator:              # sampling mode (alternative)
    #   players: 2
    #   channels: 2
    #   snr_db: 10.0
    #   fading: exponential
    #   trials: 1000
    dynamics:
      variant: classic        # classic | aggregation
      steps: 10000
      tie_break: lowest       # lowest | highest
      initial_beliefs: uniform  # uniform | {xi: [..]} | explicit rows
    seed: 42                  # mandatory in generator mode
    outputs:
      directory: out
      format: csv             # csv | json

Each section is its dataclass: ``game`` is :class:`~csgame.game.GameSpec`,
``generator`` :class:`GeneratorSpec`, ``dynamics`` :class:`DynamicsSpec`,
``outputs`` :class:`OutputSpec`, and the top level :class:`ExperimentConfig`.
A section's keys are its dataclass's fields, a missing key takes the field's
default, and each value is checked once, by the dataclass, so any value it
rejects is a :class:`ConfigError` naming the section or field.
"""

from __future__ import annotations

import math
import numbers
import os
import re
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import yaml

from .dynamics import _MAX_T, BeliefState, TIE_BREAKS
from .game import GameSpec, _integer

__all__ = [
    "ConfigError",
    "GeneratorSpec",
    "DynamicsSpec",
    "OutputSpec",
    "ExperimentConfig",
    "snr_db_to_power",
    "parse_config",
    "load_config",
]

VARIANTS = ("classic", "aggregation")
FORMATS = ("csv", "json")
FADING_LAWS = ("exponential", "rayleigh")  # same unit-mean power-gain law


class ConfigError(ValueError):
    """A configuration file failed validation."""


def _require_int(name: str, value, minimum: int) -> int:
    """The engine's integer rule (:func:`~csgame.game._integer`, numpy integers
    included) with a least value; returns the value as an ``int``."""
    try:
        value = _integer(value, name)
    except TypeError:
        raise ConfigError(f"{name}: must be an integer, got {value!r}") from None
    if value < minimum:
        raise ConfigError(f"{name}: must be >= {minimum}")
    return value


def _require_choice(name: str, value, choices: tuple[str, ...]) -> None:
    """The choice rule: one of the names in ``choices``."""
    if not isinstance(value, str) or value not in choices:
        raise ConfigError(f"{name}: unknown value {value!r}, expected one of {choices}")


def snr_db_to_power(snr_db: float) -> float:
    """Power budget that hits the target SNR over unit noise."""
    return float(10.0 ** (snr_db / 10.0))


@dataclass(frozen=True)
class GeneratorSpec:
    players: int = 2
    channels: int = 2
    snr_db: float = 10.0
    fading: str = "exponential"
    trials: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "players", _require_int("generator.players", self.players, 1))
        object.__setattr__(self, "channels", _require_int("generator.channels", self.channels, 1))
        if isinstance(self.snr_db, bool) or not isinstance(self.snr_db, numbers.Real):
            raise ConfigError(f"generator.snr_db: must be a number, got {self.snr_db!r}")
        try:
            power = snr_db_to_power(self.snr_db)
        except OverflowError:
            power = math.inf
        if not 0.0 < power < math.inf:
            raise ConfigError(
                f"generator.snr_db: {self.snr_db} dB overflows or underflows the power "
                "budget 10**(snr_db/10), which must be positive and finite"
            )
        _require_choice("generator.fading", self.fading, FADING_LAWS)
        object.__setattr__(self, "trials", _require_int("generator.trials", self.trials, 0))


def _initial_beliefs(spec):
    """Configured initial beliefs in their stored form: "uniform", ("xi",
    floats) or an explicit float array."""
    if isinstance(spec, str) and spec == "uniform":
        return spec
    if isinstance(spec, dict):
        if set(spec) != {"xi"}:
            raise ConfigError("dynamics.initial_beliefs: the mapping form is {xi: [..]}")
        spec = ("xi", spec["xi"])
    try:
        if isinstance(spec, tuple) and len(spec) == 2 and spec[0] == "xi":
            return ("xi", tuple(float(x) for x in spec[1]))
        if isinstance(spec, (list, tuple, np.ndarray)):
            return np.asarray(spec, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"dynamics.initial_beliefs: {exc}") from exc
    raise ConfigError(
        "dynamics.initial_beliefs: expected 'uniform', an {xi: [..]} mapping "
        "or explicit per-player rows"
    )


@dataclass(frozen=True)
class DynamicsSpec:
    variant: str = "classic"
    steps: int = 10_000
    tie_break: str = "lowest"
    initial_beliefs: object = "uniform"  # "uniform" | ("xi", tuple) | explicit array

    def __post_init__(self) -> None:
        _require_choice("dynamics.variant", self.variant, VARIANTS)
        object.__setattr__(self, "steps", _require_int("dynamics.steps", self.steps, 1))
        if self.steps > _MAX_T:  # the engines count steps exactly in int64
            raise ConfigError(f"dynamics.steps: must be <= {_MAX_T}")
        _require_choice("dynamics.tie_break", self.tie_break, TIE_BREAKS)
        object.__setattr__(self, "initial_beliefs", _initial_beliefs(self.initial_beliefs))

    def initial_beliefs_for(self, game: GameSpec) -> BeliefState:
        """Materialize the configured initial beliefs for a concrete game."""
        spec = self.initial_beliefs
        try:
            if isinstance(spec, str):
                return BeliefState.uniform(game.K, game.S)
            if isinstance(spec, tuple):
                if game.S != 2:
                    raise ConfigError(
                        "dynamics.initial_beliefs: xi parameterization needs 2 channels"
                    )
                xi = np.asarray(spec[1], dtype=float)
                if xi.shape != (game.K,):
                    raise ConfigError(
                        f"dynamics.initial_beliefs: xi needs one entry per player (K={game.K})"
                    )
                return BeliefState.from_xi(xi)
            if spec.shape != (game.K, game.S):
                raise ConfigError(
                    "dynamics.initial_beliefs: explicit beliefs need shape "
                    f"(K, S) = {(game.K, game.S)}, got {spec.shape}"
                )
            return BeliefState(step=1, marginals=spec)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"dynamics.initial_beliefs: {exc}") from exc


@dataclass(frozen=True)
class OutputSpec:
    directory: str = "out"
    format: str = "csv"

    def __post_init__(self) -> None:
        directory = self.directory
        if isinstance(directory, os.PathLike):
            directory = os.fspath(directory)
        if not isinstance(directory, str) or not directory:
            raise ConfigError(
                f"outputs.directory: must be a non-empty string, got {self.directory!r}"
            )
        object.__setattr__(self, "directory", directory)
        _require_choice("outputs.format", self.format, FORMATS)


@dataclass(frozen=True)
class ExperimentConfig:
    game: GameSpec | None = None
    generator: GeneratorSpec | None = None
    dynamics: DynamicsSpec = DynamicsSpec()
    seed: int | None = None  # mandatory in generator mode, 0 for an inline game
    outputs: OutputSpec = OutputSpec()

    def __post_init__(self) -> None:
        if (self.game is None) == (self.generator is None):
            raise ConfigError("exactly one of 'game' or 'generator' must be present")
        if self.seed is None:
            if self.generator is not None:
                raise ConfigError("seed: mandatory in generator mode")
            object.__setattr__(self, "seed", 0)
        object.__setattr__(self, "seed", _require_int("seed", self.seed, 0))

    @property
    def trials(self) -> int:
        return 1 if self.generator is None else self.generator.trials

    def with_overrides(
        self,
        seed: int | None = None,
        steps: int | None = None,
        variant: str | None = None,
        tie_break: str | None = None,
        out: str | None = None,
        fmt: str | None = None,
    ) -> "ExperimentConfig":
        """Apply command-line overrides; None leaves a field as it is, and
        the dataclasses check the new values."""
        def given(**values):
            return {name: value for name, value in values.items() if value is not None}

        return replace(
            self,
            dynamics=replace(self.dynamics, **given(steps=steps, variant=variant,
                                                    tie_break=tie_break)),
            outputs=replace(self.outputs, **given(directory=out, format=fmt)),
            **given(seed=seed),
        )


def _build(cls, data, section: str, sections: dict | None = None):
    """``cls`` built from the mapping ``data`` of config ``section``. Its keys
    are the dataclass's fields, and a missing one takes the field's default;
    a key named in ``sections`` is a section of its own, built from its class
    first. A value the constructor rejects is a ConfigError naming the
    section."""
    if not isinstance(data, dict):
        raise ConfigError(f"{section}: expected a mapping, got {type(data).__name__}")
    unknown = sorted(set(data) - {f.name for f in fields(cls)}, key=str)
    if unknown:
        raise ConfigError(f"{section}: unknown keys {unknown}")
    sections = sections or {}
    values = {key: _build(sections[key], value, key) if key in sections else value
              for key, value in data.items()}
    try:
        return cls(**values)
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a parsed YAML mapping into an :class:`ExperimentConfig`."""
    return _build(ExperimentConfig, data, "config", {
        "game": GameSpec, "generator": GeneratorSpec,
        "dynamics": DynamicsSpec, "outputs": OutputSpec,
    })


def load_config(path) -> ExperimentConfig:
    """Read and validate a YAML config file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = yaml.safe_load(path.read_bytes())
    except yaml.YAMLError as exc:  # one line: a mark as "at line L, column C", no snippet
        mark = r'\n  in "[^"\n]*", ((?:line|position) [^:\n]*)(?::\n.*\n *\^)?'
        problem = re.sub(mark, r" at \1", str(exc)).replace("\n", "; ")
        raise ConfigError(f"config file is not valid YAML: {problem}") from exc
    if data is None:
        raise ConfigError("config file is empty")
    return parse_config(data)
