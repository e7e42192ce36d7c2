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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from .dynamics import BeliefState, TIE_BREAKS
from .game import GameSpec

__all__ = [
    "ConfigError",
    "GeneratorSpec",
    "DynamicsSpec",
    "OutputSpec",
    "ExperimentConfig",
    "parse_config",
    "load_config",
]

VARIANTS = ("classic", "aggregation")
FORMATS = ("csv", "json")
FADING_LAWS = ("exponential", "rayleigh")  # same unit-mean power-gain law


class ConfigError(ValueError):
    """A configuration file failed validation."""


@dataclass(frozen=True)
class GeneratorSpec:
    players: int = 2
    channels: int = 2
    snr_db: float = 10.0
    fading: str = "exponential"
    trials: int = 1

    def __post_init__(self) -> None:
        if self.players < 1:
            raise ConfigError("generator.players: must be >= 1")
        if self.channels < 1:
            raise ConfigError("generator.channels: must be >= 1")
        if not np.isfinite(self.snr_db):
            raise ConfigError("generator.snr_db: must be finite")
        try:
            10.0 ** (self.snr_db / 10.0)
        except OverflowError:
            raise ConfigError(
                f"generator.snr_db: {self.snr_db} dB overflows the power budget 10**(snr_db/10)"
            ) from None
        if self.fading not in FADING_LAWS:
            raise ConfigError(
                f"generator.fading: unknown law {self.fading!r}, expected one of {FADING_LAWS}"
            )
        if self.trials < 0:
            raise ConfigError("generator.trials: must be >= 0")


@dataclass(frozen=True)
class DynamicsSpec:
    variant: str = "classic"
    steps: int = 10_000
    tie_break: str = "lowest"
    initial_beliefs: object = "uniform"  # "uniform" | ("xi", tuple) | explicit array

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigError(
                f"dynamics.variant: unknown variant {self.variant!r}, expected one of {VARIANTS}"
            )
        if self.steps < 1:
            raise ConfigError("dynamics.steps: must be >= 1")
        if self.tie_break not in TIE_BREAKS:
            raise ConfigError(
                f"dynamics.tie_break: unknown policy {self.tie_break!r}, "
                f"expected one of {TIE_BREAKS}"
            )

    def initial_beliefs_for(self, game: GameSpec) -> BeliefState:
        """Materialize the configured initial beliefs for a concrete game."""
        spec = self.initial_beliefs
        try:
            if isinstance(spec, str) and spec == "uniform":
                return BeliefState.uniform(game.K, game.S)
            if isinstance(spec, tuple) and len(spec) == 2 and spec[0] == "xi":
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
            marginals = np.asarray(spec, dtype=float)
            if marginals.shape != (game.K, game.S):
                raise ConfigError(
                    "dynamics.initial_beliefs: explicit beliefs need shape "
                    f"(K, S) = {(game.K, game.S)}, got {marginals.shape}"
                )
            return BeliefState(step=1, marginals=marginals)
        except ValueError as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"dynamics.initial_beliefs: {exc}") from exc


@dataclass(frozen=True)
class OutputSpec:
    directory: str = "out"
    format: str = "csv"

    def __post_init__(self) -> None:
        if self.format not in FORMATS:
            raise ConfigError(
                f"outputs.format: unknown format {self.format!r}, expected one of {FORMATS}"
            )


@dataclass(frozen=True)
class ExperimentConfig:
    game: GameSpec | None
    generator: GeneratorSpec | None
    dynamics: DynamicsSpec
    seed: int
    outputs: OutputSpec

    def __post_init__(self) -> None:
        if (self.game is None) == (self.generator is None):
            raise ConfigError("exactly one of 'game' or 'generator' must be present")
        if self.generator is not None and self.seed is None:
            raise ConfigError("seed: mandatory in generator mode")
        if self.seed is not None and (int(self.seed) != self.seed or int(self.seed) < 0):
            raise ConfigError("seed: must be a non-negative integer")

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
        """Apply command-line overrides, re-validating as we go."""
        dyn = self.dynamics
        if steps is not None or variant is not None or tie_break is not None:
            dyn = replace(
                dyn,
                steps=dyn.steps if steps is None else steps,
                variant=dyn.variant if variant is None else variant,
                tie_break=dyn.tie_break if tie_break is None else tie_break,
            )
        outputs = self.outputs
        if out is not None or fmt is not None:
            outputs = replace(
                outputs,
                directory=outputs.directory if out is None else out,
                format=outputs.format if fmt is None else fmt,
            )
        return ExperimentConfig(
            game=self.game,
            generator=self.generator,
            dynamics=dyn,
            seed=self.seed if seed is None else seed,
            outputs=outputs,
        )


def _require_mapping(data, context: str) -> dict:
    if not isinstance(data, dict):
        raise ConfigError(f"{context}: expected a mapping, got {type(data).__name__}")
    return data


def _reject_unknown(data: dict, known: tuple[str, ...], context: str) -> None:
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ConfigError(f"{context}: unknown keys {unknown}")


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a parsed YAML mapping into an :class:`ExperimentConfig`."""
    data = _require_mapping(data, "config")
    _reject_unknown(data, ("game", "generator", "dynamics", "seed", "outputs"), "config")

    game = None
    if "game" in data:
        section = _require_mapping(data["game"], "game")
        _reject_unknown(section, ("bandwidths", "noise", "max_power", "gains"), "game")
        try:
            game = GameSpec.from_dict(section)
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"game: missing or malformed field ({exc})") from exc
        except ValueError as exc:
            raise ConfigError(f"game: {exc}") from exc

    generator = None
    if "generator" in data:
        section = _require_mapping(data["generator"], "generator")
        _reject_unknown(
            section, ("players", "channels", "snr_db", "fading", "trials"), "generator"
        )
        try:
            generator = GeneratorSpec(**section)
        except TypeError as exc:
            raise ConfigError(f"generator: {exc}") from exc

    dyn_data = _require_mapping(data.get("dynamics", {}), "dynamics")
    _reject_unknown(
        dyn_data, ("variant", "steps", "tie_break", "initial_beliefs"), "dynamics"
    )
    init = dyn_data.get("initial_beliefs", "uniform")
    if isinstance(init, dict):
        _reject_unknown(init, ("xi",), "dynamics.initial_beliefs")
        if "xi" not in init:
            raise ConfigError("dynamics.initial_beliefs: mapping form needs an 'xi' list")
        init = ("xi", tuple(float(x) for x in init["xi"]))
    elif isinstance(init, list):
        init = np.asarray(init, dtype=float)
    elif init != "uniform":
        raise ConfigError(
            "dynamics.initial_beliefs: expected 'uniform', an {xi: [..]} mapping "
            "or explicit per-player rows"
        )
    dynamics = DynamicsSpec(
        variant=dyn_data.get("variant", "classic"),
        steps=int(dyn_data.get("steps", 10_000)),
        tie_break=dyn_data.get("tie_break", "lowest"),
        initial_beliefs=init,
    )

    out_data = _require_mapping(data.get("outputs", {}), "outputs")
    _reject_unknown(out_data, ("directory", "format"), "outputs")
    outputs = OutputSpec(
        directory=str(out_data.get("directory", "out")),
        format=out_data.get("format", "csv"),
    )

    seed = data.get("seed")
    if seed is None and generator is not None:
        raise ConfigError("seed: mandatory in generator mode")
    if seed is None:
        seed = 0
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("seed: must be a non-negative integer")

    return ExperimentConfig(
        game=game, generator=generator, dynamics=dynamics, seed=seed, outputs=outputs
    )


def load_config(path) -> ExperimentConfig:
    """Read and validate a YAML config file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file is not valid YAML: {exc}") from exc
    if data is None:
        raise ConfigError("config file is empty")
    return parse_config(data)
