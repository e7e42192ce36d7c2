"""Outside-in tracer for one csgame CLI invocation.

The tracer never edits the package. It replaces names as they are bound in
the *calling* module (``csgame.cli.run_experiment``,
``csgame.montecarlo.analyze_game``, ``csgame.dynamics.utility_table``, ...)
with wrappers that record a span per call: name, layer, start, end and the
span that caused it. Spans and counters stay in memory and are written out
once, after the CLI returns. A layer's self time is its spans' durations minus
the part their child spans cover.

Run one traced invocation (the benchmark does this in a fresh process)::

    PYTHONPATH=src python3 bench/tracer.py SPANS.json simulate configs/symmetric_cycle.yaml
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import Counter

import numpy as np

# Layers are the package's modules, except that game tables and equilibrium
# analysis form one layer: `simulate` never enters csgame.equilibrium, and a
# per-layer time that is zero on every run of a workload says nothing.
LAYER_OF_MODULE = {
    "csgame.config": "config",
    "csgame.game": "analysis",
    "csgame.equilibrium": "analysis",
    "csgame.dynamics": "dynamics",
    "csgame.montecarlo": "montecarlo",
    "csgame.output": "output",
    "csgame.cli": "cli",
}
LAYERS = ("config", "analysis", "dynamics", "montecarlo", "output", "cli", "trace")

# Names replaced in each calling module. Coarse entry points only: wrapping
# per-step helpers would cost more than the work they do. A name a module
# does not bind (for instance after an engine is removed) is skipped.
PATCHES = {
    "csgame.cli": (
        "load_config", "analyze_game", "generate_game", "run_experiment",
        "simulate_trajectory", "detect_cycle", "empirical_frequencies",
        "write_json", "write_summary_json", "write_trajectory_csv",
        "write_trajectory_json", "write_trial_records",
    ),
    "csgame.montecarlo": (
        "analyze_game", "utility_table", "expected_utility",
        "q_from_beliefs", "empirical_frequencies", "_smallest_period",
        "run_fp", "run_aggregation_fp", "run_fp_batch_2x2",
    ),
    "csgame.equilibrium": ("utility_table",),
    "csgame.dynamics": ("utility_table", "potential_table"),
    "csgame.output": ("write_json",),
}

ENGINES = ("run_fp", "run_aggregation_fp", "run_fp_batch_2x2")
CYCLE_FINDERS = ("detect_cycle", "_smallest_period")
WRITERS = ("write_trajectory_json", "write_trajectory_csv", "write_trial_records")

# Span tuple fields.
NAME, LAYER, START, END, PARENT = range(5)


def engine_counts(result) -> tuple[int, int, int]:
    """(game steps, profile switches, state bytes) of an engine's result.

    A switch is a step whose profile differs from the step before it.
    Batch results carry actions as (T, G, K); trajectories carry (T, K).
    """
    actions = getattr(result, "actions", None)
    if actions is not None:
        steps = actions.shape[0] * actions.shape[1]
        switches = int(np.any(actions[1:] != actions[:-1], axis=2).sum())
        arrays = [actions, result.final_marginals, result.utility_sums,
                  *result.frequencies.values()]
    else:
        profiles = result.profiles
        steps = profiles.shape[0]
        switches = int(np.any(profiles[1:] != profiles[:-1], axis=1).sum())
        arrays = [profiles, result.utilities, result.potentials, result.beliefs,
                  result.q_values, result.gammas, result.initial_state,
                  result.final_state]
    state_bytes = sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
    return steps, switches, state_bytes


class Tracer:
    """Records spans and counters while installed; restores every binding on exit."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[tuple[int, str]] = []  # (span index, layer) of open spans
        self._restore: list[tuple] = []

    def _on_result(self, name: str, parent_layer: str | None, args, result) -> None:
        if name in ENGINES:
            steps, switches, state_bytes = engine_counts(result)
            self.counts[f"dynamics.calls.{name}"] += 1
            self.counts["dynamics.game_steps"] += steps
            self.counts["dynamics.switches"] += switches
            self.counts["dynamics.state_bytes"] += state_bytes
        elif name == "utility_table":
            game = args[0]
            self.counts["game.utility_table_calls"] += 1
            self.counts["game.table_cells"] += game.K * game.S ** game.K
        elif name == "analyze_game":
            self.counts["equilibrium.analyze_calls"] += 1
        elif name == "run_experiment":
            self.counts["montecarlo.trials"] += len(result[1])
        elif name.startswith("write_") and parent_layer != "output":
            if name in WRITERS:
                self.counts[f"output.calls.{name}"] += 1
            for path in result if isinstance(result, list) else [result]:
                self.counts["output.files"] += 1
                self.counts["output.bytes"] += os.path.getsize(path)

    def wrap(self, fn, name: str, layer: str):
        def traced(*args, **kwargs):
            parent, parent_layer = self._stack[-1] if self._stack else (None, None)
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append((index, layer))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, layer, start, end, parent)
            # Counting happens outside the timed span, in a span of its own.
            book_start = time.perf_counter()
            self._on_result(name, parent_layer, args, result)
            self.spans.append(("count", "trace", book_start, time.perf_counter(), parent))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, names in PATCHES.items():
            module = importlib.import_module(module_name)
            for name in names:
                fn = getattr(module, name, None)
                if fn is None:
                    continue
                layer = LAYER_OF_MODULE[fn.__module__]
                self._restore.append((module, name, fn))
                setattr(module, name, self.wrap(fn, name, layer))

    def uninstall(self) -> None:
        while self._restore:
            module, name, fn = self._restore.pop()
            setattr(module, name, fn)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans: list) -> list[float]:
    """Per-span duration minus the time covered by its direct children."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] is not None:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def layer_metrics(trace: dict, wall_s: float, scale: float = 1.0) -> dict:
    """Per-layer metrics of one traced invocation whose exec-to-exit time was
    ``wall_s``, with every time multiplied by ``scale``. Time outside every
    span (interpreter start-up, imports, exit) counts as CLI self time, so the
    layer self times sum to ``wall_s * scale``."""
    spans = [(n, layer, start * scale, end * scale, parent)
             for n, layer, start, end, parent in trace["spans"]]
    wall_s *= scale
    counts = Counter(trace["counts"])
    own = self_times(spans)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span, t in zip(spans, own):
        layer_self[span[LAYER]] += t

    def inclusive(pick) -> float:
        return sum(s[END] - s[START] for s in spans if pick(s))

    def outermost_output(s) -> bool:
        return s[LAYER] == "output" and (s[PARENT] is None or spans[s[PARENT]][LAYER] != "output")

    engine_s = inclusive(lambda s: s[NAME] in ENGINES)
    write_s = inclusive(outermost_output)
    steps = counts["dynamics.game_steps"]
    cli_self = wall_s - sum(v for k, v in layer_self.items() if k != "cli")
    return {
        "dynamics.engine_s": engine_s,
        "dynamics.us_per_game_step": 1e6 * engine_s / steps if steps else 0.0,
        **{f"dynamics.calls.{e}": counts[f"dynamics.calls.{e}"] for e in ENGINES},
        "dynamics.game_steps": steps,
        "dynamics.switches": counts["dynamics.switches"],
        "dynamics.switch_ratio": counts["dynamics.switches"] / steps if steps else 0.0,
        "dynamics.state_bytes": counts["dynamics.state_bytes"],
        "dynamics.cycle_s": inclusive(lambda s: s[NAME] in CYCLE_FINDERS),
        "equilibrium.analyze_calls": counts["equilibrium.analyze_calls"],
        "game.utility_table_s": inclusive(lambda s: s[NAME] == "utility_table"),
        "game.utility_table_calls": counts["game.utility_table_calls"],
        "game.table_cells": counts["game.table_cells"],
        "analysis.self_s": layer_self["analysis"],
        "montecarlo.trials": counts["montecarlo.trials"],
        "montecarlo.self_s": layer_self["montecarlo"],
        "output.write_s": write_s,
        "output.json_s": inclusive(lambda s: s[NAME] == "write_json"),
        "output.bytes": counts["output.bytes"],
        "output.files": counts["output.files"],
        "output.mb_per_s": counts["output.bytes"] / 1e6 / write_s if write_s else 0.0,
        **{f"output.calls.{w}": counts[f"output.calls.{w}"] for w in WRITERS},
        "config.load_s": inclusive(lambda s: s[NAME] == "load_config"),
        "cli.self_s": cli_self,
        "trace.self_s": layer_self["trace"],
    }


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    from csgame import cli

    tracer = Tracer()
    with tracer:
        code = tracer.wrap(cli.main, "main", "cli")(cli_argv)
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
