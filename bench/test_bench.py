"""Tests of the benchmark itself (not collected by the package's test run).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import importlib
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run as bench  # noqa: E402
import tracer  # noqa: E402


def traced_invocation(tmp_path: Path, name: str, cli_args: list[str]) -> tuple[dict, float]:
    spans = tmp_path / f"{name}.spans.json"
    argv = [sys.executable, str(bench.BENCH / "tracer.py"), str(spans), *cli_args,
            "--out", str(tmp_path / name)]
    child = bench.run_child(argv, tmp_path / "stdout", tmp_path / "stderr", timeout=120)
    assert child.code == 0, bench.tail(tmp_path / "stderr")
    return bench.load_json(spans), child.wall_s


SMALL_CYCLE = ["simulate", "configs/symmetric_cycle.yaml", "--steps", "300", "--format", "csv"]
SMALL_AGG = ["simulate", "configs/aggregation_demo.yaml", "--steps", "300", "--format", "json"]
SMALL_MC = ["montecarlo", "configs/montecarlo_2x2_snr20.yaml", "--steps", "50"]


@pytest.mark.parametrize("cli_args", [SMALL_CYCLE, SMALL_AGG, SMALL_MC], ids=["cycle", "agg", "mc"])
def test_exact_counts_repeat_and_self_times_add_up(tmp_path, cli_args):
    runs = [traced_invocation(tmp_path, f"run{i}", cli_args) for i in range(2)]
    metrics = [tracer.layer_metrics(trace, wall) for trace, wall in runs]
    assert bench.exact_counts(metrics[0]) == bench.exact_counts(metrics[1])
    for (trace, wall), m in zip(runs, metrics):
        spans = [tuple(s) for s in trace["spans"]]
        own = tracer.self_times(spans)
        assert min(own) >= -1e-9
        roots = [s for s in spans if s[tracer.PARENT] is None]
        covered = sum(s[tracer.END] - s[tracer.START] for s in roots)
        assert sum(own) == pytest.approx(covered, rel=1e-9, abs=1e-9)
        by_layer = dict.fromkeys(tracer.LAYERS, 0.0)
        for span, t in zip(spans, own):
            by_layer[span[tracer.LAYER]] += t
        by_layer["cli"] = m["cli.self_s"]
        assert min(by_layer.values()) >= -1e-9
        assert sum(by_layer.values()) == pytest.approx(wall, rel=1e-9)


def test_switch_counts_on_the_inline_games(tmp_path):
    cycle = tracer.layer_metrics(*traced_invocation(tmp_path, "cycle", SMALL_CYCLE))
    agg = tracer.layer_metrics(*traced_invocation(tmp_path, "agg", SMALL_AGG))
    assert (cycle["dynamics.game_steps"], cycle["dynamics.switches"]) == (300, 299)
    assert (agg["dynamics.game_steps"], agg["dynamics.switches"]) == (300, 0)
    assert cycle["dynamics.calls.run_fp"] == agg["dynamics.calls.run_aggregation_fp"] == 1
    assert cycle["output.calls.write_trajectory_csv"] == agg["output.calls.write_trajectory_json"] == 1


def test_wrappers_are_gone_after_a_traced_call():
    modules = {name: importlib.import_module(name) for name in tracer.PATCHES}
    before = {(m, n): getattr(modules[m], n, None) for m, names in tracer.PATCHES.items()
              for n in names}
    with tracer.Tracer():
        replaced = [key for key, fn in before.items()
                    if fn is not None and getattr(modules[key[0]], key[1]) is not fn]
    assert len(replaced) == sum(fn is not None for fn in before.values())
    for (module, name), fn in before.items():
        assert getattr(modules[module], name, None) is fn


def test_compare_tolerates_only_float_noise():
    expected = {"hist": {"2": 904}, "payoff": 3.2855, "cycle": None}
    assert bench.compare(expected, {"hist": {"2": 904}, "payoff": 3.2855 * (1 + 5e-10),
                                    "cycle": None}, "x") == []
    assert bench.compare(expected, {"hist": {"2": 904}, "payoff": 3.2855 * (1 + 5e-9),
                                    "cycle": None}, "x")
    assert bench.compare(expected, {"hist": {"2": 903}, "payoff": 3.2855, "cycle": None}, "x")
    assert bench.compare(expected, {"hist": {"2": 904, "3": 0}, "payoff": 3.2855,
                                    "cycle": None}, "x")


def test_recorded_values_cover_every_workload():
    table = bench.load_json(bench.EXPECTED_FILE)["workloads"]
    assert sorted(table) == sorted(bench.WORKLOADS)
    assert table["cycle_long"]["any_seed"]["switches"] == bench.WORKLOADS["cycle_long"].steps - 1
    assert table["agg_long"]["any_seed"]["switches"] == 0
    for name in ("mc2x2", "sweep3x3"):
        assert len(table[name]["by_seed"]) >= 10


def test_declared_workloads_match_the_benchmark():
    spec = bench.load_json(bench.SPEC_FILE)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    baseline = bench.load_json(bench.BENCH / "baselines" / "BENCH_seed.json")
    for name in bench.WORKLOADS:
        row = baseline["workloads"][name]
        assert row["failed"] == 0
        assert sorted(row["end_to_end"]) == sorted(m["name"] for m in spec["end_to_end"])
        assert sorted(row["per_layer"]) == sorted(m["name"] for m in spec["per_layer"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(bench.SPEC_FILE, tmp_path / "BENCHMARK.json")
    shutil.copytree(bench.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc2x2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / ".bench_run").exists()
