"""End-to-end benchmark of the csgame CLI.

    python3 bench/run.py --workload mc2x2 --seed 1 --seconds 20 --trace 0

Run from anywhere; the repository root is the parent of this directory. For
``--seconds`` seconds the benchmark runs the real CLI (``python3 -m
csgame.cli`` on ``src/``) on one workload, one fresh process at a time, and
reads each child's CPU time and peak memory from ``os.wait4`` on its pid.

* ``--trace 0`` reports the end-to-end metrics: median wall time of one
  invocation, game-steps per second, CPU time, peak RSS, and the set-up time
  of a fresh interpreter that imports ``csgame.cli`` and loads the config.
* ``--trace 1`` alternates untraced invocations with invocations run under
  ``bench/tracer.py``, which wraps the package's entry points from outside,
  and reports per-layer metrics plus the tracing overhead.

Times are reported in reference seconds, corrected for the speed the CPU had
while the child ran (see ``NOMINAL_CHUNK_S``); the measured seconds and the
correction of every invocation are kept in the per-run details.

Every invocation writes into a freshly emptied output directory. A run fails
on a non-zero exit, on an output tree that is not byte-identical to the first
invocation's, or on a failed output check (see ``check_outputs``). The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``failed / attempted`` is the error rate. Per-run
details (every sample, the machine and the checks made) go to
``.bench_run/results/``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np
import yaml

from tracer import layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_DIR = ROOT / ".bench_run"
EXPECTED_FILE = BENCH / "expected.json"
# Metric names and units are declared once, in BENCHMARK.json.
SPEC_FILE = ROOT / "BENCHMARK.json"

# Children get one BLAS/OpenMP thread and a fixed hash seed, so the numbers
# measure the program and not the scheduler. At most one child runs at once.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
# The CPUs of a shared virtual machine run the same code up to 1.5x slower
# for seconds to minutes at a time: on a 2-vCPU Xeon VM, the interquartile
# range of identical invocations was about 20% of their median. Every time the
# benchmark reports is therefore in reference seconds: measured seconds times
# the child's scale, r * NOMINAL_CHUNK_S, where r is the CPU's mean speed
# while the child ran, in reference chunks per CPU-second. The chunk (about
# 1 ms) is an interpreter loop plus a CRC over a 256 KiB buffer; it shares no
# code with the program, so a change to the program's own kernels cannot move
# it. A sampler thread times one chunk every SPEED_INTERVAL_S; the benchmark
# and its children stay on one CPU, so the chunk runs on the CPU the child
# runs on (and a change that spreads work over several cores gains no wall
# time here). On that VM the correction cut the interquartile range of single
# invocations to 3-9% of their median. The measured seconds and the scale of
# every invocation are kept with each result.
SPEED_INTERVAL_S = 0.05
NOMINAL_CHUNK_S = 1e-3
_CHUNK_TABLE = list(range(1024))
_CHUNK_BYTES = bytes(range(256)) * 1024

# A whole run must end well inside 180 s even if the program hangs.
HARD_LIMIT_S = 150.0
MIN_UNTRACED = 3
MIN_TRACED = 2
REL_TOL = 1e-9

SETUP_PROBE = "import sys, csgame.cli as c; c.load_config(sys.argv[1]); print(c.__file__)"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand
    config: str  # relative to the repository root
    flags: tuple[str, ...]
    trials: int
    steps: int

    @property
    def game_steps(self) -> int:
        return self.trials * self.steps

    def cli_args(self, seed: int, out: str) -> list[str]:
        return [self.command, self.config, *self.flags, "--seed", str(seed), "--out", out]


# Sizes are chosen so that one invocation takes 2-3 s on a 2-core Xeon, which
# leaves several samples per run. agg_long and cycle_long are inline games:
# --seed is passed through to the CLI but does not change their inputs.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc2x2", "montecarlo", "configs/montecarlo_2x2_snr20.yaml", (), 1000, 10_000),
        Workload("sweep3x3", "montecarlo", "bench/workloads/sweep3x3.yaml", (), 20, 2000),
        Workload("agg_long", "simulate", "configs/aggregation_demo.yaml",
                 ("--steps", "25000", "--format", "json"), 1, 25_000),
        Workload("cycle_long", "simulate", "configs/symmetric_cycle.yaml",
                 ("--steps", "30000", "--format", "csv"), 1, 30_000),
    )
}


# ----------------------------------------------------------------- children


def reference_chunk() -> None:
    total = 0
    table = _CHUNK_TABLE
    for i in range(9000):
        total += table[i & 1023] * i
    for _ in range(4):
        zlib.crc32(_CHUNK_BYTES)


class SpeedSampler(threading.Thread):
    """Times the reference chunk, by thread CPU time, every SPEED_INTERVAL_S
    while a child runs on the same CPU. The mean chunk rate says how fast that
    CPU ran the child's code during its lifetime."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.done = threading.Event()
        self.speeds: list[float] = []

    def run(self) -> None:
        while True:
            start = time.thread_time()
            reference_chunk()
            self.speeds.append(1.0 / (time.thread_time() - start))
            if self.done.wait(SPEED_INTERVAL_S):
                return


@dataclass(frozen=True)
class Child:
    code: int
    wall_s: float  # measured seconds, exec to reap
    cpu_s: float  # user + system seconds of this child
    rss_mb: float
    scale: float  # factor from measured to reference seconds

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s * self.scale


def run_child(argv: list[str], stdout_path: Path, stderr_path: Path, timeout: float) -> Child:
    """Run one child from the repository root; wall time is fork to reap."""
    env = {**os.environ, **CHILD_ENV, "PYTHONPATH": str(ROOT / "src")}
    sampler = SpeedSampler()
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        sampler.start()
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            # wait4 gives this child's own rusage; RUSAGE_CHILDREN would
            # report the largest peak of any child so far.
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            sampler.done.set()
            timer.cancel()
            sampler.join()
            timer.join()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                 statistics.fmean(sampler.speeds) * NOMINAL_CHUNK_S)


def tail(path: Path, n: int = 400) -> str:
    return path.read_bytes()[-n:].decode(errors="replace").strip()


def tree_digest(*paths: Path) -> str:
    """sha256 over the relative names and bytes of every file under paths."""
    digest = hashlib.sha256()
    for base in paths:
        files = sorted(p for p in base.rglob("*") if p.is_file()) if base.is_dir() else [base]
        for f in files:
            digest.update(str(f.relative_to(RUN_DIR)).encode() + b"\0")
            digest.update(f.read_bytes() + b"\0")
    return digest.hexdigest()


# ------------------------------------------------------------ output checks


def compare(expected, actual, where: str) -> list[str]:
    """Discrete values must be equal; floats within REL_TOL relative."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or sorted(actual) != sorted(expected):
            return [f"{where}: keys {sorted(actual) if isinstance(actual, dict) else actual!r} "
                    f"!= {sorted(expected)}"]
        return [e for k in expected for e in compare(expected[k], actual[k], f"{where}.{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: {actual!r} != {expected!r}"]
        return [e for i, (x, y) in enumerate(zip(expected, actual))
                for e in compare(x, y, f"{where}[{i}]")]
    if isinstance(expected, float) and type(actual) in (int, float):
        if abs(actual - expected) <= REL_TOL * max(abs(expected), abs(actual)):
            return []
        return [f"{where}: {actual!r} != {expected!r} (rel. tol. {REL_TOL})"]
    if type(actual) is not type(expected) or actual != expected:
        return [f"{where}: {actual!r} != {expected!r}"]
    return []


def load_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def summarize_records(records: list[dict]) -> dict:
    """The Monte-Carlo summary recomputed from the trial files."""
    ne_hist, region_hist, realized, best, worst, mixed = {}, {}, [], [], [], []
    convergence = dict.fromkeys(("pure", "mixed", "cycling", "undetermined"), 0)
    for rec in records:
        key = str(rec["ne_count"])
        ne_hist[key] = ne_hist.get(key, 0) + 1
        if rec["regions"] is not None:
            label = "+".join(rec["regions"])
            region_hist[label] = region_hist.get(label, 0) + 1
        convergence[rec["dynamics"]["outcome"]] += 1
        realized.append(statistics.fmean(rec["dynamics"]["time_avg_utility"]))
        per_ne = [statistics.fmean(u) for u in rec["ne_utilities"]]
        if per_ne:
            best.append(max(per_ne))
            worst.append(min(per_ne))
        if rec["mixed_ne_mean_utility"] is not None:
            mixed.append(rec["mixed_ne_mean_utility"])

    def mean(values):
        return statistics.fmean(values) if values else None

    return {
        "trials": len(records),
        "ne_count_histogram": ne_hist,
        "region_histogram": region_hist,
        "convergence": convergence,
        "payoffs": {
            "mean_time_avg_utility": mean(realized),
            "mean_best_pure_ne_utility": mean(best),
            "mean_worst_pure_ne_utility": mean(worst),
            "mean_mixed_ne_utility": mean(mixed),
            "trials_with_mixed": len(mixed),
        },
    }


def pure_equilibria(gains: np.ndarray, power: float) -> list[list[int]]:
    """Brute-force pure equilibria of a generated game (unit bandwidths and
    noise), in lexicographic order; ties count as equilibria."""
    n_players, n_channels = gains.shape
    received = power * gains
    weight = 1.0 / n_channels

    def payoff(profile, k):
        s = profile[k]
        denom = 1.0
        for j in range(n_players):
            if j != k and profile[j] == s:
                denom += received[j, s]
        return weight * np.log2(1.0 + received[k, s] / denom)

    found = []
    for profile in itertools.product(range(n_channels), repeat=n_players):
        if all(
            payoff(profile, k) >= max(payoff(profile[:k] + (c,) + profile[k + 1:], k)
                                      for c in range(n_channels))
            for k in range(n_players)
        ):
            found.append(list(profile))
    return found


def check_montecarlo(w: Workload, seed: int, out: Path) -> tuple[dict, list[str]]:
    errors = []
    generator = yaml.safe_load((ROOT / w.config).read_text())["generator"]
    power = float(10.0 ** (generator["snr_db"] / 10.0))
    names = sorted(p.name for p in (out / "trials").iterdir())
    if names != [f"trial_{i:05d}.json" for i in range(w.trials)]:
        errors.append(f"trial files: {len(names)} found, {w.trials} expected")
        return {}, errors
    records = [load_json(out / "trials" / name) for name in names]
    summary = load_json(out / "summary.json")
    observed = {k: summary.get(k) for k in ("trials", "ne_count_histogram", "region_histogram",
                                             "convergence", "payoffs")}
    errors += compare(summarize_records(records), observed, "summary (recomputed)")
    for i, rec in enumerate(records):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        gains = rng.exponential(1.0, size=(generator["players"], generator["channels"]))
        if rec["game"]["gains"] != gains.tolist() or rec["game"]["max_power"] != [power] * len(gains):
            errors.append(f"trial {i}: game is not the one drawn from seed {seed}")
            continue
        pure = pure_equilibria(gains, power)
        if rec["pure_ne"] != pure or rec["ne_count"] != len(pure):
            errors.append(f"trial {i}: pure equilibria {rec['pure_ne']} != {pure}")
        dyn = rec["dynamics"]
        cycle = dyn["cycle"]
        if dyn["steps"] != w.steps:
            errors.append(f"trial {i}: {dyn['steps']} steps, {w.steps} expected")
        if cycle is not None and cycle["period"] >= 2 and dyn["outcome"] != "cycling":
            errors.append(f"trial {i}: period-{cycle['period']} cycle classified {dyn['outcome']}")
        if cycle is not None and cycle["period"] == 1:
            settled = "pure" if cycle["profiles"][0] in pure else "undetermined"
            if dyn["outcome"] != settled:
                errors.append(f"trial {i}: settled run classified {dyn['outcome']}, not {settled}")
    return observed, errors


def trajectory_profiles(path: Path) -> list[tuple[int, ...]]:
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        by_step: dict[int, list[int]] = {}
        for row in rows:
            by_step.setdefault(int(row[0]), []).append(int(row[2]))
        return [tuple(by_step[t]) for t in sorted(by_step)]
    return [tuple(step["profile"]) for step in load_json(path)["steps"]]


def check_simulate(w: Workload, out: Path) -> tuple[dict, list[str]]:
    summary = load_json(out / "run_summary.json")
    observed = {k: summary.get(k) for k in ("variant", "steps", "final_frequencies",
                                             "time_avg_utility", "cycle")}
    profiles = trajectory_profiles(ROOT / summary["trajectory"])
    observed["trajectory_steps"] = len(profiles)
    observed["switches"] = sum(a != b for a, b in zip(profiles[1:], profiles[:-1]))
    errors = []
    if summary["steps"] != w.steps or len(profiles) != w.steps:
        errors.append(f"{summary['steps']} steps in summary, {len(profiles)} in trajectory, "
                      f"{w.steps} expected")
    return observed, errors


def recorded(w: Workload, seed: int) -> dict | None:
    """Values recorded at the seed commit for this workload and seed, if any."""
    table = load_json(EXPECTED_FILE)["workloads"].get(w.name, {})
    if "any_seed" in table:
        return table["any_seed"]
    return table.get("by_seed", {}).get(str(seed))


def check_outputs(w: Workload, seed: int, out: Path) -> tuple[dict, list[str]]:
    """Observed output fields and the problems found in them."""
    if w.command == "montecarlo":
        return check_montecarlo(w, seed, out)
    return check_simulate(w, out)


def check_against_recorded(w: Workload, seed: int, observed: dict) -> tuple[list[str], str]:
    basis = ("recomputed summary, regenerated games, brute-force equilibria"
             if w.command == "montecarlo" else "trajectory file")
    expected = recorded(w, seed)
    if expected is None or not observed:
        return [], basis
    errors = compare(expected, {k: observed.get(k) for k in expected}, "recorded")
    return errors, basis + ", values recorded at the seed commit"


# ------------------------------------------------------------- measurement


def machine_info() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    src = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "bench_cpus": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
    }


def exact_counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if isinstance(v, int)}


def measure(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    run_dir = RUN_DIR / w.name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    out_rel = f".bench_run/{w.name}/out"
    out = ROOT / out_rel
    stdout, stderr = run_dir / "stdout.txt", run_dir / "stderr.txt"
    spans_path = run_dir / "spans.json"
    samples = {"untraced": [], "traced": [], "setup": []}
    layers: list[dict] = []
    errors: list[str] = []
    state = {"attempted": 0, "failed": 0, "digest": None, "observed": None, "basis": None}
    begin = time.perf_counter()

    def remaining() -> float:
        return HARD_LIMIT_S - (time.perf_counter() - begin)

    def fail(problems: list[str]) -> None:
        state["failed"] += 1
        errors.extend(problems)

    def setup_probe(record: bool) -> None:
        state["attempted"] += record
        child = run_child([sys.executable, "-c", SETUP_PROBE, w.config], stdout, stderr, remaining())
        where = Path(stdout.read_text().strip() or ".").resolve()
        if child.code != 0:
            fail([f"set-up probe exited {child.code}: {tail(stderr)}"])
        elif ROOT / "src" not in where.parents:
            fail([f"set-up probe imported csgame from {where}, not from {ROOT / 'src'}"])
        elif record:
            samples["setup"].append(child)

    def invocation(traced: bool) -> None:
        state["attempted"] += 1
        shutil.rmtree(out, ignore_errors=True)
        args = w.cli_args(seed, out_rel)
        argv = ([sys.executable, str(BENCH / "tracer.py"), str(spans_path), *args] if traced
                else [sys.executable, "-m", "csgame.cli", *args])
        child = run_child(argv, stdout, stderr, remaining())
        if child.code != 0:
            fail([f"{'traced ' if traced else ''}invocation exited {child.code}: {tail(stderr)}"])
            return
        problems = []
        digest = tree_digest(out, stdout)
        if state["digest"] is None:
            state["digest"] = digest
            try:
                state["observed"], found = check_outputs(w, seed, out)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                state["observed"], found = {}, [f"output check failed: {exc!r}"]
            mismatches, state["basis"] = check_against_recorded(w, seed, state["observed"])
            problems += found + mismatches
        elif digest != state["digest"]:
            problems.append("output tree differs from the first invocation of this run")
        if traced:
            metrics = layer_metrics(load_json(spans_path), child.wall_s, child.scale)
            problems += check_trace(w, metrics, state["observed"], layers)
            if not problems:
                layers.append(metrics)
        if problems:
            fail(problems)
        else:
            samples["traced" if traced else "untraced"].append(child)

    setup_probe(record=False)  # warm-up: bytecode cache and page cache
    start = time.perf_counter()
    for i in itertools.count():
        enough = (len(samples["untraced"]) >= MIN_UNTRACED
                  and (not trace or len(samples["traced"]) >= MIN_TRACED))
        if time.perf_counter() - start >= seconds and (enough or state["failed"]):
            break
        if remaining() < 30:
            break
        invocation(traced=trace and i % 2 == 1)
        if not trace:
            setup_probe(record=True)
    return {"samples": samples, "layers": layers, "errors": errors, **state}


def check_trace(w: Workload, metrics: dict, observed: dict | None, earlier: list[dict]) -> list[str]:
    problems = []
    if metrics["dynamics.game_steps"] != w.game_steps:
        problems.append(f"traced game steps {metrics['dynamics.game_steps']} != {w.game_steps}")
    if observed and "switches" in observed and metrics["dynamics.switches"] != observed["switches"]:
        problems.append(f"traced switches {metrics['dynamics.switches']} != "
                        f"{observed['switches']} in the trajectory file")
    negative = [k for k, v in metrics.items() if k.endswith("self_s") and v < -1e-9]
    if negative:
        problems.append(f"negative self time in {negative}")
    if earlier and exact_counts(metrics) != exact_counts(earlier[0]):
        problems.append("exact counts differ between traced invocations")
    return problems


def end_to_end(w: Workload, samples: dict) -> dict:
    runs = samples["untraced"]
    wall = median(c.ref_wall_s for c in runs)
    return {
        "wall_s": wall,
        "game_steps_per_s": w.game_steps / wall,
        "cpu_s": median(c.cpu_s * c.scale for c in runs),
        "peak_rss_mb": median(c.rss_mb for c in runs),
        "setup_s": median(c.ref_wall_s for c in samples["setup"]),
    }


def per_layer(samples: dict, layers: list[dict]) -> dict:
    metrics = {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        metrics[name] = values[0] if isinstance(values[0], int) else median(values)
    metrics["trace.overhead_s"] = (median(c.ref_wall_s for c in samples["traced"])
                                   - median(c.ref_wall_s for c in samples["untraced"]))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    missing = [p for p in ("src/csgame/cli.py", w.config) if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: cannot run here, missing {missing} under {ROOT}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("bench: --seed must be non-negative", file=sys.stderr)
        return 2

    # Threads and children inherit this thread's CPU; see NOMINAL_CHUNK_S.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # runs run_child's cleanup
    result = measure(w, args.seed, args.seconds, bool(args.trace))
    info = machine_info()
    samples = result["samples"]
    for problem in result["errors"][:20]:
        print(f"# FAILED: {problem}", file=sys.stderr)
    if not samples["untraced"] or (args.trace and not result["layers"]) or (
            not args.trace and not samples["setup"]):
        print("bench: no successful invocation to report", file=sys.stderr)
        return 1
    values = per_layer(samples, result["layers"]) if args.trace else end_to_end(w, samples)
    declared = load_json(SPEC_FILE)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in declared}
    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0
    walls = [c.wall_s for c in samples["untraced"]]
    scales = [c.scale for c in samples["untraced"]]
    print(f"# workload={w.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"cli: {' '.join(w.cli_args(args.seed, '<out>'))}")
    print(f"# machine: {json.dumps(info, sort_keys=True)}")
    print(f"# measured wall s: n={len(walls)} median={median(walls):.4f} min={min(walls):.4f} "
          f"max={max(walls):.4f}; scale to reference s: median={median(scales):.3f} "
          f"min={min(scales):.3f} max={max(scales):.3f}; setup samples={len(samples['setup'])}; "
          f"error_rate={failed}/{attempted}={failed / attempted:.4f}")
    print(f"# outputs checked against: {result['basis']}")
    for name, (value, unit) in metrics.items():
        print(f"#   {name:38s} {value:>16.6g} {unit}")

    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": info, "correct": correct, "attempted": attempted, "failed": failed,
        "errors": result["errors"], "checked_against": result["basis"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "nominal_chunk_s": NOMINAL_CHUNK_S,
        "samples": {kind: [dataclasses.asdict(c) for c in children]
                    for kind, children in samples.items()},
    }
    results = RUN_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
