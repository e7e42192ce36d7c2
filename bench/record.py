"""Record the benchmark's reference outputs and its baseline.

    python3 bench/record.py expected
        Run every workload at this commit (seeds 0..99 for the seeded
        workloads, once for the inline games) and write the checked output
        fields to bench/expected.json. Run it only on the commit whose
        outputs are the reference.

    python3 bench/record.py baseline --label seed
        Run bench/run.py on every workload with seeds 1..10 (workloads
        interleaved within each seed), plus one traced run per workload, and
        write to bench/baselines/BENCH_<label>.json the medians, quartiles and
        spreads of the end-to-end metrics, and the measured wall and CPU
        seconds and the scale to reference seconds of every invocation.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys

import run as bench

SEEDS = 100  # recorded seeds of the seeded workloads
RUNS = 10  # runs per workload in a baseline


def record_expected() -> None:
    stdout = bench.RUN_DIR / "record" / "stdout.txt"
    stderr = bench.RUN_DIR / "record" / "stderr.txt"
    table = {}
    for w in bench.WORKLOADS.values():
        seeded = w.command == "montecarlo"
        by_seed = {}
        for seed in range(SEEDS) if seeded else (0,):
            out_rel = f".bench_run/record/{w.name}"
            shutil.rmtree(bench.ROOT / out_rel, ignore_errors=True)
            stdout.parent.mkdir(parents=True, exist_ok=True)
            argv = [sys.executable, "-m", "csgame.cli", *w.cli_args(seed, out_rel)]
            child = bench.run_child(argv, stdout, stderr, timeout=600)
            if child.code != 0:
                raise SystemExit(f"{w.name} seed {seed}: exit {child.code}: {bench.tail(stderr)}")
            observed, errors = bench.check_outputs(w, seed, bench.ROOT / out_rel)
            if errors:
                raise SystemExit(f"{w.name} seed {seed}: {errors[:5]}")
            by_seed[str(seed)] = observed
            print(f"{w.name} seed {seed}: {child.wall_s:.2f} s", flush=True)
        table[w.name] = {"by_seed": by_seed} if seeded else {"any_seed": by_seed["0"]}
    payload = {"recorded_at": bench.machine_info(), "workloads": table}
    bench.EXPECTED_FILE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The result line of one benchmark run, and the samples of its invocations."""
    argv = [sys.executable, str(bench.BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=400)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    details = bench.load_json(bench.RUN_DIR / "results" / f"{workload}-seed{seed}-trace{trace}.json")
    samples = {kind: [{k: c[k] for k in ("wall_s", "cpu_s", "rss_mb", "scale")} for c in children]
               for kind, children in details["samples"].items() if children}
    return json.loads(proc.stdout.strip().splitlines()[-1]), samples


def spread_row(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def record_baseline(label: str) -> None:
    spec = bench.load_json(bench.SPEC_FILE)
    seconds = spec["run_seconds"]
    workloads = list(bench.WORKLOADS)
    rows = {w: [] for w in workloads}
    samples = {w: [] for w in workloads}
    for seed in range(1, RUNS + 1):
        for w in workloads:
            line, run_samples = run_once(w, seed, seconds, trace=0)
            rows[w].append(line)
            samples[w].append({"seed": seed, **run_samples})
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in rows[w][-1]["metrics"].items()), flush=True)
    result = {}
    for w in workloads:
        traced, _ = run_once(w, 1, seconds, trace=1)
        e2e = {m["name"]: {**spread_row([r["metrics"][m["name"]]["value"] for r in rows[w]]),
                           "unit": m["unit"], "bound": m["bound"]}
               for m in spec["end_to_end"]}
        result[w] = {
            "attempted": sum(r["attempted"] for r in rows[w]) + traced["attempted"],
            "failed": sum(r["failed"] for r in rows[w]) + traced["failed"],
            "end_to_end": e2e,
            "per_layer": traced["metrics"],
            "samples": samples[w],
        }
        for name, row in e2e.items():
            flag = "" if row["spread"] < row["bound"] / 3 else "  <-- above bound/3"
            print(f"{w:10s} {name:18s} median {row['median']:12.5g} {row['unit']:8s} "
                  f"spread {row['spread']:.4f} (bound {row['bound']}){flag}")
    payload = {
        "label": label,
        "machine": bench.machine_info(),
        "run_seconds": seconds,
        "seeds": list(range(1, RUNS + 1)),
        "traced_seed": 1,
        "workloads": result,
    }
    out = bench.BENCH / "baselines" / f"BENCH_{label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {out.relative_to(bench.ROOT)}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="what", required=True)
    sub.add_parser("expected")
    sub.add_parser("baseline").add_argument("--label", required=True)
    args = parser.parse_args()
    if args.what == "expected":
        record_expected()
    else:
        record_baseline(args.label)


if __name__ == "__main__":
    main()
