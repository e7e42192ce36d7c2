#!/usr/bin/env python3
"""Check that a simulate run's peak memory does not grow with its horizon.

Runs ``csgame simulate configs/symmetric_cycle.yaml --format csv`` (the
paper's 2-cycle, which switches at every step) under each learning rule at
30 000 and at 2 000 000 steps, one fresh child process at a time, each
writing into its own temporary directory, and reads every child's peak
resident set (``ru_maxrss``) through ``os.wait4``. This launcher imports
nothing heavy, so the children start small. Exits 1 when, under either
rule, the long run peaks more than 10% above the short one.

Usage:
    PYTHONPATH=src python3 scripts/horizon_memory.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "symmetric_cycle.yaml"
VARIANTS = ("classic", "aggregation")
HORIZONS = (30_000, 2_000_000)
TOLERANCE = 0.10


def peak_mb(variant: str, steps: int) -> tuple[float, float]:
    """Peak RSS in MB and wall seconds of one simulate run."""
    with tempfile.TemporaryDirectory() as out:
        argv = [sys.executable, "-m", "csgame.cli", "simulate", str(CONFIG), "--variant",
                variant, "--steps", str(steps), "--format", "csv", "--out", out]
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        sys.exit(f"csgame simulate --variant {variant} --steps {steps} exited "
                 f"{child.returncode}")
    return usage.ru_maxrss / 1024, wall


def main() -> int:
    grows = False
    for variant in VARIANTS:
        peaks = []
        for steps in HORIZONS:
            peak, wall = peak_mb(variant, steps)
            peaks.append(peak)
            print(f"{variant:>11} {steps:>10} steps: peak RSS {peak:7.1f} MB, wall {wall:6.2f} s")
        limit = (1 + TOLERANCE) * peaks[0]
        if peaks[-1] > limit:
            print(f"{variant}: peak RSS grows with the horizon: {peaks[-1]:.1f} MB > "
                  f"{limit:.1f} MB")
            grows = True
    return int(grows)


if __name__ == "__main__":
    sys.exit(main())
