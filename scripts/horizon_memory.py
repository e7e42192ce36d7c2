#!/usr/bin/env python3
"""Check that a simulate run's peak memory does not grow with its horizon.

Runs ``csgame simulate configs/symmetric_cycle.yaml --format csv`` (the
paper's 2-cycle, which switches at every step) at 30 000 and at 2 000 000
steps, one fresh child process at a time, each writing into its own
temporary directory, and reads every child's peak resident set
(``ru_maxrss``) through ``os.wait4``. This launcher imports nothing heavy,
so the children start small. Exits 1 when the long run peaks more than 10%
above the short one.

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
HORIZONS = (30_000, 2_000_000)
TOLERANCE = 0.10


def peak_mb(steps: int) -> tuple[float, float]:
    """Peak RSS in MB and wall seconds of one simulate run."""
    with tempfile.TemporaryDirectory() as out:
        argv = [sys.executable, "-m", "csgame.cli", "simulate", str(CONFIG), "--steps",
                str(steps), "--format", "csv", "--out", out]
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        sys.exit(f"csgame simulate --steps {steps} exited {child.returncode}")
    return usage.ru_maxrss / 1024, wall


def main() -> int:
    peaks = []
    for steps in HORIZONS:
        peak, wall = peak_mb(steps)
        peaks.append(peak)
        print(f"{steps:>10} steps: peak RSS {peak:7.1f} MB, wall {wall:6.2f} s")
    limit = (1 + TOLERANCE) * peaks[0]
    if peaks[-1] > limit:
        print(f"peak RSS grows with the horizon: {peaks[-1]:.1f} MB > {limit:.1f} MB")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
