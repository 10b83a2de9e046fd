#!/usr/bin/env python3
"""limbscan benchmark: runs each workload in its own single process.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

--workload is sweep, register-fine, servo-grid or all (the default, which
runs the three one after another). The workload process gets BLAS and
OpenMP pinned to one thread. With --trace 0 the last stdout line is the
JSON result with the end-to-end metrics; with --trace 1 a separate traced
run reports the per-layer metrics instead. setup_s is the median of
SETUP_SAMPLES process starts: SETUP_SAMPLES - 1 that stop after set-up,
and the measured process itself.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# ops.WORKLOADS, repeated so that this process never imports numpy
WORKLOADS = ("sweep", "register-fine", "servo-grid")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerFailed(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> list[str]:
    """Run the worker to completion and return its stdout lines."""
    env = dict(os.environ, **PINNED)
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args, "--t-spawn", repr(start)],
            env=env, stdout=subprocess.PIPE, text=True, timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker exceeded the {DEADLINE_S:g} s deadline") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    return lines


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(trace)]
    setup = [] if trace else [
        json.loads(spawn(common + ["--setup-only"], deadline)[-1])["setup_s"]
        for _ in range(SETUP_SAMPLES - 1)]
    lines = spawn(common, deadline)
    for line in lines[:-1]:
        print(line, flush=True)
    result = json.loads(lines[-1])
    if not trace:
        setup.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setup)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (HERE.parent / "src" / "limbscan" / "__init__.py").is_file():
        print("limbscan sources not found: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except WorkerFailed as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
