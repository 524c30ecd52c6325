#!/usr/bin/env python3
"""Builds the cgc benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload replay --seed 1 --seconds 10 --trace 0

Workloads: replay, live-graph, mt-churn (see BENCHMARK.json for why each
was chosen); --workload all runs the three in turn.  The build goes to
.bench_build/perfbench (Release); traced runs write their Chrome trace
and per-layer table to .bench_build/perfbench-out.  The last line of standard output is the
JSON result; build output goes to standard error.  Exits nonzero on a
build failure, a failed correctness check, or a timeout.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench-out"
WORKLOADS = ("replay", "live-graph", "mt-churn")
RUN_TIMEOUT_S = 170


def build() -> Path | None:
    """Configures and builds the perfbench program; returns its path,
    or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: collector sources (src/) not found", file=sys.stderr)
        return None
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                      "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-4000:])
                print("perfbench: build failed", file=sys.stderr)
                return None
    return BUILD / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", type=int, default=1,
                        help="multiplies the timed work of each repetition")
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0 or args.scale < 1:
        parser.error("--seconds and --scale must be positive, --seed >= 0")

    binary = build()
    if binary is None:
        return 1
    OUT.mkdir(parents=True, exist_ok=True)
    if args.workload != "all":
        return run_workload(binary, args.workload, args)[0]

    # Every workload in turn; the last line sums their results and
    # prefixes each metric with its workload's name.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        code, result = run_workload(binary, workload, args)
        status = status or code
        if result is None:
            total["correct"] = False
            continue
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(total))
    return status


def run_workload(binary: Path, workload: str, args) -> tuple[int, dict | None]:
    """Runs perfbench on one workload, echoing its output; returns its
    exit code and its JSON result line (None if it printed none)."""
    command = [str(binary), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(OUT),
               "--scale", str(args.scale)]
    sys.stdout.flush()
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} run timed out", file=sys.stderr)
        return 1, None
    sys.stdout.write(done.stdout)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result


if __name__ == "__main__":
    sys.exit(main())
