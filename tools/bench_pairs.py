#!/usr/bin/env python3
"""Compares two checkouts on one perfbench workload in interleaved pairs.

Run from anywhere:

    python3 tools/bench_pairs.py --parent ../cgc-parent --change . \\
        --workload replay --seeds 1-10 --seconds 10

Each seed is one pair: `perfbench/run.py` runs once in each checkout with
that seed, and the side that runs first alternates from pair to pair, so
a drift in machine load falls on both sides alike.  For every end-to-end
metric in BENCHMARK.json the script prints each side's median and
quartiles, the number of pairs the change won, and the parent's
interquartile range.  A change median worse than the parent's by more
than the metric's bound is flagged; so is a run that failed, was not
correct, or failed operations.  Exits 1 if anything was flagged.

The script reads the change checkout's BENCHMARK.json and changes nothing under either checkout except the build and output
directories perfbench/run.py itself writes.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """Parses "1-10", "3,5,8" or a mix such as "1-3,7".

    >>> parse_seeds("1-3,7")
    [1, 2, 3, 7]
    """
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile of values (0 <= q <= 1).

    >>> quantile([4.0, 1.0, 3.0, 2.0], 0.5)
    2.5
    >>> quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.25)
    2.0
    """
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def fmt(value: float) -> str:
    """Four significant digits, without an exponent for large values.

    >>> fmt(34980.7), fmt(0.0054813)
    ('34981', '0.005481')
    """
    return f"{value:.0f}" if abs(value) >= 1e4 else f"{value:.4g}"


def is_better(change: float, parent: float, better: str) -> bool:
    return change > parent if better == "higher" else change < parent


def beyond_bound(change: float, parent: float, better: str,
                 bound: float) -> bool:
    """True when change is worse than parent by more than the
    relative bound.

    >>> beyond_bound(126.0, 100.0, "lower", 0.25)
    True
    >>> beyond_bound(0.8, 1.0, "higher", 0.25)
    False
    """
    if better == "higher":
        return change < parent * (1.0 - bound)
    return change > parent * (1.0 + bound)


def run_once(checkout: Path, workload: str, seed: int,
             seconds: int) -> dict | None:
    """Runs perfbench once, untraced, in checkout; returns its JSON
    result."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="checkout of the baseline")
    parser.add_argument("--change", required=True, type=Path,
                        help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help='one pair per seed: "1-10" or "1,4,9"')
    parser.add_argument("--seconds", required=True, type=int)
    args = parser.parse_args()

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = benchmark["end_to_end"]
    sides = {"parent": args.parent.resolve(),
             "change": args.change.resolve()}
    results = {"parent": [], "change": []}
    flags = []

    for index, seed in enumerate(args.seeds):
        order = ["parent", "change"] if index % 2 == 0 else \
            ["change", "parent"]
        pair = {}
        for side in order:
            result = run_once(sides[side], args.workload, seed,
                              args.seconds)
            if result is None or not result.get("correct") or \
                    result.get("failed", 0) != 0:
                flags.append(f"{side} seed {seed}: run failed, incorrect "
                             "or had failed operations")
            pair[side] = result
        if pair["parent"] and pair["change"]:
            for side in order:
                results[side].append(pair[side]["metrics"])
        print(f"seed {seed} ({order[0]} first)", flush=True)
        for side in order:
            values = "failed" if pair[side] is None else " ".join(
                f"{name}={fmt(metric['value'])}"
                for name, metric in pair[side]["metrics"].items())
            print(f"  {side}: {values}", flush=True)

    pairs = len(results["parent"])
    if pairs == 0:
        print("no complete pair")
        return 1
    print(f"\n{args.workload}: {pairs} pairs, {args.seconds} s each")
    print(f"{'metric':<20} {'parent median (Q1-Q3)':>30} "
          f"{'change median (Q1-Q3)':>30} {'wins':>6} {'parent IQR':>11}")
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        if name not in results["parent"][0]:
            continue
        values = {side: [run[name]["value"] for run in results[side]]
                  for side in results}
        stats = {side: (quantile(v, 0.5), quantile(v, 0.25),
                        quantile(v, 0.75))
                 for side, v in values.items()}
        wins = sum(is_better(c, p, better)
                   for p, c in zip(values["parent"], values["change"]))
        iqr = stats["parent"][2] - stats["parent"][1]
        cells = [f"{fmt(m)} ({fmt(q1)}-{fmt(q3)})"
                 for m, q1, q3 in (stats["parent"], stats["change"])]
        line = (f"{name:<20} {cells[0]:>30} {cells[1]:>30} "
                f"{wins:>3}/{pairs:<2} {fmt(iqr):>11}")
        if beyond_bound(stats["change"][0], stats["parent"][0], better,
                        metric["bound"]):
            line += f"  WORSE THAN BOUND {metric['bound']:g}"
            flags.append(f"{name} median beyond its bound")
        print(line)

    for flag in flags:
        print(f"flag: {flag}")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
