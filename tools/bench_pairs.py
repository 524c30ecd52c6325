#!/usr/bin/env python3
"""Compares a checkout on one perfbench workload with a parent or a baseline.

Run from anywhere:

    python3 tools/bench_pairs.py --parent ../cgc-parent --change . \\
        --workload replay --seeds 1-10 --seconds 10
    python3 tools/bench_pairs.py --baseline BENCH_replay.json --change . \\
        --workload replay --seeds 1-10 --seconds 10 [--record]

With --parent each seed is one pair: `perfbench/run.py` runs once in each
checkout with that seed, and the side that runs first alternates from
pair to pair, so a drift in machine load falls on both sides alike.

With --baseline the change runs each seed twice, untraced for the
end-to-end metrics and traced for the per-layer ones, and is compared
with the committed baseline file's runs of the same seeds.  --record
writes that file instead: the commit, a digest of the sources the
benchmark builds, the machine, and the median, quartiles and per-seed
values of every metric.  A baseline is only comparable on the machine
it names, and a change is only comparable with a baseline of the same
seeds and seconds.

For every end-to-end metric in BENCHMARK.json the script prints each
side's median and quartiles, the number of seeds the change won, and
the reference side's interquartile range.  A change median worse than
the reference's by more than the metric's bound is flagged; so is a run
that failed, was not correct, or failed operations.  A metric whose
reference IQR exceeds its bound is marked unresolved: the runs spread
too widely to tell a change of that size.  Exits 1 if anything was
flagged.

The script reads the change checkout's BENCHMARK.json and changes
nothing under either checkout except the build and output directories
perfbench/run.py itself writes (and, with --record, the baseline file).
"""

import argparse
import hashlib
import json
import os
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


def unresolved(q1: float, median: float, q3: float, bound: float) -> bool:
    """True when the interquartile range is wider than the relative
    bound around the median.

    >>> unresolved(7.0, 8.0, 9.8, 0.25), unresolved(7.5, 8.0, 8.5, 0.25)
    (True, False)
    """
    return q3 - q1 > abs(median) * bound


def run_once(checkout: Path, workload: str, seed: int, seconds: int,
             trace: int = 0) -> dict | None:
    """Runs perfbench once in checkout; returns its JSON result.  An
    untraced run prints the end-to-end metrics, a traced one the
    per-layer metrics."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def usable(result: dict | None) -> bool:
    return bool(result and result.get("correct")
                and result.get("failed", 0) == 0)


def report(metrics: list[dict], names: list[str], reference: str,
           values: dict[str, list[dict]], flags: list[str]) -> None:
    """Prints one row per metric: each side's median and quartiles,
    the change's wins over the reference seed by seed and the
    reference's IQR.  End-to-end metrics (those in metrics) are also
    checked against their bounds; the rest have no direction to win."""
    bounded = {metric["name"]: metric for metric in metrics}
    print(f"{'metric':<36} {reference + ' median (Q1-Q3)':>30} "
          f"{'change median (Q1-Q3)':>30} {'wins':>6} "
          f"{reference + ' IQR':>13}")
    for name in names:
        runs = {side: [run[name]["value"] for run in values[side]
                       if name in run] for side in values}
        if not runs[reference] or not runs["change"]:
            continue
        stats = {side: (quantile(v, 0.5), quantile(v, 0.25),
                        quantile(v, 0.75)) for side, v in runs.items()}
        cells = [f"{fmt(m)} ({fmt(q1)}-{fmt(q3)})"
                 for m, q1, q3 in (stats[reference], stats["change"])]
        iqr = stats[reference][2] - stats[reference][1]
        metric = bounded.get(name)
        wins = "" if metric is None else "{}/{}".format(
            sum(is_better(c, r, metric["better"])
                for r, c in zip(runs[reference], runs["change"])),
            len(runs["change"]))
        line = (f"{name:<36} {cells[0]:>30} {cells[1]:>30} {wins:>6} "
                f"{fmt(iqr):>13}")
        if metric is not None:
            median, q1, q3 = stats[reference]
            if unresolved(q1, median, q3, metric["bound"]):
                line += "  unresolved"
            if beyond_bound(stats["change"][0], median, metric["better"],
                            metric["bound"]):
                line += f"  WORSE THAN BOUND {metric['bound']:g}"
                flags.append(f"{name} median beyond its bound")
        print(line)


def source_digest(checkout: Path) -> str:
    """SHA-256 over the paths and contents of the files the benchmark
    builds from (src/ and perfbench/, as git lists them)."""
    files = subprocess.run(
        ["git", "ls-files", "-co", "--exclude-standard", "src", "perfbench"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    digest = hashlib.sha256()
    for name in sorted(files.stdout.split()):
        digest.update(name.encode() + b"\0")
        digest.update((checkout / name).read_bytes())
    return digest.hexdigest()


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks since boot from /proc/stat; steal is
    time the hypervisor gave this machine's CPUs to other guests."""
    fields = [int(v) for v in Path("/proc/stat").read_text().split()[1:9]]
    return fields[7], sum(fields)


def machine(steal_before: tuple[int, int]) -> dict:
    model = next((line.split(":", 1)[1].strip()
                  for line in Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")), "unknown")
    steal, total = cpu_ticks()
    steal -= steal_before[0]
    total -= steal_before[1]
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "shared": steal > 0,
            "steal_share": round(steal / total, 4) if total else 0.0}


def summary(runs: list[dict]) -> dict:
    names = list(dict.fromkeys(name for run in runs for name in run))
    out = {}
    for name in names:
        values = [run[name]["value"] for run in runs if name in run]
        out[name] = {"unit": runs[0].get(name, {}).get("unit", ""),
                     "median": quantile(values, 0.5),
                     "q1": quantile(values, 0.25),
                     "q3": quantile(values, 0.75),
                     "values": values}
    return out


def compare_with_baseline(args, metrics: list[dict]) -> int:
    change = args.change.resolve()
    flags = []
    runs = {"end_to_end": [], "per_layer": []}
    steal_before = cpu_ticks()
    for seed in args.seeds:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = run_once(change, args.workload, seed, args.seconds,
                              trace)
            if not usable(result):
                flags.append(f"seed {seed} trace {trace}: run failed, "
                             "incorrect or had failed operations")
                result = {"metrics": {}}
            runs[kind].append(result["metrics"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={fmt(metric['value'])}"
            for name, metric in runs["end_to_end"][-1].items()), flush=True)

    if args.record:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=change,
                                stdout=subprocess.PIPE, text=True).stdout
        baseline = {"workload": args.workload, "commit": commit.strip(),
                    "source_digest": source_digest(change),
                    "machine": machine(steal_before), "seeds": args.seeds,
                    "seconds": args.seconds,
                    "end_to_end": summary(runs["end_to_end"]),
                    "per_layer": summary(runs["per_layer"])}
        args.baseline.write_text(json.dumps(baseline, indent=1) + "\n")
        print(f"wrote {args.baseline}")
    else:
        baseline = json.loads(args.baseline.read_text())
        if (baseline["seeds"], baseline["seconds"], baseline["workload"]) \
                != (args.seeds, args.seconds, args.workload):
            flags.append("seeds, seconds or workload differ from the "
                         "baseline's")
        if baseline["source_digest"] == source_digest(change):
            print("note: the sources are the baseline's own")
        print(f"baseline {baseline['commit'][:12]} on "
              f"{baseline['machine']['cpu_model']} "
              f"({baseline['machine']['nproc']} CPUs)")
        for kind in ("end_to_end", "per_layer"):
            reference = [{name: {"value": v} for name, v in zip(
                baseline[kind], values)} for values in zip(*(
                    stats["values"] for stats in baseline[kind].values()))]
            print(f"\n{args.workload} {kind}: {len(args.seeds)} seeds, "
                  f"{args.seconds} s each")
            report(metrics if kind == "end_to_end" else [],
                   list(baseline[kind]), "baseline",
                   {"baseline": reference, "change": runs[kind]}, flags)

    for flag in flags:
        print(f"flag: {flag}")
    return 1 if flags else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    reference = parser.add_mutually_exclusive_group(required=True)
    reference.add_argument("--parent", type=Path,
                           help="checkout of the parent to pair with")
    reference.add_argument("--baseline", type=Path,
                           help="BENCH_<workload>.json to compare with")
    parser.add_argument("--record", action="store_true",
                        help="with --baseline: write the file instead")
    parser.add_argument("--change", required=True, type=Path,
                        help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help='one pair per seed: "1-10" or "1,4,9"')
    parser.add_argument("--seconds", required=True, type=int)
    args = parser.parse_args()
    if args.record and args.baseline is None:
        parser.error("--record needs --baseline")

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = benchmark["end_to_end"]
    if args.baseline is not None:
        return compare_with_baseline(args, metrics)

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
            if not usable(result):
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
    report(metrics, [metric["name"] for metric in metrics], "parent",
           results, flags)

    for flag in flags:
        print(f"flag: {flag}")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
