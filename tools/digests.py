#!/usr/bin/env python3
"""Compares the deterministic outputs of two checkouts side by side.

Run from anywhere:

    python3 tools/digests.py --parent ../cgc-parent --change .

Each checkout is configured and built (default build type) in its own
`build-digests/` directory, and then both run:

  * every `soak_chaos` lane of the change's .github/workflows/ci.yml,
    with --replay-check, and the default soak (seed 1, 300 steps):
    digest and collection count;
  * `bench_trace_replay --replay-check`: digest, failed and leaked
    counts, peak and collection count of every trace/allocator row;
  * `bench_table1 1`: every output line.

The script prints one row per item with both sides' values (table1
lines only when they differ) and exits 1 when any item differs or a run
fails.  A refactor that keeps the
collector's behaviour keeps every row equal; a row that moves names the
output to explain.
"""

import argparse
import re
import subprocess
import sys
import tempfile
from pathlib import Path

TARGETS = ["soak_chaos", "bench_trace_replay", "bench_table1"]
SOAK_LANE = re.compile(r"\./soak_chaos((?: [^\s|;&]+)*)")
REPLAY_ROW = re.compile(
    r"^\s*(\S+)\s+(\S+)\s+events\s+\d+\s+digest\s+(\S+)\s+failed\s+(\d+)"
    r"\s+leaked\s+(\d+)\s+peak\s+(\S+ \S+)\s+gcs\s+(\d+)")


def soak_lanes(ci_yml: Path) -> list[list[str]]:
    """The argument lists of the ci.yml soak_chaos lanes, --json and
    --replay-check dropped, plus the default soak.

    >>> p = Path(tempfile.mkdtemp()) / "ci.yml"
    >>> _ = p.write_text("run: cd b && timeout 60 ./soak_chaos --seed 7 "
    ...                  "--guarded --replay-check --json\\n")
    >>> soak_lanes(p)
    [[], ['--seed', '7', '--guarded']]
    """
    lanes = [[]]
    for match in SOAK_LANE.finditer(ci_yml.read_text()):
        args = [a for a in match.group(1).split()
                if a not in ("--json", "--replay-check")]
        if args not in lanes:
            lanes.append(args)
    return lanes


def build(checkout: Path, jobs: int) -> Path:
    out = checkout / "build-digests"
    subprocess.run(["cmake", "-B", str(out), "-S", str(checkout)],
                   check=True, stdout=subprocess.DEVNULL)
    subprocess.run(["cmake", "--build", str(out), "-j", str(jobs),
                    "--target", *TARGETS], check=True,
                   stdout=subprocess.DEVNULL)
    return out / "bench"


def run(binary: Path, args: list[str]) -> str:
    """Runs binary in a scratch directory (some benches write JSON
    files into their working directory) and returns its stdout; a
    failed run returns its exit status and output tail instead."""
    with tempfile.TemporaryDirectory() as cwd:
        done = subprocess.run([str(binary), *args], cwd=cwd,
                              capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        tail = " | ".join(done.stdout.strip().splitlines()[-3:])
        return f"FAILED (exit {done.returncode}): {tail}"
    return done.stdout


def soak_summary(output: str) -> str:
    """
    >>> soak_summary("digest 0123abcd\\ncollections 221, deep 3\\n")
    '0123abcd 221 GCs'
    """
    digest = re.search(r"^digest (\S+)", output, re.M)
    gcs = re.search(r"^collections (\d+)", output, re.M)
    if not digest or not gcs:
        return output.strip().splitlines()[-1] if output.strip() else "?"
    return f"{digest.group(1)} {gcs.group(1)} GCs"


def replay_rows(output: str) -> dict[str, str]:
    """
    >>> replay_rows("  web  gc-free  events  40  digest 03ab  failed  0  "
    ...             "leaked  0  peak  1.0 MiB  gcs  23  9.74 ms\\n"
    ...             "replay-check passed: digests bit-identical")
    {'web gc-free': '03ab failed 0 leaked 0 peak 1.0 MiB 23 GCs'}
    """
    rows = {}
    for line in output.splitlines():
        m = REPLAY_ROW.match(line)
        if m:
            trace, alloc, digest, failed, leaked, peak, gcs = m.groups()
            rows[f"{trace} {alloc}"] = (f"{digest} failed {failed} leaked "
                                        f"{leaked} peak {peak} {gcs} GCs")
    if "replay-check passed" not in output:
        rows["replay-check"] = "not passed"
    return rows


def collect(bench: Path, lanes: list[list[str]]) -> dict[str, str]:
    results = {}
    for args in lanes:
        label = "soak_chaos " + (" ".join(args) or "(seed 1, 300 steps)")
        results[label] = soak_summary(
            run(bench / "soak_chaos", args + ["--replay-check"]))
    replay = run(bench / "bench_trace_replay", ["--replay-check"])
    for key, value in replay_rows(replay).items():
        results["trace_replay " + key] = value
    table = run(bench / "bench_table1", ["1"])
    for i, line in enumerate(l for l in table.splitlines() if l.strip()):
        results[f"table1 line {i + 1:02d}"] = line.strip()
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("-j", "--jobs", type=int, default=2)
    opts = parser.parse_args()

    lanes = soak_lanes(opts.change / ".github" / "workflows" / "ci.yml")
    sides = {}
    for name, checkout in (("parent", opts.parent), ("change", opts.change)):
        print(f"building {name}: {checkout}", file=sys.stderr)
        bench = build(checkout.resolve(), opts.jobs)
        print(f"running {name}", file=sys.stderr)
        sides[name] = collect(bench, lanes)

    parent, change = sides["parent"], sides["change"]
    keys = list(dict.fromkeys([*parent, *change]))
    shown = [k for k in keys if not k.startswith("table1")]
    key_width = max(len(k) for k in keys)
    value_width = max(len(parent.get(k, "missing")) for k in shown)
    differ = 0
    print(f"{'':4}  {'item':<{key_width}}  {'parent':<{value_width}}  "
          "change")
    for key in keys:
        a, b = parent.get(key, "missing"), change.get(key, "missing")
        same = a == b and not a.startswith("FAILED")
        differ += not same
        if key.startswith("table1") and same:
            continue
        print(f"{'same' if same else 'DIFF':4}  {key:<{key_width}}  "
              f"{a:<{value_width}}  {b}")
    table = [k for k in parent if k.startswith("table1")]
    print(f"{'':4}  bench_table1 1: {len(table)} lines compared")
    print(f"{differ} of {len(parent)} items differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
