#!/usr/bin/env python3
"""Append one microbenchmark run to the benchmark history.

Reads a google-benchmark JSON file written with --benchmark_out (run with
--benchmark_repetitions so it carries aggregates) and appends one JSON
line to BENCH_history.jsonl at the repository root.  Earlier lines are
never read back or rewritten, so the file is a trajectory: one line per
run, keyed by `git describe`.

Each line holds:
  describe    -- `git describe --always --dirty` of the tree, or --describe
  date        -- the run's date from the benchmark context
  build_type  -- the hbmvolt_build_type context (release / debug)
  ecc_kernel  -- the hbmvolt_ecc_kernel context (gfni / table)
  host        -- host name and CPU count from the benchmark context
  benchmarks  -- run_name -> the `median` aggregate's times and rates

Usage:
  tools/bench_history.py BENCH_sweep.json
  tools/bench_history.py BENCH_sweep.json --describe abc1234 \\
      --history /path/to/BENCH_history.jsonl
"""

import argparse
import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Fields of a median aggregate worth trending; rates appear only on
# benchmarks that set them.
FIELDS = ("real_time", "cpu_time", "time_unit", "items_per_second",
          "bytes_per_second", "label")


def git_describe():
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=REPO_ROOT,
            capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def history_line(data, describe):
    context = data.get("context", {})
    medians = {}
    for bench in data.get("benchmarks", []):
        if bench.get("aggregate_name") != "median":
            continue
        medians[bench["run_name"]] = {
            key: bench[key] for key in FIELDS if key in bench}
    return {
        "describe": describe,
        "date": context.get("date"),
        "build_type": context.get("hbmvolt_build_type", "unknown"),
        "ecc_kernel": context.get("hbmvolt_ecc_kernel", "unknown"),
        "host": {"name": context.get("host_name"),
                 "num_cpus": context.get("num_cpus")},
        "benchmarks": medians,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench_json",
                        help="a --benchmark_out file with aggregates")
    parser.add_argument("--history",
                        default=os.path.join(REPO_ROOT, "BENCH_history.jsonl"),
                        help="history file to append to")
    parser.add_argument("--describe",
                        help="label for the run (default: git describe)")
    args = parser.parse_args()

    with open(args.bench_json) as f:
        data = json.load(f)
    line = history_line(data, args.describe or git_describe())
    if not line["benchmarks"]:
        sys.exit(f"{args.bench_json} has no median aggregates; run with "
                 "--benchmark_repetitions=N (N >= 2)")
    with open(args.history, "a") as f:
        f.write(json.dumps(line, sort_keys=True) + "\n")
    print(f"appended {len(line['benchmarks'])} medians for "
          f"{line['describe']} ({line['build_type']}, {line['ecc_kernel']}) "
          f"to {args.history}")


if __name__ == "__main__":
    main()
