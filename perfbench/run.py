#!/usr/bin/env python3
"""Build and run the hbmvolt end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve_stream --seed 1 --seconds 30 --trace 0

Configures and builds perfbench/ (which compiles the hbmvolt library from
src/) in Release under $CARGO_TARGET_DIR, or .bench_build when unset, then
runs one workload. The benchmark binary prints a report and, as its last line,
one JSON object with the metrics. The exit code is nonzero when the build
fails, the correctness gate fails, or the run does not finish in time.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("campaign", "serve_stream", "serve_tenants_storm")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def build(source: Path, build_dir: Path) -> Path:
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(source), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "hbmvolt_perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    source = Path(__file__).resolve().parent
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = target / "perfbench-release"
    try:
        binary = build(source, build_dir)
    except (subprocess.CalledProcessError, FileNotFoundError) as err:
        print(f"benchmark build failed: {err}", file=sys.stderr)
        return 1

    scratch = target / f"perfbench-scratch-{os.getpid()}"
    try:
        done = subprocess.run(
            [str(binary), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--scratch", str(scratch)],
            timeout=RUN_TIMEOUT_S)
        return done.returncode
    except subprocess.TimeoutExpired:
        print(f"benchmark run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
