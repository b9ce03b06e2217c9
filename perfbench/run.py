#!/usr/bin/env python3
"""Serving benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload bin-distinct --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Builds `spire_cli` (the repository's own build, default options) and the
load generator into .bench_build/perfbench, then runs one workload. Every
line the generator prints is passed through; the last one is the result
JSON. Build output goes to stderr. Exits non-zero without a result when the
build fails, and non-zero with a result when a reply disagrees with the
oracle or the server does not drain cleanly.
"""
import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
OUT = os.path.join(".bench_build", "perfbench-out")
# The collected suite the inputs are drawn from, kept between runs.
SUITE = os.path.join(".bench_build", "perfbench-suite")
WORKLOADS = ("bin-distinct", "text-hot", "swap-churn")


def build(targets):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets,
                   stdout=sys.stderr, check=True)


def run_group(argv, timeout):
    """Runs argv in its own process group and, whatever happens, kills and
    waits out every process left in that group (the server it started)."""
    proc = subprocess.Popen(argv, process_group=0)
    try:
        return proc.wait(timeout=timeout)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    os.chdir(ROOT)
    try:
        if args.selftest:
            build(["perfbench_tests"])
            return subprocess.run([os.path.join(BUILD, "perfbench_tests")]).returncode
        if args.workload is None or args.seed is None or args.seconds is None:
            parser.error("--workload, --seed and --seconds are required")
        build(["spire_cli", "perfbench_load"])
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    sys.stdout.flush()
    return run_group([
        os.path.join(BUILD, "perfbench_load"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--cli", os.path.join(BUILD, "spire", "tools", "spire_cli"),
        "--out", OUT, "--suite", SUITE,
    ], timeout=170)


if __name__ == "__main__":
    sys.exit(main())
