#!/usr/bin/env python3
"""Builds and runs the end-to-end serving benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chat_stream --seed 1 \
        --seconds 25 --trace 0

The first call configures and compiles perfbench/ (which compiles the
library sources under src/) into .bench_build/perfbench; later calls only
rebuild what changed. Build output goes to stderr. The benchmark binary's
stdout is passed through, so its last line -- the JSON result -- is this
script's last line. Per-run result files (and the traced run's Chrome
trace) are written to .bench_build/perfbench/results.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("chat_stream", "cold_prompt", "bulk_batch")
# A run measures --seconds twice at most (untraced, then traced) plus
# set-up and the output check; this bounds a wedged run.
RUN_TIMEOUT_S = 175


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    # The Makefile exists only after a configure that succeeded.
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "e2e_bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in [1, 60]")
    if not build():
        return 1
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    cmd = [os.path.join(BUILD, "e2e_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", results]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
