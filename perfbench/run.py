#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload spmd|serve|cluster --seed N \
        --seconds S --trace 0|1

Run from the repository root. Configures and builds perfbench/ (which
builds the simulator libraries from src/) into $CARGO_TARGET_DIR, or
.bench_build when unset, then runs the benchmark binary. Build output goes to
stderr; the binary's stdout is passed through, so its last line is the
result JSON. Exits non-zero, without a result line, when the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("spmd", "serve", "cluster")


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: src/ not found next to perfbench/; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    cmd = [
        binary,
        "--workload=" + args.workload,
        "--seed=" + str(args.seed),
        "--seconds=" + repr(args.seconds),
        "--trace=" + str(args.trace),
        "--out-dir=" + os.path.join(ROOT, ".bench_out"),
    ]
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, timeout=170).returncode
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: benchmark binary exceeded 170 s")
    sys.exit(code)


if __name__ == "__main__":
    main()
