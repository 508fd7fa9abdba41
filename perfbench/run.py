#!/usr/bin/env python3
"""Builds the engine and the perfbench program from this checkout, then runs
one workload and prints its result as the last line of standard output.

usage (from the root of the checkout):
  python3 perfbench/run.py --workload jit-recovery|analysis-parallel|serve-incremental
                           --seed N --seconds S --trace 0|1 [--corrupt 0|1]
                           [--rate R]

The build goes to $CARGO_TARGET_DIR (default .bench_build)/perfbench;
serve inputs, durable state, sockets and trace files go to
<that dir>/perfbench-out. Everything else is described in
perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("jit-recovery", "analysis-parallel", "serve-incremental")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no engine sources next to perfbench/ (expected ../CMakeLists.txt)")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(cmd))
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rate", type=float, default=0,
                        help="serve-incremental's offered requests/s "
                             "(0: the workload's fixed rate)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1 or args.rate < 0:
        fail("--seed and --rate must be >= 0 and --seconds >= 1")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    out_dir = os.path.join(target, "perfbench-out")
    build(build_dir)
    os.makedirs(out_dir, exist_ok=True)

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--corrupt", str(args.corrupt),
           *(["--rate", repr(args.rate)] if args.rate > 0 else []),
           # Relative paths keep the serve socket path short.
           "--out", os.path.relpath(out_dir, ROOT),
           "--expected", os.path.relpath(
               os.path.join(HERE, "expected_counts.txt"), ROOT)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("perfbench exited with code %d" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("perfbench's last line is not JSON")
    if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
        fail("perfbench printed no metrics")
    sys.stdout.write(done.stdout if done.stdout.endswith("\n")
                     else done.stdout + "\n")


if __name__ == "__main__":
    main()
