#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <train|serve_write> \
        --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]

Run from the repository root.  The build goes to $CARGO_TARGET_DIR (default
.bench_build); build output goes to stderr so that the benchmark's JSON
result stays the last line of stdout.  With --trace 1 the span trace is
written to <build dir>/traces/<workload>-<seed>.csv.  Exits non-zero, with
no result line, when the build or the run fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    cmake_dir = os.path.join(build_dir, "perfbench")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(cmake_dir, "e2e_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["train", "serve_write"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--size", default="full", choices=["full", "tiny"])
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace, "--size", args.size,
               "--work-dir", os.path.join(build_dir, "work")]
    if args.trace == "1":
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(traces, f"{args.workload}-{args.seed}.csv")]
    try:
        # run() kills the child on timeout and waits for it to exit.
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
