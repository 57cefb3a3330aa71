#!/usr/bin/env python3
"""Smoke test: every workload at tiny size, untraced and traced.

    python3 perfbench/smoke_test.py

Run from the repository root.  Each run takes a few seconds after the
build.  Fails if a workload exits non-zero, reports a failed operation, or
prints a metric set that differs from BENCHMARK.json.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            label = f"{workload} --trace {trace}"
            known = len(problems)
            run = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", "7", "--seconds", "1", "--trace", trace, "--size", "tiny"],
                stdout=subprocess.PIPE, text=True, timeout=300)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                problems.append(f"{label}: exit code {run.returncode}")
                print("FAIL " + label)
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} "
                                "operations failed")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(units) ^ set(expected[trace]))}")
            print(("ok   " if len(problems) == known else "FAIL ") + label)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
