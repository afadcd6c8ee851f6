#!/usr/bin/env python3
"""Smoke test of tsaug_bench: every workload at smoke size, both modes.

    python3 smoke_test.py --bench PATH/tsaug_bench --benchmark-json BENCHMARK.json

Checks that each run's metrics pass run.py's checks against BENCHMARK.json
(every listed metric printed with its unit and a finite value, nothing
unlisted), that every correctness check passes, and that a wrong golden
digest is reported as a failure. Registered as the perfbench_smoke ctest
by perfbench/CMakeLists.txt.
"""
import argparse
import json
import os
import subprocess
import sys

import run as bench_run


def run(bench, workload, trace, golden, work_dir):
    command = [bench, "--workload", workload, "--smoke", "--seconds", "1",
               "--trace", str(trace), "--work-dir", work_dir]
    if golden:
        command += ["--golden", golden]
    out = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                         timeout=60, check=True).stdout
    return bench_run.parse(out)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--bench", required=True)
    parser.add_argument("--benchmark-json", required=True)
    args = parser.parse_args()
    with open(args.benchmark_json) as f:
        spec = json.load(f)
    work_dir = os.path.abspath("perfbench_smoke")
    os.makedirs(work_dir, exist_ok=True)
    golden = os.path.join(work_dir, "wrong_golden.txt")
    with open(golden, "w") as f:
        for workload in spec["workloads"]:
            f.write(f"{workload['name']}/smoke 42 1 0000000000000000\n")

    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            metrics, checks, result = run(args.bench, workload, trace,
                                          golden if trace == 0 else None,
                                          work_dir)
            where = f"{workload} --trace {trace}"
            _, problems = bench_run.select(spec, trace, metrics)
            errors += [f"{where}: {problem}" for problem in problems]
            if result is None or result[0] < 1:
                errors.append(f"{where}: no result line")
                continue
            wrong_golden_seen = ("golden_digest", False) in checks
            other_checks = [c for c in checks if c[0] != "golden_digest"]
            if trace == 0 and not (wrong_golden_seen and result[1] > 0):
                errors.append(f"{where}: wrong golden digest not reported")
            if not all(ok for _, ok in other_checks):
                errors.append(f"{where}: failed checks {other_checks}")
            if trace == 1 and result[1] != 0:
                errors.append(f"{where}: {result[1]} failed operations")
    for error in errors:
        print("FAIL", error)
    print(f"perfbench smoke: {len(errors)} problems")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
