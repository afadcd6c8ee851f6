#!/usr/bin/env python3
"""Builds tsaug_bench from this checkout and runs one workload.

    python3 perfbench/run.py --workload table4_rocket --seed 42 \
        --seconds 20 --trace 0

Run from the root of a checkout. tsaug_bench is configured and built in
$CARGO_TARGET_DIR (default .bench_build) on first use; later runs only
re-check the build. Every line tsaug_bench prints (host metadata, checks)
is passed through, and the last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json for --trace 0 and its
per-layer metrics for --trace 1 (0 for a layer the workload never calls).
Exits non-zero without a result when the build fails, tsaug_bench fails,
or the metrics it prints do not match BENCHMARK.json's list (see select).
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds tsaug_bench; returns its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        command = ["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "--target", "tsaug_bench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "tsaug_bench")


def parse(stdout):
    """Splits tsaug_bench's output into (metrics, checks, result).

    metrics maps a name to {"value", "unit"}, checks is a list of
    (name, ok) pairs, and result is (attempted, failed) or None.
    """
    metrics, checks, result = {}, [], None
    for line in stdout.splitlines():
        fields = line.split()
        if fields[:1] == ["metric"] and len(fields) == 4:
            metrics[fields[1]] = {"value": float(fields[2]), "unit": fields[3]}
        elif fields[:1] == ["check"] and len(fields) >= 3:
            checks.append((fields[1], fields[2] == "ok"))
        elif fields[:1] == ["result"] and len(fields) == 3:
            result = (int(fields[1]), int(fields[2]))
    return metrics, checks, result


def select(spec, trace, metrics):
    """The metrics of BENCHMARK.json's list for the mode, in its order.

    Returns (selected, problems). A per-layer metric of a layer the
    workload never calls is not printed and counts as 0; a missing
    end-to-end metric, an unlisted name, a wrong unit or a non-finite
    value is a problem.
    """
    wanted = spec["per_layer" if trace else "end_to_end"]
    problems = [f"metric {name} is not in BENCHMARK.json's "
                f"{'per_layer' if trace else 'end_to_end'} list"
                for name in sorted(set(metrics) - {m["name"] for m in wanted})]
    selected = {}
    for metric in wanted:
        got = metrics.get(metric["name"])
        if got is None and trace:
            got = {"value": 0.0, "unit": metric["unit"]}
        if got is None or not math.isfinite(got["value"]):
            problems.append(f"metric {metric['name']} missing or not finite")
        elif got["unit"] != metric["unit"]:
            problems.append(f"metric {metric['name']} in {got['unit']}, "
                            f"BENCHMARK.json says {metric['unit']}")
        else:
            selected[metric["name"]] = got
    return selected, problems


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int,
                        help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    seconds = args.seconds or spec["run_seconds"]

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, target)
    bench = build(os.path.join(build_root, "perfbench"))
    work_dir = os.path.join(build_root, "work")
    os.makedirs(work_dir, exist_ok=True)

    command = [bench, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", str(args.trace),
               "--golden", os.path.join(HERE, "golden.txt"),
               "--work-dir", work_dir]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"tsaug_bench exceeded {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        fail(f"tsaug_bench exited with {run.returncode}")

    for line in run.stdout.splitlines():
        if not line.startswith("metric "):
            print(line)
    metrics, checks, result = parse(run.stdout)
    if result is None or result[0] < 1:
        fail("tsaug_bench printed no result")
    selected, problems = select(spec, args.trace, metrics)
    if problems:
        fail("; ".join(problems))
    attempted, failed = result
    print(json.dumps({"correct": all(ok for _, ok in checks) and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": selected}))


if __name__ == "__main__":
    main()
