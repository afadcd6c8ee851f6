#!/usr/bin/env python3
"""Measures the run-to-run spread of every end-to-end metric.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] \
        [--save SET.json] [--against EARLIER.json] [workload ...]

Run from the root of a checkout. Runs perfbench/run.py once per seed for
each workload (all of BENCHMARK.json's by default) and prints, per
(workload, metric), every run's value, the median and the interquartile
range as a share of the median, as statistics.quantiles(values, n=4)
gives the quartiles. A spread at or above a third of the metric's bound
is flagged. --save writes the values to a file; --against compares this
set's medians with a saved earlier set and flags a median that is worse
by more than the metric's bound. Exits non-zero when anything is flagged
or a run is not correct.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save")
    parser.add_argument("--against")
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    saved = {}
    flagged = 0
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            run = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect result {result}")
                flagged += 1
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        saved[workload] = values
        for metric in spec["end_to_end"]:
            series = values[metric["name"]]
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            limit = metric["bound"] / 3
            notes = []
            if spread >= limit:
                notes.append("TOO WIDE")
            before = earlier.get(workload, {}).get(metric["name"])
            if before:
                change = median / statistics.median(before) - 1
                if metric["better"] == "higher":
                    change = -change
                notes.append(f"worse by {change:+.3f}")
                if change > metric["bound"]:
                    notes.append("MEDIAN MOVED")
            flagged += "TOO WIDE" in notes or "MEDIAN MOVED" in notes
            print(f"{workload:18} {metric['name']:18} median {median:12.5g} "
                  f"spread {spread:6.3f} (limit {limit:.3f})  "
                  + "  ".join(notes))
            print("    runs:", " ".join(f"{v:.4g}" for v in series))
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
