#!/usr/bin/env python3
"""Sharded-grid chaos smoke for CI (tools/grid_shard_main.cc).

Runs the unsharded golden study, then a 2-shard supervised run in which
TSAUG_FAULTS aborts shard 0's first worker attempt mid-shard (SIGABRT
between datasets, after some cells are journaled), and checks that:

  - both runs exit 0 (a crashed worker must not sink the run);
  - the supervisor actually restarted the dead worker: trace counters
    show shard.retried >= 1 and shard.completed == 2;
  - the merged sharded report is byte-identical to the golden report.

Exit status: 0 on success, 1 with a one-line diagnosis on any failure
(never a traceback for an expected failure mode).
"""

import argparse
import json
import os
import subprocess
import sys

# A small fixed grid so the smoke finishes in seconds; the worker-kill
# rule is attempt-tagged, so the restarted attempt runs to completion.
GRID_ENV = {
    "TSAUG_DATASETS": "Epilepsy,RacketSports,Heartbeat",
    "TSAUG_RUNS": "2",
    "TSAUG_KERNELS": "80",
    "TSAUG_TECHNIQUES": "noise_1.0,smote",
    "TSAUG_JOURNAL": "",
}
KILL_FAULT = "shard.worker@shard/0/attempt1:2!"


def fail(message):
    print(f"shard_chaos_smoke: FAIL: {message}")
    return 1


def run(binary, args, faults=""):
    env = dict(os.environ)
    env.update(GRID_ENV)
    env["TSAUG_FAULTS"] = faults
    return subprocess.run([binary] + args, env=env).returncode


def counter(trace_path, name):
    try:
        with open(trace_path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as error:
        return None, f"cannot read trace report {trace_path}: {error}"
    return doc.get("counters", {}).get(name, 0), None


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bin", required=True,
                        help="path to the grid_shard_main binary")
    parser.add_argument("--workdir", required=True,
                        help="scratch directory for journals and reports")
    args = parser.parse_args()
    os.makedirs(args.workdir, exist_ok=True)
    golden = os.path.join(args.workdir, "golden.txt")
    sharded = os.path.join(args.workdir, "sharded.txt")
    trace = os.path.join(args.workdir, "trace.json")
    journal_dir = os.path.join(args.workdir, "journals")

    code = run(args.bin, ["--shards", "0", "--out", golden])
    if code != 0:
        return fail(f"golden run exited {code}, expected 0")
    if not os.path.getsize(golden):
        return fail("golden run produced an empty report")

    code = run(args.bin,
               ["--shards", "2", "--journal-dir", journal_dir,
                "--out", sharded, "--trace-json", trace],
               faults=KILL_FAULT)
    if code != 0:
        return fail(f"chaos run exited {code}, expected 0 "
                    "(a crashed worker must not sink the run)")

    retried, error = counter(trace, "shard.retried")
    if error:
        return fail(error)
    if retried < 1:
        return fail(f"shard.retried == {retried}; the killed worker was "
                    "never restarted")
    completed, error = counter(trace, "shard.completed")
    if error:
        return fail(error)
    if completed != 2:
        return fail(f"shard.completed == {completed}, expected 2")

    if read_bytes(sharded) != read_bytes(golden):
        return fail(f"merged report {sharded} differs from golden {golden}")

    print(f"shard_chaos_smoke: OK (shard.retried={retried}, merged report "
          "byte-identical to the unsharded golden run)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
