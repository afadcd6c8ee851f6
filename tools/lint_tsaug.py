#!/usr/bin/env python3
"""Repo-specific invariant linter for tsaug.

Enforces correctness conventions that generic tools (compiler warnings,
clang-tidy) cannot express:

  rng-discipline        RNG engines are constructed only via src/core/rng.h:
                        no raw std::mt19937 / std::random_device / rand() /
                        srand() anywhere else. A second engine type or an
                        unseeded source silently breaks experiment
                        reproducibility.
  check-macro           TSAUG_CHECK / TSAUG_DCHECK instead of bare assert():
                        assert() vanishes under NDEBUG, so a release binary
                        would silently skip API-contract checks.
  test-registration     Every tests/*.cc is listed by name in
                        tests/CMakeLists.txt, so a test cannot be written but
                        never built/run.
  no-iostream-header    No <iostream> in src/**/*.h: it injects static
                        constructors into every TU and leaks std::cout into
                        the library API surface.
  no-wall-clock         No time(NULL)/std::time/gettimeofday anywhere, and no
                        chrono clocks inside src/: wall-clock values reaching
                        a seed make runs irreproducible. Timing belongs in
                        bench/. Two exemptions may call steady_clock::now:
                        src/core/trace.cc (the observability subsystem's
                        monotonic clock read) and src/core/cancel.cc
                        (cooperative deadlines — the clock decides whether a
                        cell completes, never what it computes); system and
                        high_resolution clocks stay banned even there.
  parallel-capture      Every ParallelFor whose body captures by reference
                        carries a nearby comment stating why the shared state
                        is safe (disjoint slices, fixed accumulation order,
                        read-only, ...). Keeps the PR-1 determinism guarantee
                        reviewable as call sites multiply.
  check-budget          Data-path code in src/{linalg,augment,nn,data} must not
                        grow new TSAUG_CHECK / TSAUG_CHECK_MSG sites: per-file
                        counts are frozen at the fault-tolerance refactor's
                        level (existing sites are API-contract / structural
                        invariants). A failure that depends on input data
                        (singular solve, diverged loss, degenerate class)
                        must be returned as core::Status so the experiment
                        harness can recover or degrade the one affected cell,
                        not abort the whole grid. TSAUG_DCHECK is not counted.
  simd-confinement      SIMD intrinsics headers (<immintrin.h> and friends)
                        are included only under src/core/kernels/: every
                        other file talks to the hot loops through the
                        runtime-dispatched KernelTable, so a build without
                        the SIMD backend — or a future non-x86 port — never
                        touches intrinsics outside that one directory.
  mutex-annotation      No raw std::mutex / std::shared_mutex / lock_guard /
                        unique_lock / condition_variable tokens in src/
                        outside src/core/thread_annotations.h, and no
                        pthread_mutex/cond/rwlock/spin primitives either
                        (process-supervisor code reaching for <pthread.h>
                        is the same hole): shared state is guarded by the
                        annotated wrappers (Mutex, MutexLock, CondVar) so
                        clang's -Wthread-safety can prove every guarded
                        access holds the right lock. A raw mutex is
                        invisible to that analysis.
  cancellation-poll     In src/**/*.cc files that participate in cooperative
                        stop (they include core/cancel.h), every outermost
                        brace-delimited for/while loop spanning >= 30 lines
                        must either poll (CheckStop / stop_requested /
                        GlobalStopRequested) or carry a nearby // comment
                        containing "cancel" that says why polling is not
                        needed. Long unpolled loops are where a cancelled or
                        deadline-overrun experiment cell stops responding.
                        A loop of ANY length whose body blocks in
                        waitpid / sleep_for / usleep / nanosleep carries the
                        same obligation: a supervisor-style wait loop can be
                        five lines long and still pin the process through a
                        SIGTERM forever.
  status-discard-budget Every Status / StatusOr return is [[nodiscard]]; the
                        rare intentional discard is written `(void)Call();`
                        and counted against a frozen per-file budget.
                        Growing a file's `(void)` count means a new failure
                        is being silently swallowed — handle the Status, or
                        raise the budget in the same change and justify it.
  one-writer            In src/, bench/ and tools/, no hand-rolled \\u%04x
                        JSON escaping and no file opened for writing outside
                        src/core/json.cc (core::JsonWriter) and
                        src/core/io.cc (core::WriteFile); the journal's "ab"
                        appender in src/eval/journal.cc is the one exception.
  unchecked-parse       No atof / atoi / atol / atoll anywhere: they read
                        "abc" as 0 and "1.5s" as 1.5 and cannot report
                        either, so a mistyped flag or variable silently
                        becomes a different setting. Parse with
                        core::ParseInt / ParseDouble / ParseFlags
                        (src/core/flags.h), or std::stoi and friends, which
                        throw, where a test scrapes a number.

Exit status: 0 when clean, 1 when violations were found (one
"file:line: [rule] message" per line on stdout), 2 on usage errors.

--self-test runs the linter against the fixture tree in
tools/testdata/lint_tree (asserting each planted violation is reported with
its exact file:line) and then against the real tree (asserting it is clean).
"""

import argparse
import os
import re
import sys

# tools/ carries real C++ now (serve_main, serve_loadgen), so it is linted
# like any other source dir; lint_tree prunes testdata/ so the planted
# fixture violations under tools/testdata/lint_tree never leak into a real
# run.
SOURCE_DIRS = ("src", "tests", "bench", "examples", "tools")
CXX_EXTENSIONS = (".cc", ".h", ".cpp", ".hpp")

# --- rule implementations ---------------------------------------------------

RNG_EXEMPT = ("src/core/rng.h", "src/core/rng.cc")
RNG_RE = re.compile(r"std::mt19937|std::random_device|\b(?:s)?rand\s*\(")
ASSERT_RE = re.compile(r"(?<![_A-Za-z0-9])assert\s*\(")
IOSTREAM_RE = re.compile(r'#\s*include\s*<iostream>')
WALL_CLOCK_RE = re.compile(
    r"\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)|std::time\s*\(|\bgettimeofday\s*\(")
CHRONO_CLOCK_RE = re.compile(
    r"(?:system|steady|high_resolution)_clock::now")
# The repo's sanctioned monotonic clock reads: the tracing subsystem and
# the cancellation subsystem's deadlines. A non-steady clock is still a
# violation in both (it can jump backwards).
TRACE_CLOCK_EXEMPT = ("src/core/trace.cc", "src/core/cancel.cc")
NONSTEADY_CLOCK_RE = re.compile(r"(?:system|high_resolution)_clock::now")
PARALLEL_FOR_RE = re.compile(r"\bParallelFor\s*\(")
REF_CAPTURE_RE = re.compile(r"\[\s*&")
SAFETY_COMMENT_RE = re.compile(
    r"//.*(determinis|disjoint|independent|owns|owned|read-only|"
    r"accumulation|touches only)", re.IGNORECASE)
PARALLEL_EXEMPT = ("src/core/parallel.h", "src/core/parallel.cc")
COMMENT_WINDOW = 6  # lines above a ParallelFor call searched for the comment

# check-budget: frozen per-file TSAUG_CHECK(_MSG) counts in the data-path
# modules (captured after the Status refactor converted every data-dependent
# abort into a returned core::Status). Files absent from this table have a
# budget of 0. Lowering a count is always fine; raising one means a new
# abort was added where a recoverable Status belongs — if the new site
# really is a programmer-error invariant, update the budget in the same
# change and say why in the review.
# simd-confinement: intrinsics stay behind the kernel-dispatch seam.
# Matches immintrin.h, x86intrin.h, the per-extension *mmintrin.h /
# avx*intrin.h family, and the ARM vector headers.
INTRINSICS_RE = re.compile(
    r'#\s*include\s*[<"](?:[A-Za-z0-9_]*intrin|arm_neon|arm_sve)\.h[>"]')
SIMD_ALLOWED_PREFIX = "src/core/kernels/"

# mutex-annotation: the raw standard lock vocabulary. lock_guard /
# unique_lock / scoped_lock are banned alongside the mutex types because
# locking a wrapped Mutex through its native_handle() with a std RAII type
# would bypass the acquire/release annotations just as thoroughly. The
# pthread primitives joined the ban with the shard supervisor (fork/exec
# code is exactly where a bare pthread_mutex_t tends to creep in).
RAW_MUTEX_RE = re.compile(
    r"std::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"recursive_timed_mutex|shared_timed_mutex|condition_variable(?:_any)?|"
    r"lock_guard|unique_lock|shared_lock|scoped_lock)\b"
    r"|\bpthread_(?:mutex|cond|rwlock|spin)\w*")
MUTEX_EXEMPT = ("src/core/thread_annotations.h",)

# cancellation-poll: outermost loops at least this many lines long in
# cancel-aware .cc files must poll or justify. The threshold is calibrated
# so per-sample generation loops (the multi-second work units) are caught
# while small fixed-trip-count loops stay out of scope.
CANCEL_INCLUDE_RE = re.compile(r'#\s*include\s*"core/cancel\.h"')
LOOP_HEAD_RE = re.compile(r"^\s*(?:for|while)\s*\(")
CANCEL_POLL_RE = re.compile(
    r"CheckStop|stop_requested|GlobalStopRequested")
CANCEL_COMMENT_RE = re.compile(r"//.*cancel", re.IGNORECASE)
CANCEL_LOOP_SPAN = 30       # lines, loop head through closing brace
CANCEL_COMMENT_WINDOW = 3   # lines above the loop head searched for a comment
# Blocking waits that obligate a poll regardless of loop length: a
# supervisor reap loop (waitpid) or a backoff/poll loop (sleep_for) blocks
# indefinitely in very few lines.
BLOCKING_WAIT_RE = re.compile(
    r"\bwaitpid\s*\(|\bsleep_for\s*\(|\busleep\s*\(|\bnanosleep\s*\(")

# status-discard-budget: frozen per-file `(void)` discard counts. Status and
# StatusOr are [[nodiscard]] (src/core/status.h), so an intentional discard
# is always spelled `(void)Call();` — these are the sanctioned sites.
VOID_DISCARD_RE = re.compile(r"\(void\)\s*[A-Za-z_(:]")
STATUS_DISCARD_BUDGET = {
    # TSAUG_DCHECK evaluates its condition as (void)(cond) in release.
    "src/core/check.h": 1,
    # Best-effort fault-spec parse diagnostics / stderr flush.
    "src/core/faultpoint.cc": 1,
    # Supervisor teardown: best-effort kill/reap of already-dying worker
    # processes (the SIGTERM interrupt path and the hang SIGKILL) — a
    # failed signal to a child that is exiting anyway has no recovery.
    "src/eval/shard.cc": 3,
    # Best-effort trace dump on the interrupted (exit 3) path.
    "tools/grid_shard_main.cc": 1,
    # Parameter-pack expansion over unused gradient slots.
    "src/nn/layers.h": 3,
    # Benchmark bodies discard results to keep the measured loop tight;
    # DoNotOptimize provides the side effect.
    "bench/bench_kernels.cc": 4,
}

ONE_WRITER_DIRS = ("src/", "bench/", "tools/")
ONE_WRITER_EXEMPT = ("src/core/json.cc", "src/core/io.cc")
HAND_ESCAPE_RE = re.compile(r'\\\\u(?:%0?4|00)')
FOPEN_MODE_RE = re.compile(r'\bfopen\s*\([^;]*?,\s*"([^"]*)"')
WRITE_STREAM_RE = re.compile(r"\bstd::(?:ofstream|fstream)\b")

UNCHECKED_PARSE_RE = re.compile(r"\bato(?:f|i|l|ll)\s*\(")

CHECK_RE = re.compile(r"\bTSAUG_CHECK(?:_MSG)?\s*\(")
CHECK_BUDGET_DIRS = ("src/linalg/", "src/augment/", "src/nn/", "src/data/")
CHECK_BUDGET = {
    # src/data joined the budgeted dirs with the scenario catalog: dataset
    # generators sit upstream of preflight validation (core/validate.h), so
    # a malformed-data abort here would bypass the typed kDegenerateInput
    # path the stress grid depends on. The frozen sites are spec-literal
    # contracts (scenario table constants, generator Spec invariants), not
    # data-dependent conditions.
    "src/data/scenarios.cc": 1,
    "src/data/synthetic.cc": 6,
    "src/data/uea_catalog.cc": 2,
    "src/augment/augmenter.cc": 5,
    "src/augment/basic_time.cc": 11,
    "src/augment/dba.cc": 7,
    "src/augment/decompose.cc": 2,
    "src/augment/emd.cc": 2,
    "src/augment/frequency.cc": 5,
    "src/augment/generative.cc": 3,
    "src/augment/guided_warp.cc": 5,
    "src/augment/meboot.cc": 1,
    "src/augment/noise.cc": 1,
    "src/augment/oversample.cc": 4,
    "src/augment/pipeline.cc": 2,
    "src/augment/preserving.cc": 3,
    "src/augment/timegan.cc": 5,
    "src/augment/vae.cc": 4,
    "src/linalg/decomposition.cc": 4,
    "src/linalg/distance.cc": 6,
    "src/linalg/knn.cc": 1,
    "src/linalg/matrix.cc": 11,
    "src/linalg/matrix.h": 3,
    "src/linalg/ridge.cc": 10,
    "src/nn/autograd.cc": 3,
    "src/nn/layers.cc": 7,
    # ops.cc: +3 over the fault-tolerance freeze for the fused
    # AddRowBias{Sigmoid,Tanh} gate op's shape contracts — programmer-error
    # invariants identical in kind to the unfused AddRowBias checks; -2 with
    # ConcatFeatures and -2 with AddChannelBias, deleted as unreached.
    "src/nn/ops.cc": 41,
    "src/nn/tensor.h": 3,
    "src/nn/trainer.cc": 8,
}


def strip_line_comment(line):
    """Drops // comments so banned tokens in prose don't trip the rules."""
    pos = line.find("//")
    return line if pos < 0 else line[:pos]


def find_loops(lines):
    """Returns (start, end) 1-based line spans of brace-delimited for/while
    loops. Braceless single-statement loops are skipped (they cannot span
    enough lines to matter for the cancellation-poll rule)."""
    loops = []
    n = len(lines)
    for i in range(n):
        if not LOOP_HEAD_RE.match(strip_line_comment(lines[i])):
            continue
        depth = 0
        opened = False
        end = None
        for j in range(i, n):
            for ch in strip_line_comment(lines[j]):
                if ch == "{":
                    depth += 1
                    opened = True
                elif ch == "}":
                    depth -= 1
                    if opened and depth == 0:
                        end = j
                        break
            if end is not None:
                break
            # A loop header can wrap, but if no brace opened within a few
            # lines this is a braceless loop — skip it.
            if not opened and j - i >= 3:
                break
        if end is not None:
            loops.append((i + 1, end + 1))
    return loops


def lint_cancellation_polls(rel, lines, violations):
    """cancellation-poll: see the module docstring. Only outermost loops are
    checked — an inner loop is covered by its enclosing loop's poll."""
    if not any(CANCEL_INCLUDE_RE.search(line) for line in lines):
        return
    loops = find_loops(lines)
    for (start, end) in loops:
        body = lines[start - 1:end]
        blocking = any(BLOCKING_WAIT_RE.search(strip_line_comment(l))
                       for l in body)
        # Long loops carry the obligation by span; loops with a blocking
        # wait (waitpid / sleep) carry it at any length.
        if end - start + 1 < CANCEL_LOOP_SPAN and not blocking:
            continue
        if any(o_start < start <= o_end for (o_start, o_end) in loops
               if (o_start, o_end) != (start, end)):
            continue  # nested: the outermost loop carries the obligation
        if any(CANCEL_POLL_RE.search(strip_line_comment(l)) for l in body):
            continue
        window = lines[max(0, start - 1 - CANCEL_COMMENT_WINDOW):end]
        if any(CANCEL_COMMENT_RE.search(l) for l in window):
            continue
        if end - start + 1 < CANCEL_LOOP_SPAN:
            message = ("loop in a cancel-aware file blocks in "
                       "waitpid/sleep without polling CheckStop and without "
                       "a // comment (mentioning \"cancel\") saying why a "
                       "stopped run need not interrupt it")
        else:
            message = (f"{end - start + 1}-line loop in a cancel-aware file "
                       "neither polls CheckStop nor carries a // comment "
                       "(mentioning \"cancel\") saying why a stopped run "
                       "need not interrupt it")
        violations.append((rel, start, "cancellation-poll", message))


def lint_one_writer(rel, i, line, violations):
    """one-writer: see the module docstring."""
    if HAND_ESCAPE_RE.search(line):
        violations.append((rel, i, "one-writer",
                           "hand-rolled JSON escaping; encode through "
                           "core::JsonWriter (src/core/json.h)"))
    mode = FOPEN_MODE_RE.search(line)
    mode = mode.group(1) if mode else "r"
    journal_append = rel == "src/eval/journal.cc" and mode == "ab"
    if (any(c in mode for c in "wa+") and not journal_append) or \
            WRITE_STREAM_RE.search(line):
        violations.append((rel, i, "one-writer",
                           "file opened for writing; write whole files "
                           "through core::WriteFile (src/core/io.h)"))


def lint_file(rel, lines, violations):
    is_header = rel.endswith((".h", ".hpp"))
    in_src = rel.startswith("src/")
    check_lines = []
    void_lines = []
    for i, raw in enumerate(lines, start=1):
        line = strip_line_comment(raw)
        if in_src and rel not in MUTEX_EXEMPT and RAW_MUTEX_RE.search(line):
            violations.append((rel, i, "mutex-annotation",
                               "raw std/pthread mutex or lock type in src/; "
                               "use the annotated Mutex/MutexLock/CondVar "
                               "wrappers (core/thread_annotations.h) so clang "
                               "-Wthread-safety can check the guard"))
        if VOID_DISCARD_RE.search(line):
            void_lines.append(i)
        if rel not in RNG_EXEMPT and RNG_RE.search(line):
            violations.append((rel, i, "rng-discipline",
                               "raw RNG engine/seed source; construct RNGs "
                               "via core::Rng (src/core/rng.h)"))
        if ASSERT_RE.search(line):
            violations.append((rel, i, "check-macro",
                               "bare assert() compiles out under NDEBUG; use "
                               "TSAUG_CHECK or TSAUG_DCHECK"))
        if is_header and in_src and IOSTREAM_RE.search(line):
            violations.append((rel, i, "no-iostream-header",
                               "<iostream> in a library header; use "
                               "<cstdio> in the .cc instead"))
        if WALL_CLOCK_RE.search(line):
            violations.append((rel, i, "no-wall-clock",
                               "wall-clock call; seeds must come from "
                               "explicit config, timing belongs in bench/"))
        elif in_src and rel in TRACE_CLOCK_EXEMPT and \
                NONSTEADY_CLOCK_RE.search(line):
            violations.append((rel, i, "no-wall-clock",
                               "non-monotonic clock in the tracing subsystem; "
                               "only steady_clock is sanctioned here"))
        elif in_src and rel not in TRACE_CLOCK_EXEMPT and \
                CHRONO_CLOCK_RE.search(line):
            violations.append((rel, i, "no-wall-clock",
                               "chrono clock inside src/; wall-clock reads "
                               "make library behaviour irreproducible"))
        if not rel.startswith(SIMD_ALLOWED_PREFIX) and \
                INTRINSICS_RE.search(line):
            violations.append((rel, i, "simd-confinement",
                               "intrinsics header outside src/core/kernels/; "
                               "go through the dispatched KernelTable "
                               "(core/kernels/kernels.h) instead"))
        if rel.startswith(CHECK_BUDGET_DIRS) and CHECK_RE.search(line):
            check_lines.append(i)
        if in_src and rel not in PARALLEL_EXEMPT and \
                PARALLEL_FOR_RE.search(line):
            # The lambda usually starts on the call line or shortly after.
            body = "".join(lines[i - 1:i + 3])
            if REF_CAPTURE_RE.search(body):
                window = lines[max(0, i - 1 - COMMENT_WINDOW):i]
                if not any(SAFETY_COMMENT_RE.search(w) for w in window):
                    violations.append(
                        (rel, i, "parallel-capture",
                         "ParallelFor body captures by reference without a "
                         "nearby comment justifying determinism (say how "
                         "writes are disjoint / order is fixed)"))
        if rel.startswith(ONE_WRITER_DIRS) and rel not in ONE_WRITER_EXEMPT:
            lint_one_writer(rel, i, line, violations)
        if UNCHECKED_PARSE_RE.search(line):
            violations.append((rel, i, "unchecked-parse",
                               "atof/atoi/atol/atoll cannot report a bad "
                               "value; use core::ParseInt / ParseDouble / "
                               "ParseFlags (src/core/flags.h)"))
    discard_budget = STATUS_DISCARD_BUDGET.get(rel, 0)
    if len(void_lines) > discard_budget:
        violations.append(
            (rel, void_lines[discard_budget], "status-discard-budget",
             f"{len(void_lines)} `(void)` discards exceed this file's frozen "
             f"budget of {discard_budget}; a dropped Status is a silently "
             "swallowed failure — handle it, or raise the budget in "
             "tools/lint_tsaug.py and justify the discard"))
    if in_src and rel.endswith(".cc"):
        lint_cancellation_polls(rel, lines, violations)
    budget = CHECK_BUDGET.get(rel, 0)
    if len(check_lines) > budget:
        # Anchor the report on the first site beyond the budget: with an
        # append-at-the-bottom edit that is the new check.
        violations.append(
            (rel, check_lines[budget], "check-budget",
             f"{len(check_lines)} TSAUG_CHECK sites exceed this data-path "
             f"file's frozen budget of {budget}; data-dependent failures "
             "must return core::Status (see DESIGN.md, Error handling) — "
             "if this is a genuine programmer-error invariant, raise the "
             "budget in tools/lint_tsaug.py and justify it"))


def lint_test_registration(root, violations):
    tests_dir = os.path.join(root, "tests")
    cmake_path = os.path.join(tests_dir, "CMakeLists.txt")
    if not os.path.isdir(tests_dir):
        return
    if not os.path.isfile(cmake_path):
        violations.append(("tests/CMakeLists.txt", 1, "test-registration",
                           "tests/ has no CMakeLists.txt"))
        return
    with open(cmake_path, encoding="utf-8") as f:
        # Drop # comments: a test name mentioned in prose must not count as
        # registered.
        cmake_text = "\n".join(
            line.split("#", 1)[0] for line in f.read().splitlines())
    for name in sorted(os.listdir(tests_dir)):
        if name.endswith(".cc") and name not in cmake_text:
            violations.append(
                (f"tests/{name}", 1, "test-registration",
                 f"{name} is not registered in tests/CMakeLists.txt; it "
                 "would never be built or run"))


def lint_tree(root):
    violations = []
    for top in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            # Fixture trees (tools/testdata/lint_tree) plant violations on
            # purpose; they are linted by --self-test only.
            dirnames[:] = [d for d in dirnames if d != "testdata"]
            for name in sorted(filenames):
                if not name.endswith(CXX_EXTENSIONS):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                with open(path, encoding="utf-8", errors="replace") as f:
                    lines = f.readlines()
                lint_file(rel, lines, violations)
    lint_test_registration(root, violations)
    return violations


# --- self-test ---------------------------------------------------------------

def self_test(repo_root):
    fixture_root = os.path.join(repo_root, "tools", "testdata", "lint_tree")
    expected_path = os.path.join(fixture_root, "expected_violations.txt")
    with open(expected_path, encoding="utf-8") as f:
        expected = set()
        for raw in f:
            raw = raw.strip()
            if raw and not raw.startswith("#"):
                rel, line, rule = raw.split(":")
                expected.add((rel, int(line), rule))

    got_full = lint_tree(fixture_root)
    got = {(rel, line, rule) for (rel, line, rule, _) in got_full}
    ok = True
    for item in sorted(expected - got):
        ok = False
        print("self-test: expected violation not reported: %s:%d [%s]" % item)
    for item in sorted(got - expected):
        ok = False
        print("self-test: unexpected violation: %s:%d [%s]" % item)
    rules_covered = {rule for (_, _, rule) in expected}
    all_rules = {"rng-discipline", "check-macro", "test-registration",
                 "no-iostream-header", "no-wall-clock", "parallel-capture",
                 "check-budget", "simd-confinement", "mutex-annotation",
                 "cancellation-poll", "status-discard-budget",
                 "one-writer", "unchecked-parse"}
    for rule in sorted(all_rules - rules_covered):
        ok = False
        print(f"self-test: no fixture exercises rule [{rule}]")
    if ok:
        print(f"self-test: fixture tree OK ({len(expected)} violations, "
              f"{len(rules_covered)} rules)")

    real = lint_tree(repo_root)
    for (rel, line, rule, msg) in real:
        ok = False
        print(f"{rel}:{line}: [{rule}] {msg}")
    if real:
        print(f"self-test: real tree has {len(real)} violations")
    else:
        print("self-test: real tree clean")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repository root (default: parent of tools/)")
    parser.add_argument("--self-test", action="store_true",
                        help="validate the linter against its fixture tree, "
                             "then require the real tree to be clean")
    args = parser.parse_args()
    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if args.self_test:
        return self_test(root)
    violations = lint_tree(root)
    for (rel, line, rule, msg) in violations:
        print(f"{rel}:{line}: [{rule}] {msg}")
    if violations:
        print(f"lint_tsaug: {len(violations)} violation(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
