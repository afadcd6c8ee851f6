#ifndef TSAUG_EVAL_SHARD_H_
#define TSAUG_EVAL_SHARD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/status.h"
#include "data/synthetic.h"
#include "eval/experiment.h"

namespace tsaug::eval {

/// Sharded grid execution: partition the study's cells across N worker
/// processes, supervise them (restart crashes and hangs with bounded
/// backoff), and merge the per-shard journals into a report byte-identical
/// to a single-process run.
///
/// Architecture (see DESIGN.md, "Durable runs"):
///
///   supervisor ── fork/exec ──> worker 0 ──> journal shard-0.jsonl
///              ── fork/exec ──> worker 1 ──> journal shard-1.jsonl
///              ...                  │
///              <── exit status ─────┘  (+ journal-size heartbeats)
///              ── MergeJournals ──> merged.jsonl ── replay ──> report
///
/// Each worker runs the ordinary journaled grid with a cell filter: a cell
/// (dataset, run, index) belongs to shard `ShardOfCell(...)` and every
/// other shard skips it entirely — no augmentation, no training, no
/// journal record. The partition is a pure function of the cell identity,
/// so which shard computes a cell never changes what the cell computes,
/// and the merged journal replayed through a resume-only grid reproduces
/// the unsharded report byte for byte.
///
/// Crash recovery: workers are restarted from their own journal (resume
/// makes the retry cheap — completed cells are restored, not recomputed)
/// with bounded exponential backoff. A shard that exhausts its retries is
/// marked failed; the run keeps going and the missing cells surface in the
/// final report as failed (kUnavailable), never as accuracy 0.

/// The shard that owns a cell: a stable 64-bit fingerprint of the cell's
/// identity (FNV-1a over "dataset/run<run>/cell<cell>") range-partitioned
/// into `shard_count` equal slices. It depends only on the cell
/// coordinates, never on configuration, so a journal written by an
/// M-shard run can be merged and replayed by an N-shard (or unsharded)
/// one. shard_count <= 1 maps everything to 0.
int ShardOfCell(const std::string& dataset, int run, int cell,
                int shard_count);

/// Materialises one catalogue dataset by name (the study loader is a
/// seam so tests can shard over synthetic toys).
using DatasetLoader =
    std::function<data::TrainTest(const std::string& name)>;

/// Runs a study over `names` with the given config — the shard worker
/// body, also used unsharded for the golden run and (with
/// config.resume_only) for the post-merge replay. Polls the global stop
/// flag between datasets. When `fault_domain` is non-empty (workers pass
/// "shard/<i>/attempt<k>"), the "shard.worker" fault point is consulted
/// under that domain once per dataset — a `shard.worker@shard/0:2!` spec
/// kills worker 0 before its second dataset — and "shard.hang" simulates
/// a wedged worker by spinning in a sleep loop until killed.
[[nodiscard]] core::StatusOr<StudyResult> RunShardedStudy(
    const std::vector<std::string>& names, const DatasetLoader& loader,
    const std::vector<std::shared_ptr<augment::Augmenter>>& techniques,
    const ExperimentConfig& config, const std::string& fault_domain = "");

/// Writes the canonical byte-comparable study dump: every cell's accuracy
/// as its IEEE-754 bit pattern plus failed/retry counts and final Status.
/// Resume bookkeeping (resumed_runs/resumed_cells, journal path) is
/// deliberately excluded — it differs between a sharded replay and the
/// golden run by design, while everything dumped here must not.
[[nodiscard]] core::Status WriteCanonicalReport(const StudyResult& result,
                                                const std::string& path);

struct SupervisorOptions {
  /// argv prefix of a worker process (typically {argv[0]} of
  /// grid_shard_main); the supervisor appends
  /// `--worker --shard i/N --attempt k --journal <path>`. Workers inherit
  /// the environment, so the TSAUG_* grid knobs need no forwarding.
  std::vector<std::string> worker_command;
  /// Directory for the per-shard journals shard-<i>.jsonl (created if
  /// absent).
  std::string journal_dir;
  int shard_count = 2;
  /// A worker whose journal has not grown for this long is presumed hung,
  /// SIGKILLed and retried. 0 disables hang detection; when enabling it,
  /// the timeout must exceed the worst-case single-cell time — journal
  /// appends are the heartbeat, and a cell mid-computation appends
  /// nothing.
  int hang_timeout_ms = 0;
};

/// Final state of one supervised shard.
struct ShardOutcome {
  int shard = 0;
  std::string journal_path;
  /// Spawn attempts consumed (1 = succeeded first try).
  int attempts = 0;
  bool succeeded = false;
  /// OK when succeeded; otherwise the last failure (exit status, signal,
  /// hang kill, or spawn error).
  core::Status final_status;
};

struct SuperviseResult {
  std::vector<ShardOutcome> shards;
  /// Every shard completed (possibly after retries).
  bool all_succeeded = false;
  /// A global stop (SIGINT/SIGTERM) ended supervision early; running
  /// workers were terminated and reaped.
  bool interrupted = false;
};

/// Spawns one worker process per shard and supervises them to completion,
/// polling every 20 ms: reaps exits, restarts a failed worker after a
/// backoff of 50 ms doubling per failure up to 2 s, kills and retries hung
/// workers (journal-size heartbeats), and marks a shard failed after 2
/// restarts (3 attempts) without sinking the run. Returns an error
/// Status only for supervisor-side misuse (empty worker command, bad
/// journal dir); worker failures are reported per shard in the result.
///
/// Fault points: "shard.spawn" (domain "shard/<i>") makes a spawn attempt
/// fail supervisor-side, exercising the backoff path without a real fork
/// failure. Trace counters: shard.spawned, shard.retried, shard.failed,
/// shard.hung_killed.
///
/// Must be called before any thread pool exists in this process (fork):
/// grid_shard_main supervises first and only replays grids afterwards.
[[nodiscard]] core::StatusOr<SuperviseResult> SuperviseShards(
    const SupervisorOptions& options);

}  // namespace tsaug::eval

#endif  // TSAUG_EVAL_SHARD_H_
