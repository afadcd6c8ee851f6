#include "eval/shard.h"

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <thread>
#include <utility>

#include "core/cancel.h"
#include "core/faultpoint.h"
#include "core/io.h"
#include "core/trace.h"
#include "eval/journal.h"

namespace tsaug::eval {
namespace {

/// Restarts allowed per shard after its first attempt: a shard still
/// failing after 1 + kMaxRetries attempts is marked failed and the run
/// continues without it.
constexpr int kMaxRetries = 2;
/// Backoff before the k-th restart of a shard:
/// min(kBackoffMaxMs, kBackoffInitialMs * 2^(k-1)).
constexpr int kBackoffInitialMs = 50;
constexpr int kBackoffMaxMs = 2000;
/// Supervisor poll cadence (exit-status reaps, heartbeats, backoff).
constexpr int kPollIntervalMs = 20;

/// Stable 64-bit fingerprint of one grid cell's identity (see ShardOfCell).
std::uint64_t CellFingerprint(const std::string& dataset, int run, int cell) {
  std::string key = dataset;
  key += "/run";
  key += std::to_string(run);
  key += "/cell";
  key += std::to_string(cell);
  // FNV-1a, 64-bit: stable across platforms and std library versions (a
  // std::hash here would silently re-partition cells between toolchains).
  std::uint64_t hash = 14695981039346656037ull;
  for (char raw : key) {
    hash ^= static_cast<unsigned char>(raw);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// The per-shard journal file inside a supervisor's journal directory.
std::string ShardJournalPath(const std::string& journal_dir, int shard) {
  std::string name = "shard-";
  name += std::to_string(shard);
  name += ".jsonl";
  return (std::filesystem::path(journal_dir) / name).string();
}

}  // namespace

int ShardOfCell(const std::string& dataset, int run, int cell,
                int shard_count) {
  if (shard_count <= 1) return 0;
  // Equal-width range partition of the fingerprint space. The last slice
  // absorbs the rounding remainder.
  const std::uint64_t slice =
      std::numeric_limits<std::uint64_t>::max() /
          static_cast<std::uint64_t>(shard_count) +
      1;
  const std::uint64_t index = CellFingerprint(dataset, run, cell) / slice;
  const std::uint64_t last = static_cast<std::uint64_t>(shard_count) - 1;
  return static_cast<int>(index < last ? index : last);
}

core::StatusOr<StudyResult> RunShardedStudy(
    const std::vector<std::string>& names, const DatasetLoader& loader,
    const std::vector<std::shared_ptr<augment::Augmenter>>& techniques,
    const ExperimentConfig& config, const std::string& fault_domain) {
  StudyResult result;
  result.model = config.model;
  result.journal_path = config.journal_path;

  // One journal for the whole study (a worker resumes its own shard's
  // cells from it after a restart).
  Journal journal;
  if (!config.journal_path.empty()) {
    TSAUG_RETURN_IF_ERROR(journal.Open(config.journal_path,
                                       ConfigFingerprint(config, techniques)));
  }

  for (const std::string& name : names) {
    if (core::GlobalStopRequested()) {
      result.interrupted = true;
      break;
    }
    if (!fault_domain.empty()) {
      // Worker-side chaos hooks, consulted once per dataset under the
      // worker's "shard/<i>/attempt<k>" domain so a spec can target one
      // shard's k-th attempt deterministically. Golden and replay runs
      // pass an empty domain and never consult these points.
      core::fault::ScopedDomain domain(fault_domain);
      if (core::fault::ShouldFail("shard.worker")) {
        core::Status injected = core::fault::InjectedAt("shard.worker");
        injected.AddContext("shard: worker fault before dataset " + name);
        return injected;
      }
      if (core::fault::ShouldFail("shard.hang")) {
        core::trace::AddCount("shard.hang_simulated");
        // cancel: this loop deliberately never polls a stop flag — it
        // simulates a wedged worker so the supervisor's journal-heartbeat
        // hang detection (SIGKILL + retry) is testable end to end.
        for (;;) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
      }
    }
    const data::TrainTest dataset = loader(name);
    core::StatusOr<DatasetRow> row = TryRunDatasetGrid(
        name, dataset, techniques, config,
        journal.is_open() ? &journal : nullptr);
    if (!row.ok()) return row.status();
    result.resumed_cells += row->resumed_cells;
    const bool interrupted = row->interrupted;
    result.rows.push_back(std::move(row).value());
    if (interrupted) {
      result.interrupted = true;
      break;
    }
  }
  return result;
}

namespace {

std::uint64_t BitsOf(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// Incremental appends (never `"literal" + std::to_string(...)`): GCC 12
// -O2 fires a bogus -Wrestrict on the char*-plus-rvalue-string overload,
// fatal under the strict CI leg.
void AppendCellLine(std::string& out, const std::string& name,
                    double accuracy, int failed_runs, int retries,
                    const core::Status& error) {
  out += "  ";
  out += name;
  out += " bits=";
  out += std::to_string(BitsOf(accuracy));
  out += " failed=";
  out += std::to_string(failed_runs);
  out += " retries=";
  out += std::to_string(retries);
  out += " err=";
  out += error.ToString();
  out += "\n";
}

}  // namespace

core::Status WriteCanonicalReport(const StudyResult& result,
                                  const std::string& path) {
  std::string out;
  out += "model=";
  out += ModelKindName(result.model);
  out += "\n";
  for (const DatasetRow& row : result.rows) {
    out += "dataset=";
    out += row.dataset;
    out += "\n";
    AppendCellLine(out, "baseline", row.baseline_accuracy,
                   row.baseline_failed_runs, row.baseline_retries,
                   row.baseline_error);
    for (const CellResult& cell : row.cells) {
      AppendCellLine(out, cell.technique, cell.accuracy, cell.failed_runs,
                     cell.recovered_retries, cell.last_error);
    }
    out += "  improvement_bits=";
    out += std::to_string(BitsOf(row.ImprovementPercent()));
    out += "\n";
  }
  out += "interrupted=";
  out += result.interrupted ? "1" : "0";
  out += "\n";
  out += "average_improvement_bits=";
  out += std::to_string(BitsOf(result.AverageImprovement()));
  out += "\n";

  core::Status written = core::WriteFile(path, out);
  return written.AddContext("shard: writing the report");
}

namespace {

struct WorkerSlot {
  enum class State { kPending, kRunning, kDone, kFailed };

  int shard = 0;
  std::string journal_path;
  pid_t pid = -1;
  /// Spawn attempts consumed so far (the next attempt is attempts + 1).
  int attempts = 0;
  State state = State::kPending;
  /// Backoff gate: a kPending slot may not respawn before this instant.
  std::int64_t eligible_at_nanos = 0;
  /// Heartbeat state: last observed journal size and when it last grew.
  std::int64_t last_progress_nanos = 0;
  std::uintmax_t last_journal_size = 0;
  /// The supervisor SIGKILLed this worker for a heartbeat stall; the
  /// pending reap should be reported as a hang, not a plain signal death.
  bool hang_killed = false;
  core::Status last_failure;
};

std::string ShardDomain(int shard) {
  std::string domain = "shard/";
  domain += std::to_string(shard);
  return domain;
}

std::uintmax_t JournalSizeOrZero(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : size;
}

/// min(kBackoffMaxMs, kBackoffInitialMs * 2^(failures-1)) in nanoseconds.
std::int64_t BackoffNanos(int failures) {
  std::int64_t ms = kBackoffInitialMs;
  for (int i = 1; i < failures && ms < kBackoffMaxMs; ++i) ms *= 2;
  return std::min<std::int64_t>(ms, kBackoffMaxMs) * 1'000'000;
}

core::Status SpawnWorker(const SupervisorOptions& options, WorkerSlot& slot) {
  std::vector<std::string> args = options.worker_command;
  args.emplace_back("--worker");
  args.emplace_back("--shard");
  std::string spec = std::to_string(slot.shard);
  spec += "/";
  spec += std::to_string(options.shard_count);
  args.push_back(std::move(spec));
  args.emplace_back("--attempt");
  args.push_back(std::to_string(slot.attempts));
  args.emplace_back("--journal");
  args.push_back(slot.journal_path);

  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    return core::UnavailableError(std::string("shard: fork failed: ") +
                                  std::strerror(errno));
  }
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    // Exec failed: report and leave without running the parent's atexit
    // handlers (this child shares them until exec succeeds).
    std::fprintf(stderr, "shard: exec %s failed: %s\n", argv[0],
                 std::strerror(errno));
    std::_Exit(127);
  }
  slot.pid = pid;
  return core::OkStatus();
}

core::Status DescribeWaitStatus(const WorkerSlot& slot, int wait_status) {
  std::string text = "shard ";
  text += std::to_string(slot.shard);
  if (slot.hang_killed) {
    text += ": worker killed after a journal-heartbeat stall";
    return core::UnavailableError(std::move(text));
  }
  if (WIFSIGNALED(wait_status)) {
    text += ": worker killed by signal ";
    text += std::to_string(WTERMSIG(wait_status));
  } else {
    text += ": worker exited with status ";
    text += std::to_string(WIFEXITED(wait_status) ? WEXITSTATUS(wait_status)
                                                  : wait_status);
  }
  return core::UnavailableError(std::move(text));
}

void RecordFailure(WorkerSlot& slot, core::Status failure,
                   std::int64_t now_nanos) {
  slot.last_failure = std::move(failure);
  slot.hang_killed = false;
  if (slot.attempts >= kMaxRetries + 1) {
    slot.state = WorkerSlot::State::kFailed;
    core::trace::AddCount("shard.failed");
    std::fprintf(stderr,
                 "shard %d: failed permanently after %d attempt(s): %s\n",
                 slot.shard, slot.attempts,
                 slot.last_failure.ToString().c_str());
    return;
  }
  const std::int64_t backoff = BackoffNanos(slot.attempts);
  slot.state = WorkerSlot::State::kPending;
  slot.eligible_at_nanos = now_nanos + backoff;
  core::trace::AddCount("shard.retried");
  std::fprintf(stderr, "shard %d: attempt %d failed (%s); retrying in %d ms\n",
               slot.shard, slot.attempts,
               slot.last_failure.ToString().c_str(),
               static_cast<int>(backoff / 1'000'000));
}

}  // namespace

core::StatusOr<SuperviseResult> SuperviseShards(
    const SupervisorOptions& options) {
  if (options.worker_command.empty()) {
    return core::InvalidArgumentError("shard: worker_command is empty");
  }
  if (options.shard_count < 1) {
    return core::InvalidArgumentError("shard: shard_count must be >= 1");
  }
  if (options.journal_dir.empty()) {
    return core::InvalidArgumentError("shard: journal_dir is required");
  }
  std::error_code dir_error;
  std::filesystem::create_directories(options.journal_dir, dir_error);
  if (dir_error) {
    return core::UnavailableError("shard: cannot create journal dir " +
                                  options.journal_dir + ": " +
                                  dir_error.message());
  }

  std::vector<WorkerSlot> slots(static_cast<size_t>(options.shard_count));
  for (size_t i = 0; i < slots.size(); ++i) {
    slots[i].shard = static_cast<int>(i);
    slots[i].journal_path =
        ShardJournalPath(options.journal_dir, slots[i].shard);
  }

  const std::int64_t hang_nanos =
      static_cast<std::int64_t>(options.hang_timeout_ms) * 1'000'000;
  bool interrupted = false;

  auto unfinished = [&slots] {
    for (const WorkerSlot& slot : slots) {
      if (slot.state == WorkerSlot::State::kPending ||
          slot.state == WorkerSlot::State::kRunning) {
        return true;
      }
    }
    return false;
  };

  while (unfinished()) {
    // Cancellation: a global stop (SIGINT/SIGTERM) terminates every
    // running worker, reaps it, and ends supervision without respawns.
    if (core::GlobalStopRequested()) {
      interrupted = true;
      for (WorkerSlot& slot : slots) {
        if (slot.state == WorkerSlot::State::kRunning && slot.pid > 0) {
          (void)::kill(slot.pid, SIGTERM);
        }
      }
      for (WorkerSlot& slot : slots) {
        if (slot.state != WorkerSlot::State::kRunning || slot.pid <= 0) {
          continue;
        }
        int wait_status = 0;
        (void)::waitpid(slot.pid, &wait_status, 0);
        slot.pid = -1;
        slot.state = WorkerSlot::State::kFailed;
        slot.last_failure =
            core::CancelledError("shard: supervisor interrupted");
      }
      break;
    }
    const std::int64_t now = core::SteadyNowNanos();

    // Launch pending shards whose backoff has expired. The "shard.spawn"
    // fault point (domain "shard/<i>") fails an attempt supervisor-side,
    // exercising retry/backoff without a real fork failure.
    for (WorkerSlot& slot : slots) {
      if (slot.state != WorkerSlot::State::kPending ||
          now < slot.eligible_at_nanos) {
        continue;
      }
      ++slot.attempts;
      core::Status spawned;
      {
        core::fault::ScopedDomain domain(ShardDomain(slot.shard));
        if (core::fault::ShouldFail("shard.spawn")) {
          spawned = core::fault::InjectedAt("shard.spawn");
        } else {
          spawned = SpawnWorker(options, slot);
        }
      }
      if (spawned.ok()) {
        slot.state = WorkerSlot::State::kRunning;
        slot.last_progress_nanos = now;
        slot.last_journal_size = JournalSizeOrZero(slot.journal_path);
        core::trace::AddCount("shard.spawned");
      } else {
        RecordFailure(slot, std::move(spawned), now);
      }
    }

    // Reap every worker that exited since the last poll.
    for (;;) {
      int wait_status = 0;
      const pid_t pid = ::waitpid(-1, &wait_status, WNOHANG);
      if (pid <= 0) break;
      WorkerSlot* slot = nullptr;
      for (WorkerSlot& candidate : slots) {
        if (candidate.pid == pid) slot = &candidate;
      }
      if (slot == nullptr) continue;  // not a shard worker; ignore
      slot->pid = -1;
      if (WIFEXITED(wait_status) && WEXITSTATUS(wait_status) == 0) {
        slot->state = WorkerSlot::State::kDone;
        slot->last_failure = core::OkStatus();
        core::trace::AddCount("shard.completed");
      } else {
        RecordFailure(*slot, DescribeWaitStatus(*slot, wait_status), now);
      }
    }

    // Journal-progress heartbeats: appends are the worker's liveness
    // signal. A journal that has not grown for hang_timeout_ms marks the
    // worker hung; SIGKILL turns it into an exit the reap above retries.
    if (hang_nanos > 0) {
      for (WorkerSlot& slot : slots) {
        if (slot.state != WorkerSlot::State::kRunning || slot.pid <= 0) {
          continue;
        }
        const std::uintmax_t size = JournalSizeOrZero(slot.journal_path);
        if (size != slot.last_journal_size) {
          slot.last_journal_size = size;
          slot.last_progress_nanos = now;
        } else if (now - slot.last_progress_nanos >= hang_nanos) {
          (void)::kill(slot.pid, SIGKILL);
          slot.hang_killed = true;
          core::trace::AddCount("shard.hung_killed");
          // Re-arm so the pending reap is not re-killed every poll.
          slot.last_progress_nanos = now;
        }
      }
    }

    std::this_thread::sleep_for(std::chrono::milliseconds(kPollIntervalMs));
  }

  SuperviseResult result;
  result.interrupted = interrupted;
  result.all_succeeded = true;
  result.shards.reserve(slots.size());
  for (WorkerSlot& slot : slots) {
    ShardOutcome outcome;
    outcome.shard = slot.shard;
    outcome.journal_path = slot.journal_path;
    outcome.attempts = slot.attempts;
    outcome.succeeded = slot.state == WorkerSlot::State::kDone;
    if (outcome.succeeded) {
      outcome.final_status = core::OkStatus();
    } else if (!slot.last_failure.ok()) {
      outcome.final_status = slot.last_failure;
    } else {
      outcome.final_status =
          core::CancelledError("shard: supervisor interrupted before start");
    }
    if (!outcome.succeeded) result.all_succeeded = false;
    result.shards.push_back(std::move(outcome));
  }
  return result;
}

}  // namespace tsaug::eval
