// Sharded grid runner (see DESIGN.md, "Durable runs"): partitions the
// study's cells across N worker processes by cell fingerprint, supervises
// the workers (crash/hang restarts with bounded backoff), merges the
// per-shard journals and replays them into a report byte-identical to a
// single-process run.
//
// Suites (--suite):
//   paper    the 13 UEA-like Table III datasets (data/uea_catalog.h)
//   stress   the stress-scenario catalog (data/scenarios.h; DESIGN.md,
//            "Scenario catalog & preflight validation"): concept drift,
//            extreme imbalance, structured missingness, degenerate
//            geometries. Every scenario either repairs deterministically
//            in preflight or surfaces as typed failed cells. The config's
//            dataset_suite is pinned to "stress", so a stress journal can
//            never be replayed against the paper suite.
//
// Modes:
//   grid_shard_main --list                                   print suite
//   grid_shard_main --shards N --journal-dir DIR --out PATH  supervisor
//   grid_shard_main --shards 0 --out PATH                    golden (one
//                                                            process, no
//                                                            sharding)
//   grid_shard_main --worker --shard i/N --attempt K
//                   --journal PATH                           (internal)
//
// Flags:
//   --suite NAME         paper|stress                          (paper)
//   --model NAME         rocket|inception                      (rocket)
//   --hang-timeout-ms H  journal-heartbeat hang kill, 0 = off  (0); it
//                        must exceed the worst single-cell time
//   --trace-json PATH    enable tracing; write the report at exit
//
// The supervisor polls every 20 ms, restarts a failed worker after a
// backoff of 50 ms doubling per failure up to 2 s, and marks a shard failed
// after 2 restarts (eval/shard.h).
//
// The grid itself (scale, runs, kernels, datasets, techniques, seed) is
// configured via the TSAUG_* environment (eval/report.h), which worker
// processes inherit — no grid flag forwarding. TSAUG_DATASETS selects a
// subset of the suite (unknown names are a usage error); unset runs all of
// it.
//
// Exit codes: 0 = run completed (shards that exhausted retries surface as
// failed cells in the report, they do not sink the run); 1 = supervisor/
// infrastructure error; 2 = usage or worker error; 3 = interrupted.
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/cancel.h"
#include "core/flags.h"
#include "core/io.h"
#include "core/status.h"
#include "core/trace.h"
#include "data/scenarios.h"
#include "data/uea_catalog.h"
#include "eval/journal.h"
#include "eval/report.h"
#include "eval/shard.h"

namespace {

using tsaug::eval::BenchSettings;
using tsaug::eval::ExperimentConfig;
using tsaug::eval::ModelKind;
using tsaug::eval::SupervisorOptions;

/// Writes the canonical report to `out_path` and, when `trace_json` is
/// set, the trace report; false (after saying why) on a failed write.
bool WriteReports(const tsaug::eval::StudyResult& study,
                  const std::string& out_path, const std::string& trace_json) {
  const tsaug::core::Status written =
      tsaug::eval::WriteCanonicalReport(study, out_path);
  if (!written.ok()) {
    std::fprintf(stderr, "grid_shard_main: %s\n", written.ToString().c_str());
    return false;
  }
  if (trace_json.empty()) return true;
  const tsaug::core::Status traced =
      tsaug::core::WriteFile(trace_json, tsaug::core::trace::ReportJson());
  if (!traced.ok()) {
    std::fprintf(stderr, "grid_shard_main: %s\n", traced.ToString().c_str());
  }
  return traced.ok();
}

/// Parses "i/N" with 0 <= i < N.
bool ParseShard(const char* text, int* index, int* count) {
  if (text == nullptr) return false;
  const char* slash = std::strchr(text, '/');
  if (slash == nullptr) return false;
  const std::string head(text, slash);
  return tsaug::core::ParseInt(head.c_str(), 0, INT_MAX, index) &&
         tsaug::core::ParseInt(slash + 1, 1, INT_MAX, count) &&
         *index < *count;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--suite paper|stress] --shards N --journal-dir DIR "
               "--out PATH [...]\n"
               "       %s [--suite paper|stress] --shards 0 --out PATH   "
               "(unsharded golden run)\n"
               "       %s [--suite paper|stress] --list                  "
               "(print the suite)\n"
               "see the header comment in tools/grid_shard_main.cc\n",
               argv0, argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool worker = false;
  bool list = false;
  int shard_index = 0;
  int worker_shard_count = 0;
  int attempt = 1;
  int shards = -1;
  std::string worker_journal;
  std::string journal_dir;
  std::string out_path;
  std::string trace_json;
  std::string suite = "paper";
  std::string model_name = "rocket";
  SupervisorOptions options;

  using tsaug::core::IntFlag;
  using tsaug::core::StringFlag;
  const tsaug::core::Status parsed = tsaug::core::ParseFlags(
      argc, argv,
      {tsaug::core::SwitchFlag("--worker", &worker),
       tsaug::core::SwitchFlag("--list", &list),
       {"--shard", true,
        [&](const char* v) {
          return ParseShard(v, &shard_index, &worker_shard_count);
        }},
       IntFlag("--attempt", 1, INT_MAX, &attempt),
       StringFlag("--journal", &worker_journal),
       IntFlag("--shards", 0, INT_MAX, &shards),
       StringFlag("--journal-dir", &journal_dir),
       StringFlag("--out", &out_path),
       StringFlag("--trace-json", &trace_json),
       StringFlag("--suite", &suite),
       StringFlag("--model", &model_name),
       IntFlag("--hang-timeout-ms", 0, INT_MAX, &options.hang_timeout_ms)});
  if (!parsed.ok()) {
    std::fprintf(stderr, "grid_shard_main: %s\n", parsed.ToString().c_str());
    return Usage(argv[0]);
  }

  if (suite != "paper" && suite != "stress") {
    std::fprintf(stderr, "grid_shard_main: unknown --suite %s\n",
                 suite.c_str());
    return 2;
  }
  const bool stress = suite == "stress";
  std::vector<std::string> suite_names;
  if (stress) {
    suite_names = tsaug::data::ScenarioIds();
  } else {
    for (const tsaug::data::UeaDatasetInfo& info :
         tsaug::data::UeaImbalancedCatalog()) {
      suite_names.push_back(info.name);
    }
  }
  if (list) {
    if (stress) {
      for (const tsaug::data::ScenarioInfo& info :
           tsaug::data::ScenarioCatalog()) {
        std::printf("%-26s %-10s %s\n", info.id.c_str(), info.family.c_str(),
                    info.summary.c_str());
      }
    } else {
      for (const std::string& name : suite_names) {
        std::printf("%s\n", name.c_str());
      }
    }
    return 0;
  }

  ModelKind model = ModelKind::kRocket;
  if (model_name == "inception") {
    model = ModelKind::kInceptionTime;
  } else if (model_name != "rocket") {
    std::fprintf(stderr, "grid_shard_main: unknown --model %s\n",
                 model_name.c_str());
    return 2;
  }

  const tsaug::core::StatusOr<BenchSettings> read =
      tsaug::eval::ReadBenchSettings();
  if (!read.ok()) {
    std::fprintf(stderr, "grid_shard_main: %s\n",
                 read.status().ToString().c_str());
    return 2;
  }
  const BenchSettings& settings = *read;
  ExperimentConfig config = tsaug::eval::MakeExperimentConfig(settings, model);
  if (stress) config.dataset_suite = "stress";
  const auto techniques = tsaug::eval::MakePaperTechniques(settings);
  std::vector<std::string> names = settings.datasets;
  if (names.empty()) names = suite_names;
  const tsaug::core::Status names_ok =
      tsaug::eval::CheckNames(names, suite_names, suite + " dataset");
  if (!names_ok.ok()) {
    std::fprintf(stderr, "grid_shard_main: %s\n",
                 names_ok.ToString().c_str());
    return 2;
  }
  const tsaug::eval::DatasetLoader loader =
      [&settings, stress](const std::string& name) -> tsaug::data::TrainTest {
    if (stress) {
      return tsaug::data::TryMakeScenarioDataset(name, settings.seed).value();
    }
    return tsaug::data::MakeUeaLikeDataset(name, settings.scale,
                                           settings.seed);
  };

  if (worker) {
    if (worker_shard_count < 1 || worker_journal.empty()) {
      return Usage(argv[0]);
    }
    tsaug::core::InstallStopSignalHandlers();
    config.journal_path = worker_journal;
    config.shard_index = shard_index;
    config.shard_count = worker_shard_count;
    std::string domain = "shard/";
    domain += std::to_string(shard_index);
    domain += "/attempt";
    domain += std::to_string(attempt);
    const tsaug::core::StatusOr<tsaug::eval::StudyResult> study =
        tsaug::eval::RunShardedStudy(names, loader, techniques, config,
                                     domain);
    if (!study.ok()) {
      std::fprintf(stderr, "grid_shard_main worker %d/%d: %s\n", shard_index,
                   worker_shard_count, study.status().ToString().c_str());
      return 2;
    }
    return study->interrupted || tsaug::core::GlobalStopRequested() ? 3 : 0;
  }

  if (shards < 0 || out_path.empty()) return Usage(argv[0]);
  if (!trace_json.empty()) tsaug::core::trace::Enable();
  tsaug::core::InstallStopSignalHandlers();

  if (shards == 0) {
    // Golden mode: the plain single-process study, dumped canonically so
    // sharded runs can be compared byte for byte.
    config.journal_path = settings.journal_path;
    const tsaug::core::StatusOr<tsaug::eval::StudyResult> study =
        tsaug::eval::RunShardedStudy(names, loader, techniques, config);
    if (!study.ok()) {
      std::fprintf(stderr, "grid_shard_main: %s\n",
                   study.status().ToString().c_str());
      return 1;
    }
    if (!WriteReports(*study, out_path, trace_json)) return 1;
    return study->interrupted ? 3 : 0;
  }

  // Supervisor mode. Fork happens before any grid work, so no thread pool
  // exists in this process until the post-merge replay below.
  if (journal_dir.empty()) return Usage(argv[0]);
  options.worker_command.push_back(argv[0]);
  if (stress) {
    options.worker_command.emplace_back("--suite");
    options.worker_command.push_back(suite);
  }
  if (model != ModelKind::kRocket) {
    options.worker_command.emplace_back("--model");
    options.worker_command.push_back(model_name);
  }
  options.journal_dir = journal_dir;
  options.shard_count = shards;

  const tsaug::core::StatusOr<tsaug::eval::SuperviseResult> supervised =
      tsaug::eval::SuperviseShards(options);
  if (!supervised.ok()) {
    std::fprintf(stderr, "grid_shard_main: %s\n",
                 supervised.status().ToString().c_str());
    return 1;
  }
  for (const tsaug::eval::ShardOutcome& outcome : supervised->shards) {
    std::fprintf(stderr, "grid_shard_main: shard %d %s after %d attempt(s)%s%s\n",
                 outcome.shard, outcome.succeeded ? "completed" : "FAILED",
                 outcome.attempts, outcome.succeeded ? "" : ": ",
                 outcome.succeeded ? "" : outcome.final_status.ToString().c_str());
  }
  if (supervised->interrupted) {
    std::fprintf(stderr, "grid_shard_main: interrupted; skipping merge\n");
    if (!trace_json.empty()) {
      (void)tsaug::core::WriteFile(trace_json,
                                   tsaug::core::trace::ReportJson());
    }
    return 3;
  }

  // Merge every shard journal — including a failed shard's partial one:
  // its completed cells are valid and spare the replay's failed-cell list.
  std::vector<std::string> inputs;
  for (const tsaug::eval::ShardOutcome& outcome : supervised->shards) {
    inputs.push_back(outcome.journal_path);
  }
  const std::string merged_path =
      (std::filesystem::path(journal_dir) / "merged.jsonl").string();
  const std::string fingerprint =
      tsaug::eval::ConfigFingerprint(config, techniques);
  const tsaug::core::StatusOr<tsaug::eval::JournalMergeStats> merged =
      tsaug::eval::MergeJournals(inputs, merged_path, fingerprint);
  if (!merged.ok()) {
    std::fprintf(stderr, "grid_shard_main: %s\n",
                 merged.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "grid_shard_main: merged %d journal(s) (%d missing) into %s: "
               "%d cell(s), %d duplicate(s), %d dropped line(s)\n",
               merged->inputs, merged->missing_inputs, merged_path.c_str(),
               merged->cells, merged->duplicates, merged->dropped_lines);

  // Replay: a resume-only grid against the merged journal. Every cell the
  // shards completed — preflight-failed stress scenarios included, which
  // are journaled like any other failure — is restored bit for bit; cells
  // a failed shard never finished surface as failed (kUnavailable), never
  // as accuracy 0.
  ExperimentConfig replay = config;
  replay.journal_path = merged_path;
  replay.resume_only = true;
  const tsaug::core::StatusOr<tsaug::eval::StudyResult> study =
      tsaug::eval::RunShardedStudy(names, loader, techniques, replay);
  if (!study.ok()) {
    std::fprintf(stderr, "grid_shard_main: %s\n",
                 study.status().ToString().c_str());
    return 1;
  }
  if (!WriteReports(*study, out_path, trace_json)) return 1;
  std::printf("grid_shard_main: report written to %s (%s)\n", out_path.c_str(),
              supervised->all_succeeded ? "all shards completed"
                                        : "with failed shards");
  return 0;
}
