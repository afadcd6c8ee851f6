// Stress-scenario grid runner (see DESIGN.md, "Scenario catalog &
// preflight validation"): runs the study grid over data/scenarios.h —
// concept drift, extreme imbalance, structured missingness, degenerate
// geometries — instead of the UEA-like catalog, reusing the sharded
// supervisor from eval/shard.h unchanged. The point of the exercise is
// graceful degradation: every scenario either repairs deterministically in
// preflight or surfaces as typed failed cells, and the merged sharded
// report stays byte-identical to the unsharded golden run.
//
// Modes:
//   stress_grid_main --list                                   print catalog
//   stress_grid_main --shards N --journal-dir DIR --out PATH  supervisor
//   stress_grid_main --shards 0 --out PATH                    golden (one
//                                                             process, no
//                                                             sharding)
//   stress_grid_main --worker --shard i/N --attempt K
//                    --journal PATH                           (internal)
//
// Supervisor flags (same semantics as grid_shard_main):
//   --max-retries R      restarts per shard after its first attempt (2)
//   --backoff-ms B       initial restart backoff               (50)
//   --backoff-max-ms M   backoff cap                           (2000)
//   --hang-timeout-ms H  journal-heartbeat hang kill, 0 = off  (0)
//   --poll-ms P          supervisor poll interval              (20)
//   --trace-json PATH    enable tracing; write the report at exit
//
// Grid shape comes from the TSAUG_* environment (eval/report.h), which
// worker processes inherit. TSAUG_DATASETS selects a subset of scenario
// ids (unknown ids are a usage error, not a crash); unset runs the whole
// catalog. The config's dataset_suite is pinned to "stress", so a stress
// journal can never be replayed against the Table-III suite.
//
// Exit codes: 0 = run completed (failed scenarios surface as typed failed
// cells in the report, they do not sink the run); 1 = supervisor/
// infrastructure error; 2 = usage or worker error; 3 = interrupted.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "core/cancel.h"
#include "core/status.h"
#include "core/trace.h"
#include "data/scenarios.h"
#include "eval/journal.h"
#include "eval/report.h"
#include "eval/shard.h"

namespace {

using tsaug::eval::BenchSettings;
using tsaug::eval::ExperimentConfig;
using tsaug::eval::ModelKind;
using tsaug::eval::SupervisorOptions;

bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && wrote;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --shards N --journal-dir DIR --out PATH [...]\n"
               "       %s --shards 0 --out PATH   (unsharded golden run)\n"
               "       %s --list                  (print the catalog)\n"
               "see the header comment in tools/stress_grid_main.cc\n",
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
  SupervisorOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (flag == "--worker") {
      worker = true;
    } else if (flag == "--list") {
      list = true;
    } else if (flag == "--shard") {
      const char* v = value();
      if (v == nullptr ||
          std::sscanf(v, "%d/%d", &shard_index, &worker_shard_count) != 2) {
        return Usage(argv[0]);
      }
    } else if (flag == "--attempt") {
      const char* v = value();
      if (v == nullptr) return Usage(argv[0]);
      attempt = std::atoi(v);
    } else if (flag == "--journal") {
      const char* v = value();
      if (v == nullptr) return Usage(argv[0]);
      worker_journal = v;
    } else if (flag == "--shards") {
      const char* v = value();
      if (v == nullptr) return Usage(argv[0]);
      shards = std::atoi(v);
    } else if (flag == "--journal-dir") {
      const char* v = value();
      if (v == nullptr) return Usage(argv[0]);
      journal_dir = v;
    } else if (flag == "--out") {
      const char* v = value();
      if (v == nullptr) return Usage(argv[0]);
      out_path = v;
    } else if (flag == "--trace-json") {
      const char* v = value();
      if (v == nullptr) return Usage(argv[0]);
      trace_json = v;
    } else if (flag == "--max-retries") {
      const char* v = value();
      if (v == nullptr) return Usage(argv[0]);
      options.max_retries = std::atoi(v);
    } else if (flag == "--backoff-ms") {
      const char* v = value();
      if (v == nullptr) return Usage(argv[0]);
      options.backoff_initial_ms = std::atoi(v);
    } else if (flag == "--backoff-max-ms") {
      const char* v = value();
      if (v == nullptr) return Usage(argv[0]);
      options.backoff_max_ms = std::atoi(v);
    } else if (flag == "--hang-timeout-ms") {
      const char* v = value();
      if (v == nullptr) return Usage(argv[0]);
      options.hang_timeout_ms = std::atoi(v);
    } else if (flag == "--poll-ms") {
      const char* v = value();
      if (v == nullptr) return Usage(argv[0]);
      options.poll_interval_ms = std::atoi(v);
    } else {
      std::fprintf(stderr, "stress_grid_main: unknown flag %s\n", flag.c_str());
      return Usage(argv[0]);
    }
  }

  if (list) {
    for (const tsaug::data::ScenarioInfo& info :
         tsaug::data::ScenarioCatalog()) {
      std::printf("%-26s %-10s %s\n", info.id.c_str(), info.family.c_str(),
                  info.summary.c_str());
    }
    return 0;
  }

  const BenchSettings settings = tsaug::eval::ReadBenchSettings();
  ExperimentConfig config =
      tsaug::eval::MakeExperimentConfig(settings, ModelKind::kRocket);
  config.dataset_suite = "stress";
  const auto techniques = tsaug::eval::MakePaperTechniques(settings);
  std::vector<std::string> names = settings.datasets;
  if (names.empty()) {
    names = tsaug::data::ScenarioIds();
  } else {
    for (const std::string& name : names) {
      if (tsaug::data::FindScenario(name) == nullptr) {
        std::fprintf(stderr, "stress_grid_main: unknown scenario '%s'\n",
                     name.c_str());
        return 2;
      }
    }
  }
  const tsaug::eval::DatasetLoader loader =
      [&settings](const std::string& name) {
        return tsaug::data::MakeScenarioDataset(name, settings.seed);
      };

  if (worker) {
    if (worker_shard_count < 1 || shard_index < 0 ||
        shard_index >= worker_shard_count || worker_journal.empty()) {
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
      std::fprintf(stderr, "stress_grid_main worker %d/%d: %s\n", shard_index,
                   worker_shard_count, study.status().ToString().c_str());
      return 2;
    }
    return study->interrupted || tsaug::core::GlobalStopRequested() ? 3 : 0;
  }

  if (shards < 0 || out_path.empty()) return Usage(argv[0]);
  if (!trace_json.empty()) tsaug::core::trace::Enable();
  tsaug::core::InstallStopSignalHandlers();

  if (shards == 0) {
    // Golden mode: the plain single-process stress study, dumped
    // canonically so sharded runs can be compared byte for byte.
    config.journal_path = settings.journal_path;
    const tsaug::core::StatusOr<tsaug::eval::StudyResult> study =
        tsaug::eval::RunShardedStudy(names, loader, techniques, config);
    if (!study.ok()) {
      std::fprintf(stderr, "stress_grid_main: %s\n",
                   study.status().ToString().c_str());
      return 1;
    }
    const tsaug::core::Status written =
        tsaug::eval::WriteCanonicalReport(*study, out_path);
    if (!written.ok()) {
      std::fprintf(stderr, "stress_grid_main: %s\n",
                   written.ToString().c_str());
      return 1;
    }
    if (!trace_json.empty() &&
        !WriteFile(trace_json, tsaug::core::trace::ReportJson())) {
      std::fprintf(stderr, "stress_grid_main: cannot write %s\n",
                   trace_json.c_str());
      return 1;
    }
    return study->interrupted ? 3 : 0;
  }

  // Supervisor mode. Fork happens before any grid work, so no thread pool
  // exists in this process until the post-merge replay below.
  if (journal_dir.empty()) return Usage(argv[0]);
  options.worker_command.push_back(argv[0]);
  options.journal_dir = journal_dir;
  options.shard_count = shards;

  const tsaug::core::StatusOr<tsaug::eval::SuperviseResult> supervised =
      tsaug::eval::SuperviseShards(options);
  if (!supervised.ok()) {
    std::fprintf(stderr, "stress_grid_main: %s\n",
                 supervised.status().ToString().c_str());
    return 1;
  }
  for (const tsaug::eval::ShardOutcome& outcome : supervised->shards) {
    std::fprintf(
        stderr, "stress_grid_main: shard %d %s after %d attempt(s)%s%s\n",
        outcome.shard, outcome.succeeded ? "completed" : "FAILED",
        outcome.attempts, outcome.succeeded ? "" : ": ",
        outcome.succeeded ? "" : outcome.final_status.ToString().c_str());
  }
  if (supervised->interrupted) {
    std::fprintf(stderr, "stress_grid_main: interrupted; skipping merge\n");
    if (!trace_json.empty()) {
      (void)WriteFile(trace_json, tsaug::core::trace::ReportJson());
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
    std::fprintf(stderr, "stress_grid_main: %s\n",
                 merged.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "stress_grid_main: merged %d journal(s) (%d missing) into %s: "
               "%d cell(s), %d duplicate(s), %d dropped line(s)\n",
               merged->inputs, merged->missing_inputs, merged_path.c_str(),
               merged->cells, merged->duplicates, merged->dropped_lines);

  // Replay: a resume-only grid against the merged journal. Every cell the
  // shards completed — including preflight-failed scenarios, which are
  // journaled like any other failure — is restored bit for bit.
  ExperimentConfig replay = config;
  replay.journal_path = merged_path;
  replay.resume_only = true;
  const tsaug::core::StatusOr<tsaug::eval::StudyResult> study =
      tsaug::eval::RunShardedStudy(names, loader, techniques, replay);
  if (!study.ok()) {
    std::fprintf(stderr, "stress_grid_main: %s\n",
                 study.status().ToString().c_str());
    return 1;
  }
  const tsaug::core::Status written =
      tsaug::eval::WriteCanonicalReport(*study, out_path);
  if (!written.ok()) {
    std::fprintf(stderr, "stress_grid_main: %s\n", written.ToString().c_str());
    return 1;
  }
  if (!trace_json.empty() &&
      !WriteFile(trace_json, tsaug::core::trace::ReportJson())) {
    std::fprintf(stderr, "stress_grid_main: cannot write %s\n",
                 trace_json.c_str());
    return 1;
  }
  std::printf("stress_grid_main: report written to %s (%s)\n",
              out_path.c_str(),
              supervised->all_succeeded ? "all shards completed"
                                        : "with failed shards");
  return 0;
}
