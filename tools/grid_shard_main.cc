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
//   --max-retries R      restarts per shard after its first attempt (2)
//   --backoff-ms B       initial restart backoff               (50)
//   --backoff-max-ms M   backoff cap                           (2000)
//   --hang-timeout-ms H  journal-heartbeat hang kill, 0 = off  (0)
//   --poll-ms P          supervisor poll interval              (20)
//   --trace-json PATH    enable tracing; write the report at exit
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
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/cancel.h"
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

bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && wrote;
}

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
  if (!trace_json.empty() &&
      !WriteFile(trace_json, tsaug::core::trace::ReportJson())) {
    std::fprintf(stderr, "grid_shard_main: cannot write %s\n",
                 trace_json.c_str());
    return false;
  }
  return true;
}

/// Parses the whole of `text` as a base-10 int no smaller than `min`.
bool ParseInt(const char* text, int min, int* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text, &end, 10);
  if (errno != 0 || *end != '\0' || value < min || value > INT_MAX) {
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

/// Parses "i/N" with 0 <= i < N.
bool ParseShard(const char* text, int* index, int* count) {
  if (text == nullptr) return false;
  const char* slash = std::strchr(text, '/');
  if (slash == nullptr) return false;
  const std::string head(text, slash);
  return ParseInt(head.c_str(), 0, index) && ParseInt(slash + 1, 1, count) &&
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

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    // Integer flags: the whole token must parse, at least `min`.
    auto int_value = [&](int min, int* out) {
      return ParseInt(value(), min, out);
    };
    // String flags: a following token must exist.
    auto string_value = [&](std::string* out) {
      const char* v = value();
      if (v != nullptr) *out = v;
      return v != nullptr;
    };
    bool ok = true;
    if (flag == "--worker") {
      worker = true;
    } else if (flag == "--list") {
      list = true;
    } else if (flag == "--shard") {
      ok = ParseShard(value(), &shard_index, &worker_shard_count);
    } else if (flag == "--attempt") {
      ok = int_value(1, &attempt);
    } else if (flag == "--journal") {
      ok = string_value(&worker_journal);
    } else if (flag == "--shards") {
      ok = int_value(0, &shards);
    } else if (flag == "--journal-dir") {
      ok = string_value(&journal_dir);
    } else if (flag == "--out") {
      ok = string_value(&out_path);
    } else if (flag == "--trace-json") {
      ok = string_value(&trace_json);
    } else if (flag == "--suite") {
      ok = string_value(&suite);
    } else if (flag == "--model") {
      ok = string_value(&model_name);
    } else if (flag == "--max-retries") {
      ok = int_value(0, &options.max_retries);
    } else if (flag == "--backoff-ms") {
      ok = int_value(0, &options.backoff_initial_ms);
    } else if (flag == "--backoff-max-ms") {
      ok = int_value(0, &options.backoff_max_ms);
    } else if (flag == "--hang-timeout-ms") {
      ok = int_value(0, &options.hang_timeout_ms);
    } else if (flag == "--poll-ms") {
      ok = int_value(1, &options.poll_interval_ms);
    } else {
      std::fprintf(stderr, "grid_shard_main: unknown flag %s\n", flag.c_str());
      return Usage(argv[0]);
    }
    if (!ok) {
      std::fprintf(stderr, "grid_shard_main: bad or missing value for %s\n",
                   flag.c_str());
      return Usage(argv[0]);
    }
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

  const BenchSettings settings = tsaug::eval::ReadBenchSettings();
  ExperimentConfig config = tsaug::eval::MakeExperimentConfig(settings, model);
  if (stress) config.dataset_suite = "stress";
  const auto techniques = tsaug::eval::MakePaperTechniques(settings);
  std::vector<std::string> names = settings.datasets;
  if (names.empty()) names = suite_names;
  const tsaug::core::Status names_ok =
      tsaug::eval::CheckDatasetNames(names, suite_names, suite);
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
