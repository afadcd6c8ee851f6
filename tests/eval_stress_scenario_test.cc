// Chaos tests for the stress-scenario grid (data/scenarios.h +
// core/validate.h), driven through the real tools/grid_shard_main binary
// with --suite stress (path in TSAUG_STRESS_BIN):
//   - the full catalog grid (>= 200 cells) completes crash-free: exit 0,
//     every cell journaled, and every failed cell carries a typed Status
//     (never an abort, never a fabricated accuracy 0);
//   - the golden report is byte-identical at 1, 2 and 8 threads;
//   - a sharded run whose worker is killed mid-shard resumes from its
//     journal and merges byte-identical to the golden run.
#include <sys/wait.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace tsaug::eval {
namespace {

std::string TempDirFor(const std::string& name) {
  return (std::filesystem::path(testing::TempDir()) / name).string();
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

const char* StressBinary() { return std::getenv("TSAUG_STRESS_BIN"); }

/// Runs the stress suite over the full scenario catalog (2 runs x
/// {baseline, noise_1.0, noise_3.0, smote} per scenario — 4 cells x 2
/// runs x catalog size, comfortably over the 200-cell bar) with `args`
/// appended. Returns the raw std::system wait status.
int RunStress(const std::string& args, int threads,
              const std::string& faults = "",
              const std::string& journal = "") {
  std::string command;
  command += "TSAUG_RUNS=2 TSAUG_KERNELS=48 ";
  command += "TSAUG_TECHNIQUES='noise_1.0,noise_3.0,smote' ";
  command += "TSAUG_JOURNAL='" + journal + "' ";
  command += "TSAUG_NUM_THREADS=" + std::to_string(threads) + " ";
  command += "TSAUG_FAULTS='" + faults + "' ";
  // Sequential appends: GCC 12 -O2 fires a bogus -Wrestrict on the
  // char*-plus-rvalue-string overload, fatal under the strict CI leg.
  command += "'";
  command += StressBinary();
  command += "' ";
  command += args;
  command += " --suite stress";
  return std::system(command.c_str());
}

bool ExitedCleanly(int status) {
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

int Counter(const std::string& trace_json, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const std::size_t pos = trace_json.find(key);
  if (pos == std::string::npos) return 0;
  return std::stoi(trace_json.substr(pos + key.size()));
}

/// Number of occurrences of `needle` in `haystack`.
int CountOf(const std::string& haystack, const std::string& needle) {
  int count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

/// One parsed cell line of a canonical report:
/// "  <name> bits=<u64> failed=<n> retries=<n> err=<status>".
struct ReportCell {
  std::string dataset;
  std::string name;
  double accuracy = 0.0;
  int failed = 0;
  std::string err;
};

std::vector<ReportCell> ParseReport(const std::string& report) {
  std::vector<ReportCell> cells;
  std::istringstream lines(report);
  std::string line, dataset;
  while (std::getline(lines, line)) {
    if (line.rfind("dataset=", 0) == 0) {
      dataset = line.substr(8);
      continue;
    }
    if (line.rfind("  ", 0) != 0) continue;
    const std::size_t bits_pos = line.find(" bits=");
    const std::size_t failed_pos = line.find(" failed=");
    const std::size_t err_pos = line.find(" err=");
    if (bits_pos == std::string::npos || failed_pos == std::string::npos ||
        err_pos == std::string::npos) {
      continue;
    }
    ReportCell cell;
    cell.dataset = dataset;
    cell.name = line.substr(2, bits_pos - 2);
    const std::uint64_t bits =
        std::strtoull(line.c_str() + bits_pos + 6, nullptr, 10);
    std::memcpy(&cell.accuracy, &bits, sizeof(cell.accuracy));
    cell.failed = std::stoi(line.substr(failed_pos + 8));
    cell.err = line.substr(err_pos + 5);
    cells.push_back(std::move(cell));
  }
  return cells;
}

/// Runs the unsharded golden report into a fresh file and returns its
/// bytes.
std::string GoldenReport(const std::string& tag, int threads,
                         const std::string& journal = "") {
  const std::string out = TempDirFor("stress_golden_" + tag + ".txt");
  std::filesystem::remove(out);
  const int status =
      RunStress("--shards 0 --out '" + out + "'", threads, "", journal);
  EXPECT_TRUE(ExitedCleanly(status));
  return ReadAll(out);
}

TEST(StressScenarioGrid, CatalogGridCompletesCrashFreeWithTypedFailures) {
  if (StressBinary() == nullptr) GTEST_SKIP() << "TSAUG_STRESS_BIN unset";
  const std::string journal = TempDirFor("stress_catalog_journal.jsonl");
  std::filesystem::remove(journal);
  const std::string report = GoldenReport("catalog", 2, journal);
  ASSERT_FALSE(report.empty());

  // The acceptance bar: a >= 200-cell grid, every computed cell journaled
  // (preflight-fatal scenarios included — their typed rows must replay).
  const std::string journal_bytes = ReadAll(journal);
  EXPECT_GE(CountOf(journal_bytes, "\"type\":\"cell\""), 200);

  const std::vector<ReportCell> cells = ParseReport(report);
  ASSERT_GE(static_cast<int>(cells.size()), 100);  // 4 per scenario row
  bool saw_degenerate = false;
  bool saw_failed = false;
  for (const ReportCell& cell : cells) {
    SCOPED_TRACE(cell.dataset + "/" + cell.name);
    if (cell.failed > 0) {
      saw_failed = true;
      // Typed-only failures: a failed cell must carry a real Status...
      EXPECT_NE(cell.err, "ok");
      // ...and an abort or fabricated score can never masquerade as an
      // accuracy: a cell where every run failed reports NaN, not 0.
      if (cell.failed >= 2) {
        EXPECT_TRUE(std::isnan(cell.accuracy));
      }
    } else {
      EXPECT_EQ(cell.err, "ok");
      EXPECT_TRUE(std::isfinite(cell.accuracy));
      EXPECT_GE(cell.accuracy, 0.0);
      EXPECT_LE(cell.accuracy, 1.0);
    }
  }
  EXPECT_TRUE(saw_failed);

  // Scenarios designed to fail diagnose as such: length_one_all is below
  // every model's length floor and must fail preflight across the row.
  for (const ReportCell& cell : cells) {
    if (cell.dataset != "length_one_all") continue;
    saw_degenerate = true;
    EXPECT_EQ(cell.failed, 2);
    EXPECT_NE(cell.err.find("degenerate_input"), std::string::npos);
    EXPECT_NE(cell.err.find("preflight"), std::string::npos);
  }
  EXPECT_TRUE(saw_degenerate);

  // The empty-class scenario degrades gracefully end to end: the balance
  // protocol skips the absent class (rather than asking an augmenter to
  // invent it, which would fail kEmptyClass — covered in the unit tests),
  // so the whole row trains.
  bool saw_empty_class_row = false;
  for (const ReportCell& cell : cells) {
    if (cell.dataset != "empty_class") continue;
    saw_empty_class_row = true;
    EXPECT_EQ(cell.failed, 0);
    EXPECT_TRUE(std::isfinite(cell.accuracy));
  }
  EXPECT_TRUE(saw_empty_class_row);

  // Repairable scenarios (dead channels, short-series mixes) must make it
  // through preflight repair and train: their baselines succeed.
  for (const ReportCell& cell : cells) {
    if (cell.name != "baseline") continue;
    if (cell.dataset == "missing_channel_dead" ||
        cell.dataset == "varlen_tiny_mix" ||
        cell.dataset == "imbalance_singleton") {
      SCOPED_TRACE(cell.dataset);
      EXPECT_EQ(cell.failed, 0);
      EXPECT_TRUE(std::isfinite(cell.accuracy));
    }
  }
}

TEST(StressScenarioGrid, GoldenReportByteIdenticalAtOneTwoEightThreads) {
  if (StressBinary() == nullptr) GTEST_SKIP() << "TSAUG_STRESS_BIN unset";
  const std::string golden = GoldenReport("threads_1", 1);
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(GoldenReport("threads_2", 2), golden);
  EXPECT_EQ(GoldenReport("threads_8", 8), golden);
}

TEST(StressScenarioGrid, KilledShardWorkerResumesByteIdentical) {
  if (StressBinary() == nullptr) GTEST_SKIP() << "TSAUG_STRESS_BIN unset";
  const std::string golden = GoldenReport("kill", 2);
  ASSERT_FALSE(golden.empty());

  const std::string dir = TempDirFor("stress_kill_j");
  const std::string out = TempDirFor("stress_kill_out.txt");
  const std::string trace = TempDirFor("stress_kill_trace.json");
  std::filesystem::remove_all(dir);
  // Shard 0's first attempt aborts (SIGABRT) at its second dataset, so its
  // journal holds a completed prefix; the restarted attempt resumes past
  // it. The merged replay must still reproduce the golden bytes — typed
  // preflight failures included, since those rows are journaled too.
  ASSERT_TRUE(ExitedCleanly(
      RunStress("--shards 2 --journal-dir '" + dir + "' --out '" + out +
                    "' --trace-json '" + trace + "'",
                2, "shard.worker@shard/0/attempt1:2!")));
  EXPECT_EQ(ReadAll(out), golden);
  const std::string counters = ReadAll(trace);
  EXPECT_GE(Counter(counters, "shard.retried"), 1);
  EXPECT_EQ(Counter(counters, "shard.completed"), 2);
}

}  // namespace
}  // namespace tsaug::eval
