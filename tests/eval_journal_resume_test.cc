// Kill/resume durability of the journaled grid, tested with real child
// processes (tests/eval_grid_child.cc, path in TSAUG_GRID_CHILD_BIN):
//   - a journaled straight run equals an unjournaled run;
//   - a run killed mid-grid by the journal.flush abort action and then
//     resumed against the same journal reproduces the uninterrupted
//     dump byte for byte, at 1, 2 and 8 threads;
//   - a graceful injected stop exits cleanly with the row marked
//     interrupted, and resuming completes to the identical dump;
//   - in process: a ROCKET run transforms each base, test and synthetic
//     row once, and a run restored whole from the journal transforms none.
#include <sys/wait.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "augment/noise.h"
#include "augment/oversample.h"
#include "core/trace.h"
#include "eval/experiment.h"

namespace tsaug::eval {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::path(testing::TempDir()) / name).string();
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

const char* ChildBinary() { return std::getenv("TSAUG_GRID_CHILD_BIN"); }

/// Runs the child grid binary with the given journal ("" = none), dump
/// path, thread count and TSAUG_FAULTS spec. Returns the raw wait status
/// from std::system (0 = clean exit).
int RunChild(const std::string& journal, const std::string& out, int threads,
             const std::string& faults = "") {
  std::string command;
  command += "TSAUG_CHILD_OUT='" + out + "' ";
  command += "TSAUG_CHILD_JOURNAL='" + journal + "' ";
  command += "TSAUG_NUM_THREADS=" + std::to_string(threads) + " ";
  command += "TSAUG_FAULTS='" + faults + "' ";
  // Sequential appends: GCC 12 -O2 fires a bogus -Wrestrict on the
  // char*-plus-rvalue-string overload, fatal under the strict CI leg.
  command += "'";
  command += ChildBinary();
  command += "'";
  return std::system(command.c_str());
}

bool ExitedCleanly(int status) {
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

TEST(JournalResume, StraightJournaledRunMatchesUnjournaledRun) {
  if (ChildBinary() == nullptr) GTEST_SKIP() << "TSAUG_GRID_CHILD_BIN unset";
  const std::string journal = TempPath("resume_straight.jsonl");
  const std::string plain_out = TempPath("resume_straight_plain.txt");
  const std::string journaled_out = TempPath("resume_straight_journaled.txt");
  std::filesystem::remove(journal);

  ASSERT_TRUE(ExitedCleanly(RunChild("", plain_out, 2)));
  ASSERT_TRUE(ExitedCleanly(RunChild(journal, journaled_out, 2)));
  const std::string plain = ReadAll(plain_out);
  ASSERT_FALSE(plain.empty());
  EXPECT_EQ(plain, ReadAll(journaled_out));
  EXPECT_GT(std::filesystem::file_size(journal), 0u);
}

TEST(JournalResume, KillAndResumeIsByteIdenticalAtOneTwoAndEightThreads) {
  if (ChildBinary() == nullptr) GTEST_SKIP() << "TSAUG_GRID_CHILD_BIN unset";
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string tag = std::to_string(threads);
    const std::string journal = TempPath("resume_kill_" + tag + ".jsonl");
    const std::string straight_out = TempPath("resume_kill_ref_" + tag);
    const std::string killed_out = TempPath("resume_kill_dead_" + tag);
    const std::string resumed_out = TempPath("resume_kill_back_" + tag);
    std::filesystem::remove(journal);

    // Reference: the uninterrupted run (no journal involved).
    ASSERT_TRUE(ExitedCleanly(RunChild("", straight_out, threads)));

    // Kill: the 4th journal append aborts the process, so run 0's three
    // cells are flushed and the grid dies mid run 1.
    const int killed =
        RunChild(journal, killed_out, threads, "journal.flush:4!");
    EXPECT_FALSE(ExitedCleanly(killed));
    EXPECT_FALSE(std::filesystem::exists(killed_out));  // died before dump
    ASSERT_GT(std::filesystem::file_size(journal), 0u);

    // Resume: completed cells come from the journal, the rest recompute;
    // the dump must equal the uninterrupted run byte for byte.
    ASSERT_TRUE(ExitedCleanly(RunChild(journal, resumed_out, threads)));
    const std::string straight = ReadAll(straight_out);
    ASSERT_FALSE(straight.empty());
    EXPECT_EQ(straight, ReadAll(resumed_out));
  }
}

TEST(JournalResume, GracefulStopJournalsCompletedRunsAndResumesIdentically) {
  if (ChildBinary() == nullptr) GTEST_SKIP() << "TSAUG_GRID_CHILD_BIN unset";
  const std::string journal = TempPath("resume_stop.jsonl");
  const std::string straight_out = TempPath("resume_stop_ref.txt");
  const std::string stopped_out = TempPath("resume_stop_cut.txt");
  const std::string resumed_out = TempPath("resume_stop_back.txt");
  std::filesystem::remove(journal);

  ASSERT_TRUE(ExitedCleanly(RunChild("", straight_out, 2)));

  // An injected stop at the run-1 boundary models SIGINT between runs:
  // the child exits cleanly with run 0 journaled and the row marked
  // interrupted (dumps still differ from the straight run — only one run
  // entered the means).
  ASSERT_TRUE(ExitedCleanly(
      RunChild(journal, stopped_out, 2, "cancel.stop@grid/toy/run1:1")));
  const std::string stopped = ReadAll(stopped_out);
  EXPECT_NE(stopped.find("interrupted=1"), std::string::npos);
  EXPECT_NE(stopped, ReadAll(straight_out));

  ASSERT_TRUE(ExitedCleanly(RunChild(journal, resumed_out, 2)));
  const std::string resumed = ReadAll(resumed_out);
  EXPECT_NE(resumed.find("interrupted=0"), std::string::npos);
  EXPECT_EQ(resumed, ReadAll(straight_out));
}

// Each ROCKET run transforms its base and test rows once, into features
// every cell shares, and each cell transforms only its own synthetic rows:
// the transform.rocket.rows counter is n_train + n_test + the synthetic
// rows, per run. A rerun whose cells all come back from the journal
// builds no shared features at all.
TEST(JournalResume, RocketRowsTransformedOnceAndNotAgainOnResume) {
  data::SyntheticSpec spec;
  spec.num_classes = 3;
  spec.train_counts = {12, 7, 4};
  spec.test_counts = {5, 5, 5};
  spec.num_channels = 2;
  spec.length = 20;
  spec.seed = 3;
  const data::TrainTest data = data::MakeSynthetic(spec);
  ExperimentConfig config;
  config.model = ModelKind::kRocket;
  config.runs = 2;
  config.rocket_kernels = 40;
  config.seed = 5;
  config.journal_path = TempPath("resume_rows.jsonl");
  std::filesystem::remove(config.journal_path);
  auto techniques = [] {
    return std::vector<std::shared_ptr<augment::Augmenter>>{
        std::make_shared<augment::NoiseInjection>(1.0),
        std::make_shared<augment::Smote>()};
  };
  // Balancing tops every class up to the majority, once per technique.
  const std::vector<int> counts = data.train.ClassCounts();
  std::int64_t synthetic = 0;
  for (int count : counts) synthetic += 12 - count;
  synthetic *= 2;

  const bool trace_was_enabled = core::trace::Enabled();
  core::trace::Enable();
  core::trace::Reset();
  const DatasetRow row =
      TryRunDatasetGrid("toy", data, techniques(), config).value();
  EXPECT_EQ(row.baseline_failed_runs, 0);
  for (const CellResult& cell : row.cells) EXPECT_EQ(cell.failed_runs, 0);
  EXPECT_EQ(core::trace::CounterValue("transform.rocket.rows"),
            config.runs * (data.train.size() + data.test.size() + synthetic));
  EXPECT_EQ(core::trace::CounterValue("eval.rocket_shared_miss"), 0);

  core::trace::Reset();
  const DatasetRow resumed =
      TryRunDatasetGrid("toy", data, techniques(), config).value();
  EXPECT_EQ(resumed.resumed_cells, 6);
  EXPECT_EQ(resumed.baseline_accuracy, row.baseline_accuracy);
  EXPECT_EQ(core::trace::CounterValue("transform.rocket.rows"), 0);
  if (!trace_was_enabled) core::trace::Disable();
}

}  // namespace
}  // namespace tsaug::eval
