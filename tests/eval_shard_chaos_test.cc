// The shard partition (eval/shard.h) in-process, then chaos tests for the
// sharded grid supervisor, driven through the real tools/grid_shard_main
// binary (path in TSAUG_SHARD_BIN) with real fork/exec worker processes:
//   - every paper-grid cell has an owner in [0, N), and fixed cells keep
//     the owners journals written by older binaries were partitioned by;
//   - a fault-free sharded run's merged report is byte-identical to the
//     unsharded golden run;
//   - a worker killed mid-shard by the shard.worker abort action is
//     restarted with backoff and the merged report stays byte-identical,
//     at 1, 2 and 8 worker threads;
//   - spawn faults and journal-heartbeat hangs are likewise retried;
//   - a shard that exhausts its retries surfaces as failed kUnavailable
//     cells in the report (never accuracy 0) and the run still exits 0;
//   - bad input (unknown dataset names, malformed integer flags, an
//     unknown suite, malformed TSAUG_* values) exits 2 before any report
//     is written.
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/uea_catalog.h"
#include "eval/shard.h"

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

const char* ShardBinary() { return std::getenv("TSAUG_SHARD_BIN"); }

/// Runs grid_shard_main over a small fixed grid (3 datasets x 2 runs x
/// {baseline, noise_1.0, smote}) with `args` appended, the given worker
/// thread count and TSAUG_FAULTS spec. Returns the raw std::system wait
/// status (0 = clean exit).
int RunShard(const std::string& args, int threads,
             const std::string& faults = "") {
  std::string command;
  command += "TSAUG_DATASETS='Epilepsy,RacketSports,Heartbeat' ";
  command += "TSAUG_RUNS=2 TSAUG_KERNELS=80 ";
  command += "TSAUG_TECHNIQUES='noise_1.0,smote' ";
  command += "TSAUG_JOURNAL='' ";
  command += "TSAUG_NUM_THREADS=" + std::to_string(threads) + " ";
  command += "TSAUG_FAULTS='" + faults + "' ";
  // Sequential appends: GCC 12 -O2 fires a bogus -Wrestrict on the
  // char*-plus-rvalue-string overload, fatal under the strict CI leg.
  command += "'";
  command += ShardBinary();
  command += "' ";
  command += args;
  return std::system(command.c_str());
}

bool ExitedCleanly(int status) {
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/// The integer value of one counter in a trace::ReportJson dump, 0 when
/// the counter never fired.
int Counter(const std::string& trace_json, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const std::size_t pos = trace_json.find(key);
  if (pos == std::string::npos) return 0;
  return std::stoi(trace_json.substr(pos + key.size()));
}

/// Runs the unsharded golden report into `out` and returns its bytes.
std::string GoldenReport(const std::string& tag, int threads) {
  const std::string out = TempDirFor("shard_golden_" + tag + ".txt");
  std::filesystem::remove(out);
  const int status = RunShard("--shards 0 --out '" + out + "'", threads);
  EXPECT_TRUE(ExitedCleanly(status));
  return ReadAll(out);
}

TEST(ShardPartition, PaperGridOwnersAreInRangeAndStable) {
  // The paper grid's cell identities: 13 datasets x 5 runs x (baseline +
  // 5 techniques).
  for (int shards : {1, 2, 3, 7}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    std::vector<int> owned(static_cast<size_t>(shards), 0);
    for (const data::UeaDatasetInfo& info : data::UeaImbalancedCatalog()) {
      for (int run = 0; run < 5; ++run) {
        for (int cell = 0; cell < 6; ++cell) {
          const int owner = ShardOfCell(info.name, run, cell, shards);
          ASSERT_GE(owner, 0);
          ASSERT_LT(owner, shards);
          ++owned[static_cast<size_t>(owner)];
        }
      }
    }
    for (int count : owned) EXPECT_GT(count, 0);
  }
  for (int shards : {-1, 0, 1}) {
    EXPECT_EQ(ShardOfCell("Epilepsy", 0, 0, shards), 0);
    EXPECT_EQ(ShardOfCell("LSST", 4, 5, shards), 0);
  }
  // Owners under 2, 3 and 7 shards, fixed by the FNV-1a fingerprint: a
  // change here re-partitions every journal already on disk.
  struct Pinned {
    const char* dataset;
    int run;
    int cell;
    int owners[3];
  };
  const Pinned pinned[] = {
      {"Epilepsy", 0, 0, {1, 2, 5}},
      {"LSST", 4, 5, {1, 2, 6}},
      {"EthanolConcentration", 2, 3, {0, 0, 2}},
      {"PEMS-SF", 1, 1, {1, 2, 6}},
      {"Heartbeat", 3, 4, {0, 1, 3}},
  };
  for (const Pinned& p : pinned) {
    SCOPED_TRACE(std::string(p.dataset) + "/run" + std::to_string(p.run) +
                 "/cell" + std::to_string(p.cell));
    EXPECT_EQ(ShardOfCell(p.dataset, p.run, p.cell, 2), p.owners[0]);
    EXPECT_EQ(ShardOfCell(p.dataset, p.run, p.cell, 3), p.owners[1]);
    EXPECT_EQ(ShardOfCell(p.dataset, p.run, p.cell, 7), p.owners[2]);
  }
}

TEST(ShardChaos, FaultFreeShardedRunMatchesGoldenByteForByte) {
  if (ShardBinary() == nullptr) GTEST_SKIP() << "TSAUG_SHARD_BIN unset";
  const std::string golden = GoldenReport("plain", 2);
  ASSERT_FALSE(golden.empty());

  const std::string dir = TempDirFor("shard_plain_j");
  const std::string out = TempDirFor("shard_plain_out.txt");
  const std::string trace = TempDirFor("shard_plain_trace.json");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(ExitedCleanly(
      RunShard("--shards 2 --journal-dir '" + dir + "' --out '" + out +
                   "' --trace-json '" + trace + "'",
               2)));
  EXPECT_EQ(ReadAll(out), golden);
  const std::string counters = ReadAll(trace);
  EXPECT_EQ(Counter(counters, "shard.completed"), 2);
  EXPECT_EQ(Counter(counters, "shard.retried"), 0);
}

TEST(ShardChaos, KilledWorkerIsRestartedByteIdenticalAtOneTwoEightThreads) {
  if (ShardBinary() == nullptr) GTEST_SKIP() << "TSAUG_SHARD_BIN unset";
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string tag = std::to_string(threads);
    const std::string golden = GoldenReport("kill_" + tag, threads);
    ASSERT_FALSE(golden.empty());

    const std::string dir = TempDirFor("shard_kill_j_" + tag);
    const std::string out = TempDirFor("shard_kill_out_" + tag + ".txt");
    const std::string trace = TempDirFor("shard_kill_trace_" + tag + ".json");
    std::filesystem::remove_all(dir);
    // Shard 0's first attempt aborts (SIGABRT) at its second dataset, so
    // its journal holds a completed prefix; the restarted attempt resumes
    // past it. The attempt-tagged domain keeps the rule from re-firing.
    ASSERT_TRUE(ExitedCleanly(
        RunShard("--shards 2 --journal-dir '" + dir + "' --out '" + out +
                     "' --trace-json '" + trace + "'",
                 threads, "shard.worker@shard/0/attempt1:2!")));
    EXPECT_EQ(ReadAll(out), golden);
    const std::string counters = ReadAll(trace);
    EXPECT_GE(Counter(counters, "shard.retried"), 1);
    EXPECT_EQ(Counter(counters, "shard.completed"), 2);
    EXPECT_GE(Counter(counters, "shard.spawned"), 3);
  }
}

TEST(ShardChaos, SpawnFaultIsRetriedWithBackoff) {
  if (ShardBinary() == nullptr) GTEST_SKIP() << "TSAUG_SHARD_BIN unset";
  const std::string golden = GoldenReport("spawn", 2);
  ASSERT_FALSE(golden.empty());

  const std::string dir = TempDirFor("shard_spawn_j");
  const std::string out = TempDirFor("shard_spawn_out.txt");
  const std::string trace = TempDirFor("shard_spawn_trace.json");
  std::filesystem::remove_all(dir);
  // The first spawn of shard 1 fails before fork; the shard must still be
  // retried (spawn failures consume an attempt) and complete.
  ASSERT_TRUE(ExitedCleanly(
      RunShard("--shards 2 --journal-dir '" + dir + "' --out '" + out +
                   "' --trace-json '" + trace + "'",
               2, "shard.spawn@shard/1:1")));
  EXPECT_EQ(ReadAll(out), golden);
  const std::string counters = ReadAll(trace);
  EXPECT_GE(Counter(counters, "shard.retried"), 1);
  EXPECT_EQ(Counter(counters, "shard.completed"), 2);
}

TEST(ShardChaos, HungWorkerIsKilledOnHeartbeatStallAndRestarted) {
  if (ShardBinary() == nullptr) GTEST_SKIP() << "TSAUG_SHARD_BIN unset";
  const std::string golden = GoldenReport("hang", 2);
  ASSERT_FALSE(golden.empty());

  const std::string dir = TempDirFor("shard_hang_j");
  const std::string out = TempDirFor("shard_hang_out.txt");
  const std::string trace = TempDirFor("shard_hang_trace.json");
  std::filesystem::remove_all(dir);
  // Shard 1's first attempt wedges in the shard.hang sleep loop (no
  // journal progress); the heartbeat monitor must SIGKILL and restart it.
  ASSERT_TRUE(ExitedCleanly(RunShard(
      "--shards 2 --journal-dir '" + dir + "' --out '" + out +
          "' --trace-json '" + trace + "' --hang-timeout-ms 400",
      2, "shard.hang@shard/1/attempt1:1")));
  EXPECT_EQ(ReadAll(out), golden);
  const std::string counters = ReadAll(trace);
  EXPECT_GE(Counter(counters, "shard.hung_killed"), 1);
  EXPECT_GE(Counter(counters, "shard.retried"), 1);
  EXPECT_EQ(Counter(counters, "shard.completed"), 2);
}

TEST(ShardChaos, ExhaustedRetriesSurfaceAsFailedCellsNotAccuracyZero) {
  if (ShardBinary() == nullptr) GTEST_SKIP() << "TSAUG_SHARD_BIN unset";
  const std::string golden = GoldenReport("fail", 2);
  ASSERT_FALSE(golden.empty());

  const std::string dir = TempDirFor("shard_fail_j");
  const std::string out = TempDirFor("shard_fail_out.txt");
  const std::string trace = TempDirFor("shard_fail_trace.json");
  std::filesystem::remove_all(dir);
  // Every attempt of shard 0 aborts at its first dataset (the "+" rule
  // fires on every consultation), so the shard exhausts its retries. The
  // run must still exit 0: the surviving shard's cells are merged and the
  // dead shard's cells surface as explicit failures.
  ASSERT_TRUE(ExitedCleanly(
      RunShard("--shards 2 --journal-dir '" + dir + "' --out '" + out +
                   "' --trace-json '" + trace + "'",
               2, "shard.worker@shard/0:1+")));
  const std::string report = ReadAll(out);
  ASSERT_FALSE(report.empty());
  EXPECT_NE(report, golden);  // degraded, and visibly so
  // The dead shard's cells carry an unavailable error, never a fabricated
  // score: the bit pattern of accuracy 0.0 must not appear where golden
  // had a real accuracy.
  EXPECT_NE(report.find("unavailable"), std::string::npos);
  EXPECT_NE(report.find("cell missing from journal"), std::string::npos);
  const std::string counters = ReadAll(trace);
  EXPECT_GE(Counter(counters, "shard.failed"), 1);
  EXPECT_EQ(Counter(counters, "shard.completed"), 1);
}

TEST(ShardChaos, BadInputExitsTwoWithoutWritingAReport) {
  if (ShardBinary() == nullptr) GTEST_SKIP() << "TSAUG_SHARD_BIN unset";
  const std::string out = TempDirFor("shard_bad_input.txt");
  const std::string dir = TempDirFor("shard_bad_input_j");
  struct Case {
    const char* datasets;
    const char* args;
    const char* env = "";
  };
  const Case cases[] = {
      {"Bogus", "--shards 0"},
      {"Bogus", "--suite stress --shards 0"},
      {"Epilepsy", "--suite stress --shards 0"},
      {"length_one_all", "--shards 0"},
      {"Epilepsy", "--shards x"},
      {"Epilepsy", "--shards 2x"},
      {"Epilepsy", "--shards -1"},
      {"Epilepsy", "--shards 99999999999"},
      {"Epilepsy", "--shards 0 --suite bogus"},
      {"Epilepsy", "--shards 2 --hang-timeout-ms two"},
      {"Epilepsy", "--shards 2 --hang-timeout-ms"},
      // Malformed TSAUG_* values are usage errors too, never a silent
      // default or an abort inside the grid.
      {"Epilepsy", "--shards 0", "TSAUG_RUNS=abc"},
      {"Epilepsy", "--shards 0", "TSAUG_RUNS=2x"},
      {"Epilepsy", "--shards 0", "TSAUG_KERNELS=0"},
      {"Epilepsy", "--shards 0", "TSAUG_EPOCHS=-1"},
      {"Epilepsy", "--shards 0", "TSAUG_TIMEGAN_ITERS=many"},
      {"Epilepsy", "--shards 0", "TSAUG_SEED=4.5"},
      {"Epilepsy", "--shards 0", "TSAUG_CELL_BUDGET=soon"},
      {"Epilepsy", "--shards 0", "TSAUG_SCALE=huge"},
      {"Epilepsy", "--shards 0", "TSAUG_TECHNIQUES=smoot,nosie_1.0"},
      {"Epilepsy", "--shards 2", "TSAUG_RUNS=0"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.datasets) + " / " + c.args + " / " + c.env);
    std::filesystem::remove(out);
    std::filesystem::remove_all(dir);
    std::string command = "TSAUG_DATASETS='";
    command += c.datasets;
    command += "' TSAUG_JOURNAL='' TSAUG_RUNS=1 TSAUG_KERNELS=40 ";
    command += c.env;
    command += " '";
    command += ShardBinary();
    command += "' --journal-dir '";
    command += dir;
    command += "' --out '";
    command += out;
    command += "' ";
    command += c.args;
    command += " 2>/dev/null";
    const int status = std::system(command.c_str());
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 2);
    EXPECT_FALSE(std::filesystem::exists(out));
  }
}

}  // namespace
}  // namespace tsaug::eval
