// End-to-end fault tolerance of the experiment harness: faults injected
// into the ridge solver, the nn trainer and SMOTE must degrade exactly the
// targeted grid cells — recorded failed with the right Status code —
// while the rest of the grid completes, and the whole (partially failed)
// row must stay bitwise identical at any thread count.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "augment/noise.h"
#include "augment/oversample.h"
#include "augment/timegan.h"
#include "core/cancel.h"
#include "core/faultpoint.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/status.h"
#include "core/trace.h"
#include "eval/experiment.h"

namespace tsaug::eval {
namespace {

class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(core::GetNumThreads()) {}
  ~ThreadCountGuard() { core::SetNumThreads(saved_); }

 private:
  int saved_;
};

class FaultSpecGuard {
 public:
  explicit FaultSpecGuard(const std::string& spec) {
    core::fault::SetSpec(spec);
  }
  ~FaultSpecGuard() { core::fault::Clear(); }
};

data::TrainTest SmallData(std::uint64_t seed = 1) {
  data::SyntheticSpec spec;
  spec.num_classes = 2;
  spec.train_counts = {14, 6};
  spec.test_counts = {6, 6};
  spec.num_channels = 2;
  spec.length = 24;
  spec.class_separation = 1.4;
  spec.seed = seed;
  return data::MakeSynthetic(spec);
}

ExperimentConfig RocketConfig(int runs = 2) {
  ExperimentConfig config;
  config.model = ModelKind::kRocket;
  config.runs = runs;
  config.rocket_kernels = 80;
  config.seed = 5;
  return config;
}

ExperimentConfig InceptionConfig() {
  ExperimentConfig config;
  config.model = ModelKind::kInceptionTime;
  config.runs = 1;
  config.inception.num_filters = 3;
  config.inception.depth = 3;
  config.inception.kernel_sizes = {4, 8};
  config.inception.bottleneck_channels = 3;
  config.inception.ensemble_size = 1;
  config.inception.trainer.max_epochs = 4;
  config.inception.trainer.early_stopping_patience = 4;
  config.inception.trainer.learning_rate = 5e-3;
  config.seed = 5;
  return config;
}

std::vector<std::shared_ptr<augment::Augmenter>> Techniques() {
  // Fresh augmenters per grid run: they cache per-train-set state.
  return {std::make_shared<augment::NoiseInjection>(1.0),
          std::make_shared<augment::Smote>()};
}

DatasetRow RunToyGrid(const ExperimentConfig& config,
                      const data::TrainTest& data) {
  return TryRunDatasetGrid("toy", data, Techniques(), config).value();
}

TEST(FaultTolerance, CleanGridReportsNoFailuresOrRetries) {
  core::fault::Clear();
  const data::TrainTest data = SmallData(2);
  const DatasetRow row = RunToyGrid(RocketConfig(), data);
  EXPECT_EQ(row.baseline_failed_runs, 0);
  EXPECT_EQ(row.baseline_retries, 0);
  EXPECT_TRUE(row.baseline_error.ok());
  for (const CellResult& cell : row.cells) {
    EXPECT_EQ(cell.failed_runs, 0) << cell.technique;
    EXPECT_EQ(cell.recovered_retries, 0) << cell.technique;
    EXPECT_TRUE(cell.last_error.ok()) << cell.technique;
  }
}

TEST(FaultTolerance, InjectedFaultsDegradeOnlyTargetedCells) {
  const data::TrainTest data = SmallData(2);

  core::fault::Clear();
  const DatasetRow clean = RunToyGrid(RocketConfig(), data);

  // run0/smote: the augmentation itself fails (SMOTE fault point).
  // run1/noise_1.0: every ridge solve fails, exhausting alpha escalation.
  // run0/baseline: one ridge solve fails, recovered by alpha escalation.
  FaultSpecGuard faults(
      "smote.generate@run0/smote:1,"
      "ridge.solve@run1/noise_1.0:1+,"
      "ridge.solve@run0/baseline:1");
  const DatasetRow row = RunToyGrid(RocketConfig(), data);

  ASSERT_EQ(row.cells.size(), 2u);
  const CellResult& noise = row.cells[0];
  const CellResult& smote = row.cells[1];

  // The smote cell failed in the augmentation phase with the fault's code.
  EXPECT_EQ(smote.failed_runs, 1);
  EXPECT_EQ(smote.last_error.code(), core::StatusCode::kInjectedFault);
  EXPECT_NE(smote.last_error.context().find("smote.generate"),
            std::string::npos);

  // The noise cell failed in training after alpha escalation ran dry.
  EXPECT_EQ(noise.failed_runs, 1);
  EXPECT_EQ(noise.last_error.code(), core::StatusCode::kInjectedFault);
  EXPECT_NE(noise.last_error.context().find("alpha escalation exhausted"),
            std::string::npos);

  // The baseline recovered: no failure, but the retry is visible.
  EXPECT_EQ(row.baseline_failed_runs, 0);
  EXPECT_GE(row.baseline_retries, 1);

  // Failed runs are excluded from the mean, not counted as 0: each cell
  // still reports a finite accuracy over its one successful run.
  EXPECT_TRUE(std::isfinite(smote.accuracy));
  EXPECT_TRUE(std::isfinite(noise.accuracy));
  EXPECT_GT(smote.accuracy, 0.0);
  EXPECT_GT(noise.accuracy, 0.0);
}

TEST(FaultTolerance, UnaffectedCellsBitwiseEqualCleanRun) {
  const data::TrainTest data = SmallData(2);

  core::fault::Clear();
  const DatasetRow clean = RunToyGrid(RocketConfig(), data);

  // Only the smote cells are targeted; baseline and noise must be
  // bitwise identical to the clean run (recovery work happens inside the
  // failed cell only).
  FaultSpecGuard faults("smote.generate@/smote:1+");
  const DatasetRow row = RunToyGrid(RocketConfig(), data);

  EXPECT_EQ(row.baseline_accuracy, clean.baseline_accuracy);
  EXPECT_EQ(row.cells[0].accuracy, clean.cells[0].accuracy);
  EXPECT_EQ(row.cells[1].failed_runs, 2);
  // Every run of the cell failed: its accuracy is NaN (not a fake 0) and
  // aggregate statistics skip it.
  EXPECT_TRUE(std::isnan(row.cells[1].accuracy));
  EXPECT_EQ(row.BestTechnique(), "noise_1.0");
}

TEST(FaultTolerance, InjectedGridDeterministicAcrossThreadCounts) {
  ThreadCountGuard guard;
  const data::TrainTest data = SmallData(2);
  const std::string spec =
      "smote.generate@run0/smote:1,ridge.solve@run1/noise_1.0:1+";

  // SetSpec before every grid run: hit counters are keyed by (rule,
  // domain) and the domains repeat across runs of the same grid.
  core::fault::SetSpec(spec);
  core::SetNumThreads(1);
  const DatasetRow reference = RunToyGrid(RocketConfig(), data);

  for (int threads : {2, 8}) {
    core::SetNumThreads(threads);
    core::fault::SetSpec(spec);
    const DatasetRow row = RunToyGrid(RocketConfig(), data);
    EXPECT_EQ(row.baseline_accuracy, reference.baseline_accuracy)
        << threads << " threads";
    ASSERT_EQ(row.cells.size(), reference.cells.size());
    for (size_t i = 0; i < reference.cells.size(); ++i) {
      EXPECT_EQ(row.cells[i].accuracy, reference.cells[i].accuracy)
          << reference.cells[i].technique << ", " << threads << " threads";
      EXPECT_EQ(row.cells[i].failed_runs, reference.cells[i].failed_runs)
          << reference.cells[i].technique << ", " << threads << " threads";
      EXPECT_EQ(row.cells[i].last_error, reference.cells[i].last_error)
          << reference.cells[i].technique << ", " << threads << " threads";
    }
  }
  core::fault::Clear();
}

void ExpectSameBits(double actual, double expected, const std::string& what) {
  EXPECT_EQ(std::memcmp(&actual, &expected, sizeof(double)), 0)
      << what << ": " << actual << " vs " << expected;
}

// The cells of a ROCKET run share one transform of the base and test rows
// (classify::RocketRunFeatures), built outside every cell fault domain. A
// fault still fails only the cell it targets, at any thread count: the
// smote cell's every ridge solve, and a stop request at each poll of the
// noise_1.0 cell in turn (cell.start in the augmentation phase, then
// cell.start, rocket.fit and rocket.ridge in the evaluation phase).
TEST(FaultTolerance, SharedRocketFeaturesKeepFaultsInTheirOwnCell) {
  ThreadCountGuard guard;
  const data::TrainTest data = SmallData(2);
  for (int threads : {1, 4}) {
    core::SetNumThreads(threads);
    const std::string at = std::to_string(threads) + " threads";
    core::fault::Clear();
    const DatasetRow clean = RunToyGrid(RocketConfig(/*runs=*/1), data);
    ASSERT_EQ(clean.cells.size(), 2u);

    {
      FaultSpecGuard faults("ridge.solve@run0/smote:1+");
      const DatasetRow row = RunToyGrid(RocketConfig(/*runs=*/1), data);
      EXPECT_EQ(row.cells[1].failed_runs, 1) << at;
      EXPECT_EQ(row.cells[1].last_error.code(),
                core::StatusCode::kInjectedFault)
          << at;
      EXPECT_EQ(row.baseline_failed_runs, 0) << at;
      EXPECT_EQ(row.cells[0].failed_runs, 0) << at;
      ExpectSameBits(row.baseline_accuracy, clean.baseline_accuracy,
                     "baseline, " + at);
      ExpectSameBits(row.cells[0].accuracy, clean.cells[0].accuracy,
                     "noise_1.0, " + at);
    }

    // A stopped run is discarded from the row but its finished cells are
    // journaled; resuming without faults restores them and recomputes
    // only the stopped cell, so the row must equal the clean one.
    for (int poll = 1; poll <= 4; ++poll) {
      const std::string what = at + ", noise_1.0 poll " + std::to_string(poll);
      ExperimentConfig config = RocketConfig(/*runs=*/1);
      config.journal_path =
          (std::filesystem::path(testing::TempDir()) /
           ("shared_stop_" + std::to_string(threads) + "_" +
            std::to_string(poll) + ".jsonl"))
              .string();
      std::filesystem::remove(config.journal_path);
      {
        FaultSpecGuard faults("ridge.solve@run0/smote:1+,"
                              "cancel.stop@cell/toy/run0/noise_1.0:" +
                              std::to_string(poll));
        const DatasetRow stopped = RunToyGrid(config, data);
        EXPECT_TRUE(stopped.interrupted) << what;
      }
      core::fault::Clear();
      const DatasetRow resumed = RunToyGrid(config, data);
      EXPECT_FALSE(resumed.interrupted) << what;
      // Baseline and smote come back from the journal; noise_1.0 reruns.
      EXPECT_EQ(resumed.resumed_cells, 2) << what;
      EXPECT_EQ(resumed.cells[0].resumed_runs, 0) << what;
      ExpectSameBits(resumed.baseline_accuracy, clean.baseline_accuracy,
                     "baseline, " + what);
      ExpectSameBits(resumed.cells[0].accuracy, clean.cells[0].accuracy,
                     "noise_1.0, " + what);
      EXPECT_EQ(resumed.cells[1].failed_runs, 1) << what;
      EXPECT_EQ(resumed.cells[1].last_error.code(),
                core::StatusCode::kInjectedFault)
          << what;
    }

    // The polls keep their order: an injected deadline at the n-th poll
    // of the noise_1.0 cell names that poll, and fails that cell alone.
    const char* const kPolls[] = {"cell.start", "cell.start", "rocket.fit",
                                  "rocket.ridge"};
    for (int poll = 1; poll <= 4; ++poll) {
      const std::string what = at + ", noise_1.0 poll " + std::to_string(poll);
      FaultSpecGuard faults("cancel.deadline@cell/toy/run0/noise_1.0:" +
                            std::to_string(poll));
      const DatasetRow row = RunToyGrid(RocketConfig(/*runs=*/1), data);
      EXPECT_EQ(row.cells[0].failed_runs, 1) << what;
      EXPECT_EQ(row.cells[0].last_error.code(),
                core::StatusCode::kDeadlineExceeded)
          << what;
      EXPECT_NE(row.cells[0].last_error.ToString().find(kPolls[poll - 1]),
                std::string::npos)
          << what << ": " << row.cells[0].last_error.ToString();
      ExpectSameBits(row.baseline_accuracy, clean.baseline_accuracy,
                     "baseline, " + what);
      ExpectSameBits(row.cells[1].accuracy, clean.cells[1].accuracy,
                     "smote, " + what);
    }
  }
}

TEST(FaultTolerance, TrainerDivergenceRecoversWithinBudget) {
  const data::TrainTest data = SmallData(3);

  // One poisoned training step: the trainer detects the non-finite loss,
  // restores the best checkpoint, halves the learning rate and goes on.
  FaultSpecGuard faults("trainer.step@run0/baseline:1");
  const DatasetRow row = RunToyGrid(InceptionConfig(), data);
  EXPECT_EQ(row.baseline_failed_runs, 0);
  EXPECT_GE(row.baseline_retries, 1);
}

TEST(FaultTolerance, TrainerDivergenceExhaustionFailsOnlyThatCell) {
  const data::TrainTest data = SmallData(3);

  // Every step poisoned: retries run dry and the cell fails kDiverged;
  // the augmented cells still complete.
  FaultSpecGuard faults("trainer.step@run0/baseline:1+");
  const DatasetRow row = RunToyGrid(InceptionConfig(), data);
  EXPECT_EQ(row.baseline_failed_runs, 1);
  EXPECT_EQ(row.baseline_error.code(), core::StatusCode::kDiverged);
  // The single run failed, so the baseline has no successful run to
  // average: NaN, and the improvement statistic goes n/a instead of
  // dividing by a bogus 0 baseline.
  EXPECT_TRUE(std::isnan(row.baseline_accuracy));
  EXPECT_TRUE(std::isnan(row.ImprovementPercent()));
  for (const CellResult& cell : row.cells) {
    EXPECT_EQ(cell.failed_runs, 0) << cell.technique;
    EXPECT_GT(cell.accuracy, 0.0) << cell.technique;
  }
}

TEST(FaultTolerance, TinyCellBudgetFailsCellsButGridCompletes) {
  core::fault::Clear();
  const data::TrainTest data = SmallData(2);
  ExperimentConfig config = RocketConfig(/*runs=*/1);
  // A budget this small expires before the first poll: every cell is
  // recorded kDeadlineExceeded, but the grid itself still finishes every
  // run — a slow cell must never take the sweep down with it.
  config.cell_budget_seconds = 1e-9;
  const DatasetRow row = RunToyGrid(config, data);
  EXPECT_FALSE(row.interrupted);
  EXPECT_EQ(row.baseline_failed_runs, 1);
  EXPECT_EQ(row.baseline_error.code(), core::StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(std::isnan(row.baseline_accuracy));
  for (const CellResult& cell : row.cells) {
    EXPECT_EQ(cell.failed_runs, 1) << cell.technique;
    EXPECT_EQ(cell.last_error.code(), core::StatusCode::kDeadlineExceeded)
        << cell.technique;
  }
}

TEST(FaultTolerance, InjectedDeadlineFailsOnlyTargetedCell) {
  const data::TrainTest data = SmallData(2);
  // The injected deadline needs no real timing: the first poll under the
  // smote cell's domain reports kDeadlineExceeded deterministically.
  FaultSpecGuard faults("cancel.deadline@run0/smote:1");
  const DatasetRow row = RunToyGrid(RocketConfig(/*runs=*/1), data);
  EXPECT_FALSE(row.interrupted);
  EXPECT_EQ(row.cells[1].failed_runs, 1);
  EXPECT_EQ(row.cells[1].last_error.code(),
            core::StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(std::isnan(row.cells[1].accuracy));
  EXPECT_EQ(row.baseline_failed_runs, 0);
  EXPECT_EQ(row.cells[0].failed_runs, 0);
  EXPECT_TRUE(std::isfinite(row.baseline_accuracy));
}

TEST(FaultTolerance, InjectedStopAtRunBoundaryInterruptsGrid) {
  const data::TrainTest data = SmallData(2);

  core::fault::Clear();
  const DatasetRow clean = RunToyGrid(RocketConfig(/*runs=*/1), data);

  // Stop exactly at run 1's boundary poll: run 0 completes and is folded
  // in, run 1 never starts; the partial row equals a 1-run grid bit for
  // bit and is marked interrupted.
  FaultSpecGuard faults("cancel.stop@grid/toy/run1:1");
  const DatasetRow row = RunToyGrid(RocketConfig(/*runs=*/2), data);
  EXPECT_TRUE(row.interrupted);
  EXPECT_EQ(row.baseline_failed_runs, 0);
  EXPECT_EQ(row.baseline_accuracy, clean.baseline_accuracy);
  for (size_t i = 0; i < row.cells.size(); ++i) {
    EXPECT_EQ(row.cells[i].accuracy, clean.cells[i].accuracy)
        << row.cells[i].technique;
  }
}

TEST(FaultTolerance, InjectedStopMidRunDiscardsTheRun) {
  const data::TrainTest data = SmallData(2);
  // A stop request that lands inside run 0 (at the smote cell's start
  // poll) discards the whole partially-evaluated run: nothing of run 0
  // reaches the row, which is marked interrupted.
  FaultSpecGuard faults("cancel.stop@cell/toy/run0/smote:1");
  const DatasetRow row = RunToyGrid(RocketConfig(/*runs=*/1), data);
  EXPECT_TRUE(row.interrupted);
  EXPECT_TRUE(std::isnan(row.baseline_accuracy));
  EXPECT_EQ(row.baseline_failed_runs, 0);
  for (const CellResult& cell : row.cells) {
    EXPECT_TRUE(std::isnan(cell.accuracy)) << cell.technique;
    EXPECT_EQ(cell.failed_runs, 0) << cell.technique;
  }
}

TEST(FaultTolerance, TimeGanFallbackDegradesGracefully) {
  const data::TrainTest data = SmallData(4);
  augment::TimeGanConfig config;
  config.embedding_iterations = 2;
  config.supervised_iterations = 2;
  config.joint_iterations = 1;

  // GAN training is injected to fail; the augmenter degrades to its
  // configured fallback instead of failing the cell.
  FaultSpecGuard faults("timegan.fit:1+");
  augment::TimeGanAugmenter with_fallback(
      config, std::make_unique<augment::Smote>());
  core::Rng rng(7);
  core::StatusOr<std::vector<core::TimeSeries>> generated =
      with_fallback.TryGenerate(data.train, 0, 4, rng);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  EXPECT_EQ(generated.value().size(), 4u);

  // Without a fallback the Status propagates to the caller.
  augment::TimeGanAugmenter no_fallback(config);
  core::StatusOr<std::vector<core::TimeSeries>> failed =
      no_fallback.TryGenerate(data.train, 0, 4, rng);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), core::StatusCode::kInjectedFault);
}

// Four classes, three of them short of the majority, so balancing asks
// the augmenter for classes 1, 2 and 3.
data::TrainTest FourClassData() {
  data::SyntheticSpec spec;
  spec.num_classes = 4;
  spec.train_counts = {10, 6, 5, 4};
  spec.test_counts = {2, 2, 2, 2};
  spec.num_channels = 2;
  spec.length = 16;
  spec.seed = 11;
  return data::MakeSynthetic(spec);
}

augment::TimeGanConfig TinyTimeGanConfig() {
  augment::TimeGanConfig config;
  config.embedding_iterations = 2;
  config.supervised_iterations = 2;
  config.joint_iterations = 1;
  return config;
}

TEST(FaultTolerance, PerClassFitFaultDegradesOnlyThatClass) {
  ThreadCountGuard thread_guard;
  const bool trace_was_enabled = core::trace::Enabled();
  core::trace::Enable();
  const data::TrainTest data = FourClassData();
  // Each class's GAN trains in its own fault sub-domain "<caller>/class<k>",
  // so the rule hits class 2's fit and no other, whichever thread runs it.
  FaultSpecGuard faults("timegan.fit@class2:1+");

  std::vector<core::Dataset> balanced;
  for (int threads : {1, 4}) {
    core::SetNumThreads(threads);
    core::trace::Reset();
    augment::TimeGanAugmenter augmenter(TinyTimeGanConfig(),
                                        std::make_unique<augment::Smote>());
    core::Rng rng(3);
    core::StatusOr<core::Dataset> out =
        augment::TryBalanceWithAugmenter(data.train, augmenter, rng);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out->ClassCounts(), (std::vector<int>{10, 10, 10, 10}));
    EXPECT_EQ(core::trace::CounterValue("augment.prefit_classes"), 3)
        << threads << " threads";
    EXPECT_EQ(core::trace::CounterValue("timegan.fallback"), 1)
        << threads << " threads";
    balanced.push_back(std::move(out).value());
  }
  EXPECT_EQ(balanced[0].labels(), balanced[1].labels());
  for (int i = 0; i < balanced[0].size(); ++i) {
    EXPECT_EQ(balanced[0].series(i), balanced[1].series(i)) << "series " << i;
  }

  // Without a fallback, exactly class 2 reports the injected fault; the
  // other classes' GANs trained and sample normally.
  core::SetNumThreads(4);
  augment::TimeGanAugmenter no_fallback(TinyTimeGanConfig());
  no_fallback.Prefit(data.train, {1, 2, 3});
  core::Rng rng(3);
  for (int label : {1, 2, 3}) {
    core::StatusOr<std::vector<core::TimeSeries>> generated =
        no_fallback.TryGenerate(data.train, label, 2, rng);
    if (label == 2) {
      ASSERT_FALSE(generated.ok());
      EXPECT_EQ(generated.status().code(), core::StatusCode::kInjectedFault);
    } else {
      EXPECT_TRUE(generated.ok()) << generated.status().ToString();
    }
  }
  if (!trace_was_enabled) core::trace::Disable();
}

TEST(FaultTolerance, ExpiredDeadlineFollowsPooledClassFits) {
  ThreadCountGuard thread_guard;
  core::SetNumThreads(4);
  const data::TrainTest data = FourClassData();
  // The caller's stop token is installed on every pool worker that fits a
  // class, so an expired cell budget stops all of them, not only the fits
  // that happen to run on the calling thread.
  core::StopSource expired;
  expired.SetDeadlineAfterSeconds(0.0);
  augment::TimeGanAugmenter augmenter(TinyTimeGanConfig());
  {
    core::ScopedStopToken scoped(expired.token());
    core::Rng rng(3);
    core::StatusOr<core::Dataset> out =
        augment::TryBalanceWithAugmenter(data.train, augmenter, rng);
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), core::StatusCode::kDeadlineExceeded)
        << out.status().ToString();
  }
  // Every prefitted class recorded the deadline, not just the first one.
  core::Rng rng(3);
  for (int label : {1, 2, 3}) {
    core::StatusOr<std::vector<core::TimeSeries>> generated =
        augmenter.TryGenerate(data.train, label, 2, rng);
    ASSERT_FALSE(generated.ok()) << "class " << label;
    EXPECT_EQ(generated.status().code(), core::StatusCode::kDeadlineExceeded)
        << "class " << label;
  }
}

}  // namespace
}  // namespace tsaug::eval
