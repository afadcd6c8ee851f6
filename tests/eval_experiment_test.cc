#include "eval/experiment.h"

#include <cmath>
#include <filesystem>
#include <limits>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "augment/noise.h"
#include "augment/oversample.h"
#include "eval/journal.h"
#include "eval/report.h"

namespace tsaug::eval {
namespace {

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

ExperimentConfig QuickConfig(ModelKind model) {
  ExperimentConfig config;
  config.model = model;
  config.runs = 1;
  config.rocket_kernels = 100;
  config.inception.num_filters = 3;
  config.inception.depth = 3;
  config.inception.kernel_sizes = {4, 8};
  config.inception.bottleneck_channels = 3;
  config.inception.ensemble_size = 1;
  config.inception.trainer.max_epochs = 8;
  config.inception.trainer.early_stopping_patience = 4;
  config.inception.trainer.learning_rate = 5e-3;
  config.seed = 5;
  return config;
}

TEST(RelativeGain, MatchesEqThree) {
  EXPECT_NEAR(RelativeGain(0.9, 0.8), 0.125, 1e-12);
  EXPECT_NEAR(RelativeGain(0.7, 0.8), -0.125, 1e-12);
  EXPECT_DOUBLE_EQ(RelativeGain(0.8, 0.8), 0.0);
}

// A failed baseline (NaN) or a zero one has no relative gain.
TEST(RelativeGain, NaNForBaselineNotFiniteAndPositive) {
  EXPECT_TRUE(std::isnan(RelativeGain(0.5, std::nan(""))));
  EXPECT_TRUE(std::isnan(RelativeGain(0.5, 0.0)));
  EXPECT_TRUE(std::isnan(
      RelativeGain(0.5, std::numeric_limits<double>::infinity())));
}

TEST(DatasetRow, BestAndImprovement) {
  DatasetRow row;
  row.dataset = "toy";
  row.baseline_accuracy = 0.80;
  row.cells = {{"a", 0.84}, {"b", 0.78}, {"c", 0.82}};
  EXPECT_DOUBLE_EQ(row.BestAugmentedAccuracy(), 0.84);
  EXPECT_EQ(row.BestTechnique(), "a");
  EXPECT_NEAR(row.ImprovementPercent(), 5.0, 1e-9);
}

TEST(StudyResult, AverageImprovementAndCounts) {
  StudyResult study;
  DatasetRow improved;
  improved.dataset = "x";
  improved.baseline_accuracy = 0.5;
  improved.cells = {{"noise_1.0", 0.55}, {"noise_3.0", 0.45},
                    {"smote", 0.6}, {"timegan", 0.4}};
  DatasetRow degraded;
  degraded.dataset = "y";
  degraded.baseline_accuracy = 0.8;
  degraded.cells = {{"noise_1.0", 0.7}, {"noise_3.0", 0.7},
                    {"smote", 0.7}, {"timegan", 0.85}};
  study.rows = {improved, degraded};

  // Improvements: x -> (0.6-0.5)/0.5 = 20%, y -> (0.85-0.8)/0.8 = 6.25%.
  EXPECT_NEAR(study.AverageImprovement(), (20.0 + 6.25) / 2.0, 1e-9);

  const auto counts = study.ImprovementCounts();
  EXPECT_EQ(counts.at("noise"), 1);    // only x (0.55 > 0.5)
  EXPECT_EQ(counts.at("smote"), 1);    // only x
  EXPECT_EQ(counts.at("timegan"), 1);  // only y
}

TEST(TryRunDatasetGrid, RocketGridProducesSaneAccuracies) {
  const data::TrainTest data = SmallData();
  std::vector<std::shared_ptr<augment::Augmenter>> techniques = {
      std::make_shared<augment::NoiseInjection>(1.0),
      std::make_shared<augment::Smote>(),
  };
  const DatasetRow row = TryRunDatasetGrid("toy", data, techniques,
                                           QuickConfig(ModelKind::kRocket))
                             .value();
  EXPECT_EQ(row.dataset, "toy");
  EXPECT_GT(row.baseline_accuracy, 0.5);
  ASSERT_EQ(row.cells.size(), 2u);
  for (const CellResult& cell : row.cells) {
    EXPECT_GT(cell.accuracy, 0.4);
    EXPECT_LE(cell.accuracy, 1.0);
  }
}

TEST(TryRunDatasetGrid, InceptionGridRuns) {
  const data::TrainTest data = SmallData(2);
  std::vector<std::shared_ptr<augment::Augmenter>> techniques = {
      std::make_shared<augment::Smote>(),
  };
  const DatasetRow row = TryRunDatasetGrid(
      "toy", data, techniques, QuickConfig(ModelKind::kInceptionTime)).value();
  EXPECT_GT(row.baseline_accuracy, 0.3);
  EXPECT_GT(row.cells[0].accuracy, 0.3);
}

TEST(TryRunDatasetGrid, DeterministicAcrossCalls) {
  const data::TrainTest data = SmallData(3);
  std::vector<std::shared_ptr<augment::Augmenter>> techniques = {
      std::make_shared<augment::NoiseInjection>(1.0),
  };
  const ExperimentConfig config = QuickConfig(ModelKind::kRocket);
  const DatasetRow a =
      TryRunDatasetGrid("toy", data, techniques, config).value();
  const DatasetRow b =
      TryRunDatasetGrid("toy", data, techniques, config).value();
  EXPECT_DOUBLE_EQ(a.baseline_accuracy, b.baseline_accuracy);
  EXPECT_DOUBLE_EQ(a.cells[0].accuracy, b.cells[0].accuracy);
}

TEST(Report, AccuracyTablePrintsAllRows) {
  StudyResult study;
  study.model = ModelKind::kRocket;
  DatasetRow row;
  row.dataset = "toy";
  row.baseline_accuracy = 0.9;
  row.cells = {{"noise_1.0", 0.91}, {"smote", 0.89}};
  study.rows = {row};

  std::ostringstream out;
  PrintAccuracyTable(study, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("toy"), std::string::npos);
  EXPECT_NE(text.find("ROCKET_noise_1.0"), std::string::npos);
  EXPECT_NE(text.find("90.00"), std::string::npos);
  EXPECT_NE(text.find("Average Improvement"), std::string::npos);
}

TEST(Report, AccuracyTableAnnotatesFailedAndRetriedCells) {
  StudyResult study;
  study.model = ModelKind::kRocket;
  DatasetRow row;
  row.dataset = "toy";
  row.baseline_accuracy = 0.9;
  row.baseline_retries = 1;
  CellResult failed("smote", 0.45);
  failed.failed_runs = 1;
  failed.last_error = core::SingularError("ridge.fit: gram not SPD");
  row.cells = {{"noise_1.0", 0.91}, failed};
  study.rows = {row};

  std::ostringstream out;
  PrintAccuracyTable(study, out);
  const std::string text = out.str();
  // Recovered-retry marker on the baseline, failure marker on the cell.
  EXPECT_NE(text.find("~"), std::string::npos);
  EXPECT_NE(text.find("!1"), std::string::npos);
  // The failure list names the cell and carries the Status.
  EXPECT_NE(text.find("Failed cells"), std::string::npos);
  EXPECT_NE(text.find("toy/smote"), std::string::npos);
  EXPECT_NE(text.find("singular: ridge.fit: gram not SPD"), std::string::npos);
}

TEST(Report, AnnotatesResumedCellsAndPrintsJournalFooter) {
  StudyResult study;
  study.model = ModelKind::kRocket;
  study.journal_path = "/tmp/grid.jsonl";
  study.resumed_cells = 3;
  DatasetRow row;
  row.dataset = "toy";
  row.baseline_accuracy = 0.9;
  row.baseline_resumed_runs = 1;
  CellResult dead("smote", std::nan(""));
  dead.failed_runs = 2;
  dead.last_error = core::DivergedError("trainer: loss diverged");
  row.cells = {{"noise_1.0", 0.91}, dead};
  row.resumed_cells = 3;
  study.rows = {row};

  std::ostringstream out;
  PrintAccuracyTable(study, out);
  const std::string text = out.str();
  // "^" marks the resumed baseline; the all-failed cell prints n/a.
  EXPECT_NE(text.find("90.00^"), std::string::npos);
  EXPECT_NE(text.find("n/a!2"), std::string::npos);
  EXPECT_NE(text.find("Journal: /tmp/grid.jsonl (3 cell(s) resumed)"),
            std::string::npos);
  EXPECT_EQ(text.find("INTERRUPTED"), std::string::npos);
}

TEST(Report, MarksInterruptedStudies) {
  StudyResult study;
  study.model = ModelKind::kRocket;
  study.interrupted = true;
  DatasetRow row;
  row.dataset = "toy";
  row.baseline_accuracy = 0.9;
  row.cells = {{"smote", 0.91}};
  row.interrupted = true;
  study.rows = {row};

  std::ostringstream out;
  PrintAccuracyTable(study, out);
  EXPECT_NE(out.str().find("INTERRUPTED"), std::string::npos);
}

TEST(DatasetRow, AggregatesSkipAllFailedNanCells) {
  const double nan = std::nan("");
  DatasetRow row;
  row.dataset = "toy";
  row.baseline_accuracy = 0.80;
  row.cells = {{"a", nan}, {"b", 0.78}, {"c", 0.82}};
  // The all-failed cell "a" is invisible to the aggregates.
  EXPECT_DOUBLE_EQ(row.BestAugmentedAccuracy(), 0.82);
  EXPECT_EQ(row.BestTechnique(), "c");
  EXPECT_NEAR(row.ImprovementPercent(), 2.5, 1e-9);
}

TEST(DatasetRow, AllCellsFailedYieldsNanNotZero) {
  const double nan = std::nan("");
  DatasetRow row;
  row.dataset = "toy";
  row.baseline_accuracy = 0.80;
  row.cells = {{"a", nan}, {"b", nan}};
  EXPECT_TRUE(std::isnan(row.BestAugmentedAccuracy()));
  EXPECT_EQ(row.BestTechnique(), "");
  EXPECT_TRUE(std::isnan(row.ImprovementPercent()));
}

TEST(DatasetRow, FailedBaselineYieldsNanImprovement) {
  DatasetRow row;
  row.dataset = "toy";
  row.baseline_accuracy = std::nan("");
  row.cells = {{"a", 0.9}};
  EXPECT_DOUBLE_EQ(row.BestAugmentedAccuracy(), 0.9);
  EXPECT_TRUE(std::isnan(row.ImprovementPercent()));
}

TEST(StudyResult, AggregatesSkipNanRowsAndKeepZeroCountFamilies) {
  const double nan = std::nan("");
  StudyResult study;
  DatasetRow good;
  good.dataset = "x";
  good.baseline_accuracy = 0.5;
  good.cells = {{"noise_1.0", 0.55}, {"smote", nan}, {"timegan", 0.4}};
  DatasetRow dead;  // baseline failed: no improvement is defined
  dead.dataset = "y";
  dead.baseline_accuracy = nan;
  dead.cells = {{"noise_1.0", 0.9}, {"smote", 0.9}, {"timegan", 0.9}};
  study.rows = {good, dead};

  // Only x contributes: (0.55-0.5)/0.5 = 10%.
  EXPECT_NEAR(study.AverageImprovement(), 10.0, 1e-9);

  const auto counts = study.ImprovementCounts();
  EXPECT_EQ(counts.at("noise"), 1);    // x only; y's baseline is NaN
  EXPECT_EQ(counts.at("smote"), 0);    // all-failed cell never "improves"
  EXPECT_EQ(counts.at("timegan"), 0);  // present with zero, not missing
}

TEST(StudyResult, AllRowsNanYieldsNanAverageImprovement) {
  StudyResult study;
  DatasetRow dead;
  dead.dataset = "x";
  dead.baseline_accuracy = std::nan("");
  dead.cells = {{"smote", 0.9}};
  study.rows = {dead};
  EXPECT_TRUE(std::isnan(study.AverageImprovement()));
}

TEST(Report, PropertiesTableMatchesTableThreeLayout) {
  core::DatasetProperties props;
  props.name = "Heartbeat";
  props.n_classes = 2;
  props.train_size = 204;
  props.dim = 61;
  props.length = 405;
  props.im_ratio = 0.3;
  std::ostringstream out;
  PrintPropertiesTable({props}, out);
  EXPECT_NE(out.str().find("Im_ratio"), std::string::npos);
  EXPECT_NE(out.str().find("Heartbeat"), std::string::npos);
}

TEST(Report, ImprovementCountsTable) {
  StudyResult rocket;
  rocket.model = ModelKind::kRocket;
  DatasetRow row;
  row.dataset = "d";
  row.baseline_accuracy = 0.5;
  row.cells = {{"noise_1.0", 0.6}, {"smote", 0.4}, {"timegan", 0.55}};
  rocket.rows = {row};
  StudyResult inception = rocket;
  inception.model = ModelKind::kInceptionTime;

  std::ostringstream out;
  PrintImprovementCounts(rocket, inception, out);
  EXPECT_NE(out.str().find("smote"), std::string::npos);
  EXPECT_NE(out.str().find("timegan"), std::string::npos);
  EXPECT_NE(out.str().find("noise"), std::string::npos);
}

TEST(BenchSettings, DefaultsAreTiny) {
  // Clear the knobs to test defaults (restore afterwards not needed in the
  // test binary).
  unsetenv("TSAUG_SCALE");
  unsetenv("TSAUG_RUNS");
  unsetenv("TSAUG_KERNELS");
  const BenchSettings settings = ReadBenchSettings().value();
  EXPECT_EQ(settings.scale, data::ScalePreset::kTiny);
  EXPECT_EQ(settings.runs, 2);
  EXPECT_EQ(settings.rocket_kernels, 500);
  EXPECT_TRUE(settings.datasets.empty());
}

TEST(BenchSettings, EnvOverrides) {
  setenv("TSAUG_SCALE", "paper", 1);
  setenv("TSAUG_RUNS", "3", 1);
  setenv("TSAUG_DATASETS", "Heartbeat,LSST", 1);
  const BenchSettings settings = ReadBenchSettings().value();
  EXPECT_EQ(settings.scale, data::ScalePreset::kPaper);
  EXPECT_EQ(settings.runs, 3);
  EXPECT_EQ(settings.rocket_kernels, 10000);
  ASSERT_EQ(settings.datasets.size(), 2u);
  EXPECT_EQ(settings.datasets[0], "Heartbeat");
  unsetenv("TSAUG_SCALE");
  unsetenv("TSAUG_RUNS");
  unsetenv("TSAUG_DATASETS");
}

TEST(BenchSettings, MalformedValuesAreTypedErrors) {
  struct Case {
    const char* name;
    const char* value;
  };
  const Case cases[] = {
      {"TSAUG_SCALE", "huge"},          {"TSAUG_SCALE", "Paper"},
      {"TSAUG_RUNS", "abc"},            {"TSAUG_RUNS", "2x"},
      {"TSAUG_RUNS", "0"},              {"TSAUG_RUNS", "-3"},
      {"TSAUG_RUNS", "99999999999"},    {"TSAUG_KERNELS", "0"},
      {"TSAUG_KERNELS", " 5"},          {"TSAUG_EPOCHS", "1.5"},
      {"TSAUG_TIMEGAN_ITERS", "0"},     {"TSAUG_SEED", "-1"},
      {"TSAUG_SEED", "4x"},             {"TSAUG_CELL_BUDGET", "soon"},
      {"TSAUG_CELL_BUDGET", "-2"},      {"TSAUG_CELL_BUDGET", "inf"},
      {"TSAUG_TECHNIQUES", "noise_1.0,smoot"},
      {"TSAUG_TECHNIQUES", "SMOTE"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.name) + "=" + c.value);
    setenv(c.name, c.value, 1);
    const core::StatusOr<BenchSettings> settings = ReadBenchSettings();
    unsetenv(c.name);
    ASSERT_FALSE(settings.ok());
    EXPECT_EQ(settings.status().code(), core::StatusCode::kInvalidArgument);
    EXPECT_NE(settings.status().context().find(c.name), std::string::npos)
        << settings.status().ToString();
  }
  // Empty values keep the defaults, and "tiny" names the default scale.
  setenv("TSAUG_RUNS", "", 1);
  setenv("TSAUG_SCALE", "tiny", 1);
  setenv("TSAUG_TECHNIQUES", "timegan,noise_1.0", 1);
  const core::StatusOr<BenchSettings> settings = ReadBenchSettings();
  unsetenv("TSAUG_RUNS");
  unsetenv("TSAUG_SCALE");
  unsetenv("TSAUG_TECHNIQUES");
  ASSERT_TRUE(settings.ok()) << settings.status().ToString();
  EXPECT_EQ(settings->runs, 2);
  EXPECT_EQ(settings->scale, data::ScalePreset::kTiny);
  // The filter keeps the paper's technique order, not the variable's.
  const auto techniques = MakePaperTechniques(*settings);
  ASSERT_EQ(techniques.size(), 2u);
  EXPECT_EQ(techniques[0]->name(), "noise_1.0");
  EXPECT_EQ(techniques[1]->name(), "timegan");
}

TEST(MakeExperimentConfig, PaperScaleKeepsPaperArchitecture) {
  BenchSettings settings;
  settings.scale = data::ScalePreset::kPaper;
  settings.inception_epochs = 200;
  const ExperimentConfig config =
      MakeExperimentConfig(settings, ModelKind::kInceptionTime);
  EXPECT_EQ(config.inception.num_filters, 32);
  EXPECT_EQ(config.inception.depth, 6);
  EXPECT_EQ(config.inception.ensemble_size, 5);
  EXPECT_EQ(config.inception.trainer.max_epochs, 200);
  // Paper: LR finder enabled (learning_rate == 0 sentinel).
  EXPECT_DOUBLE_EQ(config.inception.trainer.learning_rate, 0.0);
}

TEST(BenchSettings, JournalAndBudgetComeFromEnvironment) {
  setenv("TSAUG_JOURNAL", "/tmp/study.jsonl", 1);
  setenv("TSAUG_CELL_BUDGET", "2.5", 1);
  const BenchSettings settings = ReadBenchSettings().value();
  EXPECT_EQ(settings.journal_path, "/tmp/study.jsonl");
  EXPECT_DOUBLE_EQ(settings.cell_budget_seconds, 2.5);
  unsetenv("TSAUG_JOURNAL");
  unsetenv("TSAUG_CELL_BUDGET");

  const BenchSettings defaults = ReadBenchSettings().value();
  EXPECT_TRUE(defaults.journal_path.empty());
  EXPECT_DOUBLE_EQ(defaults.cell_budget_seconds, 0.0);
}

TEST(ApplyGridFlags, ParsesBothSeparateAndEqualsForms) {
  BenchSettings settings;
  const char* argv_equals[] = {"bench", "--journal=/tmp/a.jsonl",
                               "--cell-budget-seconds=1.5"};
  ApplyGridFlags(3, const_cast<char**>(argv_equals), settings);
  EXPECT_EQ(settings.journal_path, "/tmp/a.jsonl");
  EXPECT_DOUBLE_EQ(settings.cell_budget_seconds, 1.5);

  const char* argv_separate[] = {"bench", "--journal", "/tmp/b.jsonl",
                                 "--cell-budget-seconds", "30"};
  ApplyGridFlags(5, const_cast<char**>(argv_separate), settings);
  EXPECT_EQ(settings.journal_path, "/tmp/b.jsonl");
  EXPECT_DOUBLE_EQ(settings.cell_budget_seconds, 30.0);

  // Flags the grid does not own are left for the caller; a trailing flag
  // with no value is ignored rather than read out of bounds.
  const char* argv_odd[] = {"bench", "--other", "--journal"};
  ApplyGridFlags(3, const_cast<char**>(argv_odd), settings);
  EXPECT_EQ(settings.journal_path, "/tmp/b.jsonl");
}

TEST(ConfigFingerprint, CoversIdentityButNotDurabilityKnobs) {
  std::vector<std::shared_ptr<augment::Augmenter>> techniques = {
      std::make_shared<augment::NoiseInjection>(1.0),
      std::make_shared<augment::Smote>(),
  };
  ExperimentConfig config = QuickConfig(ModelKind::kRocket);
  const std::string base = ConfigFingerprint(config, techniques);
  EXPECT_NE(base.find("ROCKET"), std::string::npos);
  EXPECT_NE(base.find("noise_1.0,smote"), std::string::npos);

  // Identity changes must change the fingerprint (a journal can never be
  // resumed against a different experiment)...
  ExperimentConfig reseeded = config;
  reseeded.seed = config.seed + 1;
  EXPECT_NE(ConfigFingerprint(reseeded, techniques), base);
  ExperimentConfig rescaled = config;
  rescaled.rocket_kernels = config.rocket_kernels + 1;
  EXPECT_NE(ConfigFingerprint(rescaled, techniques), base);

  // ...while durability knobs must not: resuming with a different budget
  // or journal location is exactly the supported workflow.
  ExperimentConfig durable = config;
  durable.journal_path = "/tmp/elsewhere.jsonl";
  durable.cell_budget_seconds = 123.0;
  EXPECT_EQ(ConfigFingerprint(durable, techniques), base);
}

TEST(RunStudy, MismatchedJournalFingerprintFailsTyped) {
  const std::string path =
      (std::filesystem::path(testing::TempDir()) / "study_mismatch.jsonl")
          .string();
  std::filesystem::remove(path);
  {
    Journal other;
    ASSERT_TRUE(other.Open(path, "some other experiment").ok());
  }
  BenchSettings settings;
  settings.runs = 1;
  settings.rocket_kernels = 50;
  settings.datasets = {"Epilepsy"};
  settings.techniques = {"noise_1.0"};
  settings.journal_path = path;
  const core::StatusOr<StudyResult> study =
      RunStudy(settings, ModelKind::kRocket);
  ASSERT_FALSE(study.ok());
  EXPECT_NE(study.status().context().find("fingerprint mismatch"),
            std::string::npos);
}

TEST(RunStudy, UnknownDatasetFailsTypedBeforeAnyDatasetRuns) {
  BenchSettings settings;
  settings.runs = 1;
  settings.rocket_kernels = 50;
  // The valid name comes first: the whole list is checked before any
  // dataset runs, so no work is done for it either.
  settings.datasets = {"Epilepsy", "Bogus"};
  settings.techniques = {"noise_1.0"};
  const core::StatusOr<StudyResult> study =
      RunStudy(settings, ModelKind::kRocket);
  ASSERT_FALSE(study.ok());
  EXPECT_EQ(study.status().code(), core::StatusCode::kInvalidArgument);
  EXPECT_NE(study.status().context().find("'Bogus'"), std::string::npos);
}

TEST(CheckDatasetNames, AcceptsKnownAndNamesTheFirstUnknown) {
  const std::vector<std::string> known = {"A", "B"};
  EXPECT_TRUE(CheckNames({}, known, "paper dataset").ok());
  EXPECT_TRUE(CheckNames({"B", "A"}, known, "paper dataset").ok());
  const core::Status status =
      CheckNames({"A", "x", "y"}, known, "stress dataset");
  EXPECT_EQ(status.code(), core::StatusCode::kInvalidArgument);
  EXPECT_EQ(status.context(), "unknown stress dataset 'x'");
}

}  // namespace
}  // namespace tsaug::eval
