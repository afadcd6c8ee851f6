#include "data/scenarios.h"

#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/validate.h"

namespace tsaug::data {
namespace {

bool SplitsBitIdentical(const core::Dataset& a, const core::Dataset& b) {
  if (a.size() != b.size()) return false;
  for (int i = 0; i < a.size(); ++i) {
    if (a.label(i) != b.label(i)) return false;
    const auto& av = a.series(i).values();
    const auto& bv = b.series(i).values();
    if (av.size() != bv.size()) return false;
    for (size_t v = 0; v < av.size(); ++v) {
      if (std::memcmp(&av[v], &bv[v], sizeof(double)) != 0) return false;
    }
  }
  return true;
}

TEST(ScenarioCatalog, IdsAreUniqueStableAndWellFormed) {
  const std::vector<ScenarioInfo>& catalog = ScenarioCatalog();
  ASSERT_GE(catalog.size(), 25u);
  std::set<std::string> ids;
  const std::set<std::string> families = {"drift", "imbalance", "missing",
                                          "geometry"};
  for (const ScenarioInfo& info : catalog) {
    EXPECT_FALSE(info.id.empty());
    EXPECT_FALSE(info.summary.empty());
    EXPECT_TRUE(ids.insert(info.id).second) << "duplicate id " << info.id;
    EXPECT_TRUE(families.count(info.family)) << info.family;
  }
  // Every family is represented.
  std::set<std::string> seen;
  for (const ScenarioInfo& info : catalog) seen.insert(info.family);
  EXPECT_EQ(seen, families);
  EXPECT_EQ(ScenarioIds().size(), catalog.size());
}

TEST(ScenarioCatalog, UnknownIdIsRejected) {
  const core::StatusOr<TrainTest> unknown =
      TryMakeScenarioDataset("no_such_scenario", 1);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), core::StatusCode::kInvalidArgument);
}

TEST(ScenarioCatalog, EveryScenarioGeneratesNonEmptySplits) {
  for (const std::string& id : ScenarioIds()) {
    SCOPED_TRACE(id);
    const core::StatusOr<TrainTest> data = TryMakeScenarioDataset(id, 42);
    ASSERT_TRUE(data.ok());
    EXPECT_GT(data->train.size(), 0);
    EXPECT_GT(data->test.size(), 0);
    EXPECT_GE(data->train.num_classes(), 2);
  }
}

TEST(ScenarioCatalog, DeterministicInIdAndSeed) {
  for (const std::string& id : {std::string("missing_bursty"),
                                std::string("combined_worst_case"),
                                std::string("varlen_extreme")}) {
    SCOPED_TRACE(id);
    const TrainTest a = TryMakeScenarioDataset(id, 7).value();
    const TrainTest b = TryMakeScenarioDataset(id, 7).value();
    EXPECT_TRUE(SplitsBitIdentical(a.train, b.train));
    EXPECT_TRUE(SplitsBitIdentical(a.test, b.test));
    const TrainTest c = TryMakeScenarioDataset(id, 8).value();
    EXPECT_FALSE(SplitsBitIdentical(a.train, c.train));
  }
}

TEST(ScenarioCatalog, ScenariosDrawDecorrelatedStreamsUnderOneSeed) {
  // Two different scenarios under the same study seed must not share
  // generation bits (their seed streams are folded with the id).
  const TrainTest a = TryMakeScenarioDataset("drift_step_mild", 7).value();
  const TrainTest b = TryMakeScenarioDataset("constant_channel", 7).value();
  ASSERT_EQ(a.train.size(), b.train.size());
  EXPECT_FALSE(SplitsBitIdentical(a.train, b.train));
}

TEST(ScenarioCatalog, DriftShiftsTestNotTrain) {
  const TrainTest plain =
      TryMakeScenarioDataset("drift_step_severe", 7).value();
  // Train carries no drift: a NaN-free healthy validation.
  const core::ValidationReport report =
      core::ValidateDataset(plain.train);
  EXPECT_FALSE(report.HasFatal());
  // The +2.5 step shows in the test mean.
  double train_sum = 0.0, test_sum = 0.0;
  double train_n = 0.0, test_n = 0.0;
  for (int i = 0; i < plain.train.size(); ++i) {
    for (double v : plain.train.series(i).values()) {
      train_sum += v;
      train_n += 1.0;
    }
  }
  for (int i = 0; i < plain.test.size(); ++i) {
    for (double v : plain.test.series(i).values()) {
      test_sum += v;
      test_n += 1.0;
    }
  }
  EXPECT_GT(test_sum / test_n, train_sum / train_n + 1.5);
}

TEST(ScenarioCatalog, SingletonScenarioHasSingleMemberClass) {
  const TrainTest data =
      TryMakeScenarioDataset("imbalance_singleton", 7).value();
  const std::vector<int> counts = data.train.ClassCounts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[2], 1);
}

TEST(ScenarioCatalog, DeadChannelScenarioIsRepairable) {
  const TrainTest data =
      TryMakeScenarioDataset("missing_channel_dead", 7).value();
  const core::ValidationReport report = core::ValidateDataset(data.train);
  EXPECT_FALSE(report.HasFatal());
  EXPECT_TRUE(report.NeedsRepair());
  const core::StatusOr<core::RepairOutcome> repaired =
      core::TryRepairTrainTest(data.train, data.test, core::ValidateOptions{},
                               7);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(repaired->dropped_channels, 1);
  EXPECT_EQ(repaired->train.series(0).num_channels(), 2);
}

TEST(ScenarioCatalog, LengthOneScenarioDiagnosesFatalTyped) {
  const TrainTest data = TryMakeScenarioDataset("length_one_all", 7).value();
  EXPECT_EQ(data.train.max_length(), 1);
  const core::StatusOr<core::RepairOutcome> repaired =
      core::TryRepairTrainTest(data.train, data.test, core::ValidateOptions{},
                               7);
  ASSERT_FALSE(repaired.ok());
  EXPECT_EQ(repaired.status().code(), core::StatusCode::kDegenerateInput);
}

TEST(ScenarioCatalog, EmptyClassScenarioKeepsLabelSpace) {
  const TrainTest data = TryMakeScenarioDataset("empty_class", 7).value();
  EXPECT_EQ(data.train.num_classes(), 3);
  const std::vector<int> train_counts = data.train.ClassCounts();
  const std::vector<int> test_counts = data.test.ClassCounts();
  EXPECT_EQ(train_counts[2], 0);
  EXPECT_GT(test_counts[2], 0);
}

TEST(ScenarioCatalog, VarlenTinyMixRepairsByResampling) {
  const TrainTest data = TryMakeScenarioDataset("varlen_tiny_mix", 7).value();
  EXPECT_EQ(data.train.min_length(), 1);
  EXPECT_GT(data.train.max_length(), 1);
  const core::StatusOr<core::RepairOutcome> repaired =
      core::TryRepairTrainTest(data.train, data.test, core::ValidateOptions{},
                               7);
  ASSERT_TRUE(repaired.ok());
  EXPECT_GT(repaired->resampled_series, 0);
  EXPECT_GE(repaired->train.min_length(), 2);
  EXPECT_GE(repaired->test.min_length(), 2);
}

TEST(ScenarioCatalog, SingleChannelScenarioIsUnivariate) {
  const TrainTest data = TryMakeScenarioDataset("single_channel", 7).value();
  EXPECT_EQ(data.train.num_channels(), 1);
}

}  // namespace
}  // namespace tsaug::data
