#include "core/validate.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/dataset.h"
#include "core/time_series.h"

namespace tsaug::core {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// A small healthy 2-class, 2-channel, length-4 dataset.
Dataset Healthy() {
  Dataset d(2);
  d.Add(TimeSeries::FromChannels({{0, 1, 2, 3}, {1, 0, 1, 0}}), 0);
  d.Add(TimeSeries::FromChannels({{1, 2, 3, 4}, {0, 1, 0, 1}}), 0);
  d.Add(TimeSeries::FromChannels({{3, 2, 1, 0}, {1, 1, 0, 0}}), 1);
  d.Add(TimeSeries::FromChannels({{4, 3, 2, 1}, {0, 0, 1, 1}}), 1);
  return d;
}

bool DatasetsBitIdentical(const Dataset& a, const Dataset& b) {
  if (a.size() != b.size() || a.num_classes() != b.num_classes()) return false;
  for (int i = 0; i < a.size(); ++i) {
    if (a.label(i) != b.label(i)) return false;
    const auto& av = a.series(i).values();
    const auto& bv = b.series(i).values();
    if (av.size() != bv.size()) return false;
    if (a.series(i).num_channels() != b.series(i).num_channels()) return false;
    for (size_t v = 0; v < av.size(); ++v) {
      if (std::memcmp(&av[v], &bv[v], sizeof(double)) != 0) return false;
    }
  }
  return true;
}

TEST(ValidateDataset, HealthyDatasetHasNoFindings) {
  const ValidationReport report = ValidateDataset(Healthy());
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(report.HasFatal());
  EXPECT_FALSE(report.NeedsRepair());
  EXPECT_TRUE(report.FirstFatal().ok());
}

TEST(ValidateDataset, EmptyDatasetIsFatal) {
  const ValidationReport report = ValidateDataset(Dataset(2));
  EXPECT_TRUE(report.HasFatal());
  EXPECT_EQ(report.FirstFatal().code(), StatusCode::kDegenerateInput);
}

TEST(ValidateDataset, InconsistentChannelsAreFatal) {
  Dataset d(2);
  d.Add(TimeSeries::FromChannels({{0, 1}, {1, 0}}), 0);
  d.Add(TimeSeries::FromValues({0, 1}), 1);  // 1 channel vs 2
  EXPECT_FALSE(ChannelsConsistent(d));
  const ValidationReport report = ValidateDataset(d);
  EXPECT_TRUE(report.HasFatal());
  EXPECT_EQ(report.FirstFatal().code(), StatusCode::kGeometryMismatch);
}

TEST(ValidateDataset, EveryValueMissingIsFatalAllMissing) {
  Dataset d(2);
  d.Add(TimeSeries::FromChannels({{kNan, kNan}, {kNan, kNan}}), 0);
  d.Add(TimeSeries::FromChannels({{kNan, kNan}, {kNan, kNan}}), 1);
  const ValidationReport report = ValidateDataset(d);
  EXPECT_TRUE(report.HasFatal());
  EXPECT_EQ(report.FirstFatal().code(), StatusCode::kAllMissing);
  EXPECT_TRUE(IsDegenerateInput(report.FirstFatal().code()));
}

TEST(ValidateDataset, EntirelyBelowLengthFloorIsFatal) {
  Dataset d(2);
  d.Add(TimeSeries::FromValues({1.0}), 0);
  d.Add(TimeSeries::FromValues({2.0}), 1);
  const ValidationReport report = ValidateDataset(d);
  EXPECT_TRUE(report.HasFatal());
  EXPECT_EQ(report.FirstFatal().code(), StatusCode::kDegenerateInput);
}

TEST(ValidateDataset, ShortSeriesAmongLongerOnesIsRepairable) {
  Dataset d = Healthy();
  d.Add(TimeSeries::FromChannels({{7.0}, {8.0}}), 0);
  const ValidationReport report = ValidateDataset(d);
  EXPECT_FALSE(report.HasFatal());
  EXPECT_TRUE(report.NeedsRepair());
}

TEST(ValidateDataset, DeadChannelIsRepairableUnlessAllDead) {
  Dataset d(2);
  d.Add(TimeSeries::FromChannels({{kNan, kNan}, {1, 2}}), 0);
  d.Add(TimeSeries::FromChannels({{kNan, kNan}, {2, 3}}), 1);
  const ValidationReport report = ValidateDataset(d);
  EXPECT_FALSE(report.HasFatal());
  EXPECT_TRUE(report.NeedsRepair());
}

TEST(ValidateDataset, EmptyClassIsANote) {
  Dataset d(3);  // class 2 stays empty
  d.Add(TimeSeries::FromValues({0, 1, 2}), 0);
  d.Add(TimeSeries::FromValues({1, 2, 3}), 1);

  const ValidationReport tolerant = ValidateDataset(d);
  EXPECT_FALSE(tolerant.HasFatal());
  bool found_note = false;
  for (const Diagnosis& finding : tolerant.findings) {
    if (finding.status.code() == StatusCode::kEmptyClass) {
      EXPECT_EQ(finding.severity, Severity::kNote);
      found_note = true;
    }
  }
  EXPECT_TRUE(found_note);
}

TEST(ValidateDataset, SingletonClassAndConstantChannelAreNotes) {
  Dataset d(2);
  d.Add(TimeSeries::FromChannels({{5, 5, 5}, {0, 1, 2}}), 0);
  d.Add(TimeSeries::FromChannels({{5, 5, 5}, {1, 2, 3}}), 0);
  d.Add(TimeSeries::FromChannels({{5, 5, 5}, {2, 3, 4}}), 1);
  const ValidationReport report = ValidateDataset(d);
  EXPECT_FALSE(report.HasFatal());
  EXPECT_FALSE(report.NeedsRepair());
  EXPECT_FALSE(report.ok());  // notes recorded, nothing blocking
}

TEST(TryRepairTrainTest, HealthyPairComesBackBitIdentical) {
  const Dataset train = Healthy();
  const Dataset test = Healthy();
  const StatusOr<RepairOutcome> repaired =
      TryRepairTrainTest(train, test, ValidateOptions{}, 7);
  ASSERT_TRUE(repaired.ok());
  EXPECT_FALSE(repaired->repaired);
  EXPECT_EQ(repaired->dropped_channels, 0);
  EXPECT_EQ(repaired->imputed_channels, 0);
  EXPECT_EQ(repaired->resampled_series, 0);
  EXPECT_TRUE(DatasetsBitIdentical(repaired->train, train));
  EXPECT_TRUE(DatasetsBitIdentical(repaired->test, test));
}

TEST(TryRepairTrainTest, FatalTrainSurfacesTypedWithContext) {
  const StatusOr<RepairOutcome> repaired =
      TryRepairTrainTest(Dataset(2), Healthy(), ValidateOptions{}, 7);
  ASSERT_FALSE(repaired.ok());
  EXPECT_EQ(repaired.status().code(), StatusCode::kDegenerateInput);
  EXPECT_NE(repaired.status().ToString().find("repair(train)"),
            std::string::npos);
}

TEST(TryRepairTrainTest, FatalTestSurfacesTypedWithContext) {
  const StatusOr<RepairOutcome> repaired =
      TryRepairTrainTest(Healthy(), Dataset(2), ValidateOptions{}, 7);
  ASSERT_FALSE(repaired.ok());
  EXPECT_NE(repaired.status().ToString().find("repair(test)"),
            std::string::npos);
}

TEST(TryRepairTrainTest, DropsTrainDeadChannelFromBothSplits) {
  Dataset train(2);
  train.Add(TimeSeries::FromChannels({{kNan, kNan}, {1, 2}}), 0);
  train.Add(TimeSeries::FromChannels({{kNan, kNan}, {2, 3}}), 1);
  Dataset test(2);
  // The channel is alive in test — it is still dropped: the model never
  // observed it in training.
  test.Add(TimeSeries::FromChannels({{9, 9}, {1, 2}}), 0);
  test.Add(TimeSeries::FromChannels({{9, 9}, {2, 3}}), 1);

  const StatusOr<RepairOutcome> repaired =
      TryRepairTrainTest(train, test, ValidateOptions{}, 7);
  ASSERT_TRUE(repaired.ok());
  EXPECT_TRUE(repaired->repaired);
  EXPECT_EQ(repaired->dropped_channels, 1);
  ASSERT_EQ(repaired->train.size(), 2);
  EXPECT_EQ(repaired->train.series(0).num_channels(), 1);
  EXPECT_EQ(repaired->test.series(0).num_channels(), 1);
  // The surviving channel is the original channel 1, untouched.
  EXPECT_DOUBLE_EQ(repaired->train.series(0).at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(repaired->test.series(1).at(0, 1), 3.0);
}

TEST(TryRepairTrainTest, ImputesPerInstanceDeadChannelToTrainMean) {
  Dataset train(2);
  train.Add(TimeSeries::FromChannels({{kNan, kNan}, {1, 2}}), 0);
  train.Add(TimeSeries::FromChannels({{10, 10}, {2, 3}}), 1);
  const Dataset test = train;

  const StatusOr<RepairOutcome> repaired =
      TryRepairTrainTest(train, test, ValidateOptions{}, 7);
  ASSERT_TRUE(repaired.ok());
  EXPECT_TRUE(repaired->repaired);
  EXPECT_EQ(repaired->dropped_channels, 0);
  EXPECT_EQ(repaired->imputed_channels, 2);  // train instance + test copy
  // Channel 0 is observed only as 10.0, so the imputed values anchor
  // there, with jitter far below signal scale.
  for (int t = 0; t < 2; ++t) {
    EXPECT_NEAR(repaired->train.series(0).at(0, t), 10.0, 0.05);
    EXPECT_FALSE(std::isnan(repaired->test.series(0).at(0, t)));
  }
  // The imputed channel must not come back exactly constant.
  EXPECT_NE(repaired->train.series(0).at(0, 0),
            repaired->train.series(0).at(0, 1));
}

TEST(TryRepairTrainTest, ResamplesBelowFloorSeries) {
  Dataset train = Healthy();
  train.Add(TimeSeries::FromChannels({{7.0}, {8.0}}), 0);
  const StatusOr<RepairOutcome> repaired =
      TryRepairTrainTest(train, Healthy(), ValidateOptions{}, 7);
  ASSERT_TRUE(repaired.ok());
  EXPECT_TRUE(repaired->repaired);
  EXPECT_EQ(repaired->resampled_series, 1);
  EXPECT_EQ(repaired->train.series(4).length(), 2);
  EXPECT_DOUBLE_EQ(repaired->train.series(4).at(0, 0), 7.0);
  EXPECT_DOUBLE_EQ(repaired->train.series(4).at(0, 1), 7.0);
}

TEST(TryRepairTrainTest, DeterministicInSeedAcrossCalls) {
  Dataset train(2);
  train.Add(TimeSeries::FromChannels({{kNan, kNan}, {1, 2}}), 0);
  train.Add(TimeSeries::FromChannels({{10, 10}, {2, 3}}), 1);
  const Dataset test = train;

  const StatusOr<RepairOutcome> a =
      TryRepairTrainTest(train, test, ValidateOptions{}, 42);
  const StatusOr<RepairOutcome> b =
      TryRepairTrainTest(train, test, ValidateOptions{}, 42);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(DatasetsBitIdentical(a->train, b->train));
  EXPECT_TRUE(DatasetsBitIdentical(a->test, b->test));

  // A different seed draws different jitter for the imputed channel.
  const StatusOr<RepairOutcome> c =
      TryRepairTrainTest(train, test, ValidateOptions{}, 43);
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(DatasetsBitIdentical(a->train, c->train));
}

}  // namespace
}  // namespace tsaug::core
