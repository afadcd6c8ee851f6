// Tests for the oversampling branch (SMOTE family) and the balancing
// protocol of the paper.
#include <cmath>

#include <gtest/gtest.h>

#include "augment/noise.h"
#include "augment/oversample.h"
#include "core/stats.h"
#include "data/synthetic.h"
#include "linalg/distance.h"
#include "linalg/matrix.h"

namespace tsaug::augment {
namespace {

core::Dataset ImbalancedData(std::uint64_t seed = 1) {
  data::SyntheticSpec spec;
  spec.num_classes = 3;
  spec.train_counts = {16, 6, 4};
  spec.test_counts = {2, 2, 2};
  spec.num_channels = 2;
  spec.length = 30;
  spec.seed = seed;
  return data::MakeSynthetic(spec).train;
}

TEST(Smote, GeneratesRequestedCount) {
  core::Dataset train = ImbalancedData();
  Smote smote;
  core::Rng rng(2);
  const auto generated = smote.TryGenerate(train, 2, 7, rng).value();
  EXPECT_EQ(generated.size(), 7u);
  for (const core::TimeSeries& s : generated) {
    EXPECT_EQ(s.num_channels(), 2);
    EXPECT_EQ(s.length(), 30);
  }
}

TEST(Smote, SyntheticPointsOnSegmentsBetweenClassMembers) {
  // With exactly 2 members, every SMOTE sample lies on the segment between
  // them: distance(a, s) + distance(s, b) == distance(a, b).
  core::Dataset train;
  train.Add(core::TimeSeries::FromChannels({{0, 0, 0, 0}}), 0);
  train.Add(core::TimeSeries::FromChannels({{4, 4, 4, 4}}), 0);
  train.Add(core::TimeSeries::FromChannels({{9, 9, 9, 9}}), 1);
  train.Add(core::TimeSeries::FromChannels({{9, 9, 9, 8}}), 1);
  train.Add(core::TimeSeries::FromChannels({{9, 9, 8, 9}}), 1);

  Smote smote;
  core::Rng rng(3);
  const auto generated = smote.TryGenerate(train, 0, 20, rng).value();
  for (const core::TimeSeries& s : generated) {
    const double a = linalg::EuclideanDistance(s, train.series(0));
    const double b = linalg::EuclideanDistance(s, train.series(1));
    const double ab =
        linalg::EuclideanDistance(train.series(0), train.series(1));
    EXPECT_NEAR(a + b, ab, 1e-9);
  }
}

TEST(Smote, SingletonClassJitterResamples) {
  // A singleton class cannot interpolate; exact duplicates would add no
  // variance (and make downstream covariance solves singular), so the lone
  // member is jitter-resampled: close to the seed but never identical.
  core::Dataset train;
  train.Add(core::TimeSeries::FromChannels({{1, 2, 3}}), 0);
  train.Add(core::TimeSeries::FromChannels({{5, 5, 5}}), 1);
  train.Add(core::TimeSeries::FromChannels({{6, 6, 6}}), 1);
  Smote smote;
  core::Rng rng(4);
  const auto generated = smote.TryGenerate(train, 0, 3, rng).value();
  ASSERT_EQ(generated.size(), 3u);
  const double scale = linalg::Norm(train.series(0).Flatten());
  for (const core::TimeSeries& s : generated) {
    const double d = linalg::EuclideanDistance(s, train.series(0));
    EXPECT_GT(d, 0.0);          // not a duplicate...
    EXPECT_LT(d, 0.5 * scale);  // ...but still close to the seed
  }
}

TEST(Smote, UsesPaperNeighborRule) {
  // k = min(5, class_size - 1): with 3 members, synthetic samples only mix
  // pairs, never leave the convex hull of the class.
  core::Dataset train;
  train.Add(core::TimeSeries::FromChannels({{0.0, 0.0}}), 0);
  train.Add(core::TimeSeries::FromChannels({{1.0, 0.0}}), 0);
  train.Add(core::TimeSeries::FromChannels({{0.0, 1.0}}), 0);
  train.Add(core::TimeSeries::FromChannels({{10.0, 10.0}}), 1);
  Smote smote(5);
  core::Rng rng(5);
  const auto generated = smote.TryGenerate(train, 0, 30, rng).value();
  for (const core::TimeSeries& s : generated) {
    EXPECT_LE(s.at(0, 0), 1.0 + 1e-9);
    EXPECT_LE(s.at(0, 1), 1.0 + 1e-9);
    EXPECT_GE(s.at(0, 0), -1e-9);
    EXPECT_GE(s.at(0, 1), -1e-9);
  }
}

TEST(BorderlineSmote, GeneratesFromDangerRegion) {
  core::Dataset train = ImbalancedData(7);
  BorderlineSmote borderline;
  core::Rng rng(8);
  const auto generated = borderline.TryGenerate(train, 2, 10, rng).value();
  EXPECT_EQ(generated.size(), 10u);
}

TEST(Adasyn, GeneratesRequestedCount) {
  core::Dataset train = ImbalancedData(9);
  Adasyn adasyn;
  core::Rng rng(10);
  EXPECT_EQ(adasyn.TryGenerate(train, 1, 12, rng).value().size(), 12u);
}

TEST(RandomInterpolation, StaysWithinClassHullCoordinatewiseForPairs) {
  core::Dataset train;
  train.Add(core::TimeSeries::FromChannels({{0, 0}}), 0);
  train.Add(core::TimeSeries::FromChannels({{2, 2}}), 0);
  train.Add(core::TimeSeries::FromChannels({{5, 5}}), 1);
  RandomInterpolation interp;
  core::Rng rng(11);
  const auto generated = interp.TryGenerate(train, 0, 20, rng).value();
  for (const core::TimeSeries& s : generated) {
    EXPECT_GE(s.at(0, 0), -1e-9);
    EXPECT_LE(s.at(0, 0), 2.0 + 1e-9);
  }
}

TEST(RandomOversampling, DuplicatesClassMembers) {
  core::Dataset train = ImbalancedData(12);
  RandomOversampling ros;
  core::Rng rng(13);
  const auto generated = ros.TryGenerate(train, 1, 5, rng).value();
  for (const core::TimeSeries& s : generated) {
    bool found = false;
    for (int i = 0; i < train.size(); ++i) {
      if (train.label(i) == 1 && train.series(i) == s) found = true;
    }
    EXPECT_TRUE(found);
  }
}

TEST(TryBalanceWithAugmenter, PerfectlyBalances) {
  core::Dataset train = ImbalancedData(14);
  Smote smote;
  core::Rng rng(15);
  const core::Dataset balanced =
      TryBalanceWithAugmenter(train, smote, rng).value();
  const std::vector<int> counts = balanced.ClassCounts();
  EXPECT_EQ(counts, (std::vector<int>{16, 16, 16}));
  EXPECT_DOUBLE_EQ(core::ImbalanceDegree(balanced), 0.0);
  // Originals retained verbatim.
  for (int i = 0; i < train.size(); ++i) {
    EXPECT_EQ(balanced.series(i), train.series(i));
    EXPECT_EQ(balanced.label(i), train.label(i));
  }
}

TEST(TryBalanceWithAugmenter, NoopOnBalancedData) {
  core::Dataset train;
  for (int i = 0; i < 4; ++i) {
    train.Add(core::TimeSeries::FromChannels({{1.0 * i, 2.0}}), i % 2);
  }
  NoiseInjection noise(1.0);
  core::Rng rng(16);
  EXPECT_EQ(TryBalanceWithAugmenter(train, noise, rng).value().size(), 4);
}

TEST(TryExpandWithAugmenter, AddsFactorTimesCounts) {
  core::Dataset train = ImbalancedData(17);
  NoiseInjection noise(1.0);
  core::Rng rng(18);
  const core::Dataset expanded =
      TryExpandWithAugmenter(train, noise, 1.0, rng).value();
  EXPECT_EQ(expanded.size(), 2 * train.size());
  EXPECT_EQ(expanded.ClassCounts(), (std::vector<int>{32, 12, 8}));
}

}  // namespace
}  // namespace tsaug::augment
