#include "augment/dba.h"

#include <cmath>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "linalg/distance.h"

namespace tsaug::augment {
namespace {

using core::TimeSeries;

TEST(TryDtwBarycenterAverage, SingleMemberIsItself) {
  const TimeSeries s = TimeSeries::FromValues({1, 2, 3, 2, 1});
  const TimeSeries avg = TryDtwBarycenterAverage({s}, {1.0}, s, 3).value();
  for (int t = 0; t < 5; ++t) {
    EXPECT_NEAR(avg.at(0, t), s.at(0, t), 1e-9);
  }
}

TEST(TryDtwBarycenterAverage, IdenticalMembersAverageToThemselves) {
  const TimeSeries s = TimeSeries::FromValues({0, 1, 0, -1, 0});
  const TimeSeries avg =
      TryDtwBarycenterAverage({s, s, s}, {0.3, 0.3, 0.4}, s, 4).value();
  for (int t = 0; t < 5; ++t) EXPECT_NEAR(avg.at(0, t), s.at(0, t), 1e-9);
}

TEST(TryDtwBarycenterAverage, AlignsShiftedBumps) {
  // Two shifted copies of a bump: the DBA average should be closer (in
  // DTW) to both members than their pointwise mean is.
  std::vector<double> a(30, 0.0);
  std::vector<double> b(30, 0.0);
  for (int t = 8; t < 13; ++t) a[static_cast<size_t>(t)] = 1.0;
  for (int t = 16; t < 21; ++t) b[static_cast<size_t>(t)] = 1.0;
  const TimeSeries sa = TimeSeries::FromValues(a);
  const TimeSeries sb = TimeSeries::FromValues(b);

  const TimeSeries dba =
      TryDtwBarycenterAverage({sa, sb}, {0.5, 0.5}, sa, 6).value();

  std::vector<double> mean(30);
  for (int t = 0; t < 30; ++t) mean[static_cast<size_t>(t)] = 0.5 * (a[static_cast<size_t>(t)] + b[static_cast<size_t>(t)]);
  const TimeSeries pointwise = TimeSeries::FromValues(mean);

  const double dba_cost = linalg::DtwDistance(dba, sa) +
                          linalg::DtwDistance(dba, sb);
  const double mean_cost = linalg::DtwDistance(pointwise, sa) +
                           linalg::DtwDistance(pointwise, sb);
  EXPECT_LT(dba_cost, mean_cost);
  // DBA preserves the bump's amplitude (the pointwise mean halves it).
  double peak = 0.0;
  for (int t = 0; t < 30; ++t) peak = std::max(peak, dba.at(0, t));
  EXPECT_GT(peak, 0.75);
}

TEST(DbaAugmenter, GeneratesDatasetShapedSeries) {
  data::SyntheticSpec spec;
  spec.num_classes = 2;
  spec.train_counts = {8, 4};
  spec.test_counts = {2, 2};
  spec.num_channels = 2;
  spec.length = 20;
  spec.seed = 3;
  const core::Dataset train = data::MakeSynthetic(spec).train;
  DbaAugmenter dba;
  core::Rng rng(4);
  const auto generated = dba.TryGenerate(train, 0, 6, rng).value();
  ASSERT_EQ(generated.size(), 6u);
  for (const TimeSeries& s : generated) {
    EXPECT_EQ(s.num_channels(), 2);
    EXPECT_EQ(s.length(), 20);
    for (double v : s.values()) EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(DbaAugmenter, SyntheticStaysNearClass) {
  // The barycenter of class members should be closer (on average) to its
  // own class than to the other class.
  data::SyntheticSpec spec;
  spec.num_classes = 2;
  spec.train_counts = {10, 10};
  spec.test_counts = {2, 2};
  spec.num_channels = 1;
  spec.length = 24;
  spec.class_separation = 1.5;
  spec.seed = 5;
  const core::Dataset train = data::MakeSynthetic(spec).train;
  DbaAugmenter dba;
  core::Rng rng(6);
  const auto generated = dba.TryGenerate(train, 0, 5, rng).value();
  for (const TimeSeries& s : generated) {
    double own = 0.0;
    double other = 0.0;
    int own_count = 0;
    int other_count = 0;
    for (int i = 0; i < train.size(); ++i) {
      const double d = linalg::DtwDistance(s, train.series(i), 4);
      if (train.label(i) == 0) {
        own += d;
        ++own_count;
      } else {
        other += d;
        ++other_count;
      }
    }
    EXPECT_LT(own / own_count, other / other_count);
  }
}

}  // namespace
}  // namespace tsaug::augment
