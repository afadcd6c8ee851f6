#include "core/dataset.h"

#include <gtest/gtest.h>

namespace tsaug::core {
namespace {

TimeSeries Series(double value) {
  return TimeSeries::FromChannels({{value, value + 1, value + 2}});
}

Dataset MakeImbalanced() {
  Dataset data;
  for (int i = 0; i < 6; ++i) data.Add(Series(i), 0);
  for (int i = 0; i < 2; ++i) data.Add(Series(10 + i), 1);
  for (int i = 0; i < 4; ++i) data.Add(Series(20 + i), 2);
  return data;
}

TEST(Dataset, AddTracksClasses) {
  Dataset data = MakeImbalanced();
  EXPECT_EQ(data.size(), 12);
  EXPECT_EQ(data.num_classes(), 3);
  EXPECT_EQ(data.ClassCounts(), (std::vector<int>{6, 2, 4}));
}

TEST(Dataset, Majority) {
  Dataset data = MakeImbalanced();
  EXPECT_EQ(data.MajorityClass(), 0);
}

TEST(Dataset, IndicesByClassPartition) {
  Dataset data = MakeImbalanced();
  const auto by_class = data.IndicesByClass();
  ASSERT_EQ(by_class.size(), 3u);
  int total = 0;
  for (const auto& members : by_class) total += static_cast<int>(members.size());
  EXPECT_EQ(total, data.size());
  for (int i : by_class[1]) EXPECT_EQ(data.label(i), 1);
}

TEST(Dataset, SubsetPreservesOrder) {
  Dataset data = MakeImbalanced();
  Dataset subset = data.Subset({3, 0, 7});
  ASSERT_EQ(subset.size(), 3);
  EXPECT_EQ(subset.series(0), data.series(3));
  EXPECT_EQ(subset.series(1), data.series(0));
  EXPECT_EQ(subset.label(2), data.label(7));
}

TEST(Dataset, StratifiedSplitKeepsProportions) {
  Dataset data;
  for (int i = 0; i < 30; ++i) data.Add(Series(i), 0);
  for (int i = 0; i < 12; ++i) data.Add(Series(100 + i), 1);
  Rng rng(7);
  const auto [train, val] = data.StratifiedSplit(2.0 / 3.0, rng);
  EXPECT_EQ(train.size() + val.size(), data.size());
  EXPECT_EQ(train.ClassCounts()[0], 20);
  EXPECT_EQ(train.ClassCounts()[1], 8);
  EXPECT_EQ(val.ClassCounts()[0], 10);
  EXPECT_EQ(val.ClassCounts()[1], 4);
}

TEST(Dataset, StratifiedSplitNeverEmptiesSmallClass) {
  Dataset data;
  data.Add(Series(0), 0);
  data.Add(Series(1), 0);
  data.Add(Series(2), 1);
  data.Add(Series(3), 1);
  Rng rng(3);
  const auto [big, small] = data.StratifiedSplit(0.99, rng);
  EXPECT_EQ(small.ClassCounts()[0], 1);
  EXPECT_EQ(small.ClassCounts()[1], 1);
}

TEST(Dataset, VariableLengthHelpers) {
  Dataset data;
  data.Add(TimeSeries(2, 5), 0);
  data.Add(TimeSeries(2, 9), 0);
  EXPECT_EQ(data.max_length(), 9);
  EXPECT_EQ(data.min_length(), 5);
  EXPECT_FALSE(data.IsRectangular());
  EXPECT_EQ(data.num_channels(), 2);
}

}  // namespace
}  // namespace tsaug::core
