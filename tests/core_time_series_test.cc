#include "core/time_series.h"

#include <cmath>

#include <gtest/gtest.h>

namespace tsaug::core {
namespace {

TEST(TimeSeries, ConstructsWithFill) {
  TimeSeries s(3, 5, 2.5);
  EXPECT_EQ(s.num_channels(), 3);
  EXPECT_EQ(s.length(), 5);
  for (int c = 0; c < 3; ++c) {
    for (int t = 0; t < 5; ++t) EXPECT_DOUBLE_EQ(s.at(c, t), 2.5);
  }
}

TEST(TimeSeries, FromChannelsRoundTrips) {
  TimeSeries s = TimeSeries::FromChannels({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(s.num_channels(), 2);
  EXPECT_EQ(s.length(), 3);
  EXPECT_DOUBLE_EQ(s.at(0, 0), 1);
  EXPECT_DOUBLE_EQ(s.at(1, 2), 6);
}

TEST(TimeSeries, FromValuesIsUnivariate) {
  TimeSeries s = TimeSeries::FromValues({7, 8, 9});
  EXPECT_EQ(s.num_channels(), 1);
  EXPECT_EQ(s.length(), 3);
  EXPECT_DOUBLE_EQ(s.at(0, 1), 8);
}

TEST(TimeSeries, ChannelSpanIsMutable) {
  TimeSeries s(2, 4);
  auto channel = s.channel(1);
  channel[2] = 42.0;
  EXPECT_DOUBLE_EQ(s.at(1, 2), 42.0);
  EXPECT_DOUBLE_EQ(s.at(0, 2), 0.0);
}

TEST(TimeSeries, FlattenAndFromFlatAreInverse) {
  TimeSeries s = TimeSeries::FromChannels({{1, 2}, {3, 4}, {5, 6}});
  const std::vector<double> flat = s.Flatten();
  EXPECT_EQ(flat.size(), 6u);
  TimeSeries back = TimeSeries::FromFlat(flat, 3, 2);
  EXPECT_EQ(back, s);
}

TEST(TimeSeries, FlattenIsChannelMajor) {
  TimeSeries s = TimeSeries::FromChannels({{1, 2}, {3, 4}});
  EXPECT_EQ(s.Flatten(), (std::vector<double>{1, 2, 3, 4}));
}

TEST(TimeSeries, MissingDetection) {
  TimeSeries s = TimeSeries::FromChannels({{1, std::nan(""), 3}});
  EXPECT_EQ(s.CountMissing(), 1);
  TimeSeries clean = TimeSeries::FromChannels({{1, 2, 3}});
  EXPECT_EQ(clean.CountMissing(), 0);
}

TEST(TimeSeries, ChannelStatsIgnoreNaN) {
  TimeSeries s = TimeSeries::FromChannels({{2, std::nan(""), 4}});
  EXPECT_DOUBLE_EQ(s.ChannelMean(0), 3.0);
  EXPECT_DOUBLE_EQ(s.ChannelStdDev(0), 1.0);
}

TEST(TimeSeries, EmptySeries) {
  TimeSeries s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.num_channels(), 0);
  EXPECT_EQ(s.length(), 0);
}

}  // namespace
}  // namespace tsaug::core
