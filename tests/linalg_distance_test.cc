#include "linalg/distance.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/kernels/kernels.h"
#include "core/rng.h"
#include "linalg/knn.h"

namespace tsaug::linalg {
namespace {

using core::TimeSeries;

TEST(EuclideanDistance, Vectors) {
  const std::vector<double> a = {0.0, 0.0};
  const std::vector<double> b = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(EuclideanDistance(a, b), 5.0);
}

TEST(EuclideanDistance, MultivariateSeries) {
  TimeSeries a = TimeSeries::FromChannels({{0, 0}, {0, 0}});
  TimeSeries b = TimeSeries::FromChannels({{1, 1}, {1, 1}});
  EXPECT_DOUBLE_EQ(EuclideanDistance(a, b), 2.0);
}

TEST(EuclideanDistance, ResamplesDifferentLengths) {
  TimeSeries a = TimeSeries::FromValues({0, 1, 2, 3});
  TimeSeries b = TimeSeries::FromValues({0, 3});  // resampled -> {0,1,2,3}
  EXPECT_NEAR(EuclideanDistance(a, b), 0.0, 1e-12);
}

TEST(EuclideanDistance, NanCoordinatesAreSkipped) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> a = {0.0, nan, 0.0};
  const std::vector<double> b = {3.0, 7.5, 4.0};
  // The NaN coordinate contributes nothing; the rest is a 3-4-5 triangle.
  EXPECT_DOUBLE_EQ(EuclideanDistance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(EuclideanDistance(b, a), 5.0);
}

TEST(EuclideanDistance, AllNanIsZeroNotNan) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> a = {nan, nan};
  const std::vector<double> b = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(EuclideanDistance(a, b), 0.0);
}

TEST(EuclideanDistance, CleanPathBitsUnchangedByNanSupport) {
  // NaN-free inputs must keep the backend kernel's exact result — the
  // NaN-safe branch only fires when a NaN is actually present.
  const std::vector<double> a = {0.25, -1.5, 3.125, 0.0625};
  const std::vector<double> b = {1.25, 0.5, -0.875, 0.0625};
  double expected = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    expected += d * d;
  }
  EXPECT_EQ(EuclideanDistance(a, b), std::sqrt(expected));
}

TEST(KNearestNeighbors, NanPointsKeepOrderingValid) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // A NaN-poisoned distance would break partial_sort's strict weak
  // ordering (UB); with NaN-skipping distances every comparison is finite.
  std::vector<std::vector<double>> points = {
      {0, 0}, {1, nan}, {5, 5}, {nan, nan}};
  const auto nn = KNearestNeighbors(points, {0, 0}, 3, /*exclude=*/0);
  ASSERT_EQ(nn.size(), 3u);
  // {nan,nan} has distance 0 (every coordinate skipped), {1,nan} distance 1.
  EXPECT_EQ(nn[0], 3);
  EXPECT_EQ(nn[1], 1);
  EXPECT_EQ(nn[2], 2);
}

TEST(DtwDistance, NanStepsContributeNothing) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  TimeSeries a = TimeSeries::FromValues({1, nan, 3, 2, 1});
  TimeSeries clean = TimeSeries::FromValues({1, 2, 3, 2, 1});
  const double d = DtwDistance(a, clean);
  EXPECT_TRUE(std::isfinite(d));
  // Identical except for the masked step, whose cost is dropped; DTW can
  // also warp around it, so the distance stays at zero.
  EXPECT_DOUBLE_EQ(d, 0.0);
  // Symmetric in which operand carries the NaN.
  EXPECT_DOUBLE_EQ(DtwDistance(clean, a), d);
}

TEST(DtwDistance, NanBandRowsMatchScalarReference) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  TimeSeries a = TimeSeries::FromChannels({{0, nan, 2, 3}, {1, 1, nan, 1}});
  TimeSeries b = TimeSeries::FromChannels({{0, 1, 2, 4}, {1, 1, 1, 1}});
  const double d = DtwDistance(a, b);
  EXPECT_TRUE(std::isfinite(d));
  EXPECT_GE(d, 0.0);
  // A fully-banded run must agree with the unconstrained one when the band
  // covers the whole matrix.
  EXPECT_DOUBLE_EQ(DtwDistance(a, b, /*window=*/10), d);
}

TEST(DtwPath, NanSeriesStillYieldsMonotonePath) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  TimeSeries a = TimeSeries::FromValues({0, nan, 2, 3});
  TimeSeries b = TimeSeries::FromValues({0, 1, 3});
  const auto path = DtwPath(a, b);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front(), (std::pair<int, int>{0, 0}));
  EXPECT_EQ(path.back(), (std::pair<int, int>{3, 2}));
}

TEST(DtwDistance, EqualSeriesIsZero) {
  TimeSeries a = TimeSeries::FromValues({1, 2, 3, 2, 1});
  EXPECT_DOUBLE_EQ(DtwDistance(a, a), 0.0);
}

TEST(DtwDistance, AtMostEuclideanForEqualLength) {
  TimeSeries a = TimeSeries::FromValues({0, 1, 2, 3, 4});
  TimeSeries b = TimeSeries::FromValues({0, 2, 2, 2, 4});
  EXPECT_LE(DtwDistance(a, b), EuclideanDistance(a, b) + 1e-12);
}

TEST(DtwDistance, InvariantToSmallShift) {
  // A shifted bump is far in Euclidean terms but near-zero for DTW.
  std::vector<double> base(20, 0.0);
  std::vector<double> shifted(20, 0.0);
  for (int i = 5; i < 10; ++i) base[static_cast<size_t>(i)] = 1.0;
  for (int i = 7; i < 12; ++i) shifted[static_cast<size_t>(i)] = 1.0;
  TimeSeries a = TimeSeries::FromValues(base);
  TimeSeries b = TimeSeries::FromValues(shifted);
  EXPECT_LT(DtwDistance(a, b), 0.25 * EuclideanDistance(a, b));
}

TEST(DtwDistance, BandConstraintIncreasesCost) {
  std::vector<double> base(16, 0.0);
  std::vector<double> shifted(16, 0.0);
  for (int i = 2; i < 6; ++i) base[static_cast<size_t>(i)] = 1.0;
  for (int i = 8; i < 12; ++i) shifted[static_cast<size_t>(i)] = 1.0;
  TimeSeries a = TimeSeries::FromValues(base);
  TimeSeries b = TimeSeries::FromValues(shifted);
  EXPECT_LE(DtwDistance(a, b, /*window=*/-1), DtwDistance(a, b, /*window=*/1));
}

/// DtwDistance by its definition in distance.h: the full (n+1) x (m+1)
/// accumulated-cost DP, cells outside the band left at +inf, local cost
/// summed over channels in ascending order.
double NaiveDtw(const TimeSeries& a, const TimeSeries& b, int window) {
  const int n = a.length();
  const int m = b.length();
  const int band = std::max(window, std::abs(n - m));
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> cost(
      static_cast<size_t>(n + 1),
      std::vector<double>(static_cast<size_t>(m + 1), inf));
  cost[0][0] = 0.0;
  for (int i = 1; i <= n; ++i) {
    for (int j = 1; j <= m; ++j) {
      if (window >= 0 && std::abs(i - j) > band) continue;
      double local = 0.0;
      for (int c = 0; c < a.num_channels(); ++c) {
        const double d = a.at(c, i - 1) - b.at(c, j - 1);
        local += d * d;
      }
      const auto ui = static_cast<size_t>(i);
      const auto uj = static_cast<size_t>(j);
      cost[ui][uj] = local + std::min({cost[ui - 1][uj - 1], cost[ui - 1][uj],
                                       cost[ui][uj - 1]});
    }
  }
  return std::sqrt(cost[static_cast<size_t>(n)][static_cast<size_t>(m)]);
}

TEST(DtwDistance, MatchesNaiveBandedDpBitForBit) {
  const core::kernels::Backend saved = core::kernels::ActiveBackend();
  std::vector<core::kernels::Backend> backends = {
      core::kernels::Backend::kScalar};
  if (core::kernels::SimdAvailable()) {
    backends.push_back(core::kernels::Backend::kSimd);
  }
  core::Rng rng(41);
  for (int channels : {1, 3}) {
    for (int n = 1; n <= 40; ++n) {
      // Equal lengths plus a shorter and a longer partner.
      for (int m : {n, std::max(1, n / 2), n + 3}) {
        TimeSeries a(channels, n);
        TimeSeries b(channels, m);
        for (double& v : a.values()) v = rng.Normal();
        for (double& v : b.values()) v = rng.Normal();
        for (int window : {-1, 0, 1, 3, std::max(n, m) + 1}) {
          const double want = NaiveDtw(a, b, window);
          for (core::kernels::Backend backend : backends) {
            core::kernels::SetBackend(backend);
            const double got = DtwDistance(a, b, window);
            EXPECT_EQ(0, std::memcmp(&got, &want, sizeof(double)))
                << "channels=" << channels << " n=" << n << " m=" << m
                << " window=" << window << " backend="
                << core::kernels::BackendName(backend) << ": " << got
                << " vs " << want;
          }
        }
      }
    }
  }
  core::kernels::SetBackend(saved);
}

TEST(DtwPath, StartsAndEndsAtCorners) {
  TimeSeries a = TimeSeries::FromValues({0, 1, 2});
  TimeSeries b = TimeSeries::FromValues({0, 2});
  const auto path = DtwPath(a, b);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front(), (std::pair<int, int>{0, 0}));
  EXPECT_EQ(path.back(), (std::pair<int, int>{2, 1}));
  // Monotone non-decreasing steps.
  for (size_t i = 1; i < path.size(); ++i) {
    EXPECT_GE(path[i].first, path[i - 1].first);
    EXPECT_GE(path[i].second, path[i - 1].second);
    EXPECT_LE(path[i].first - path[i - 1].first, 1);
    EXPECT_LE(path[i].second - path[i - 1].second, 1);
  }
}

TEST(KNearestNeighbors, FindsClosestPoints) {
  std::vector<std::vector<double>> points = {
      {0, 0}, {1, 0}, {5, 5}, {0.5, 0.1}};
  const auto nn = KNearestNeighbors(points, {0, 0}, 2, /*exclude=*/0);
  ASSERT_EQ(nn.size(), 2u);
  EXPECT_EQ(nn[0], 3);
  EXPECT_EQ(nn[1], 1);
}

TEST(KNearestNeighbors, KLargerThanPool) {
  std::vector<std::vector<double>> points = {{0}, {1}};
  const auto nn = KNearestNeighbors(points, {0}, 10, /*exclude=*/0);
  EXPECT_EQ(nn.size(), 1u);
}

TEST(SharedNearestNeighborSimilarity, ClusterMembersShareNeighbors) {
  // Two tight clusters of 3; within-cluster SNN counts exceed cross-cluster.
  std::vector<std::vector<double>> points = {{0, 0},   {0.1, 0}, {0, 0.1},
                                             {10, 10}, {10.1, 10}, {10, 10.1}};
  const auto snn = SharedNearestNeighborSimilarity(points, 2);
  const int n = 6;
  EXPECT_GT(snn[0 * n + 1], snn[0 * n + 3]);
  EXPECT_EQ(snn[0 * n + 3], 0);
  EXPECT_EQ(snn[1 * n + 0], snn[0 * n + 1]);
}

}  // namespace
}  // namespace tsaug::linalg
