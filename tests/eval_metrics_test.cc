#include "eval/metrics.h"

#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace tsaug::eval {
namespace {

TEST(PearsonCorrelation, PerfectLinearRelations) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3, 4}, {2, 4, 6, 8}), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3, 4}, {8, 6, 4, 2}), -1.0, 1e-12);
}

TEST(PearsonCorrelation, ConstantSampleIsZero) {
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1, 1, 1}, {1, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(PearsonCorrelation({5}, {3}), 0.0);
}

TEST(PearsonCorrelation, UncorrelatedNearZero) {
  // Orthogonal patterns.
  EXPECT_NEAR(PearsonCorrelation({1, -1, 1, -1}, {1, 1, -1, -1}), 0.0, 1e-12);
}

TEST(SpearmanCorrelation, MonotoneNonlinearIsOne) {
  // Exponential growth: Pearson < 1 but Spearman exactly 1.
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {1, 10, 100, 1000, 10000};
  EXPECT_LT(PearsonCorrelation(x, y), 0.95);
  EXPECT_NEAR(SpearmanCorrelation(x, y), 1.0, 1e-12);
}

TEST(SpearmanCorrelation, HandlesTiesWithAverageRanks) {
  // Ties in x: average ranks keep the statistic defined and symmetric.
  const double rho = SpearmanCorrelation({1, 1, 2, 3}, {1, 2, 3, 4});
  EXPECT_GT(rho, 0.8);
  EXPECT_LE(rho, 1.0);
}

// Scores coming from failed cells can be NaN or infinite; the correlation
// statistics skip those pairs instead of poisoning the whole summary.
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(PearsonCorrelation, SkipsNonFinitePairs) {
  // The NaN/inf pairs removed, the rest is a perfect linear relation.
  const std::vector<double> x = {1, kNan, 2, 3, kInf, 4};
  const std::vector<double> y = {2, 5, 4, 6, 7, 8};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  // A non-finite value on either side drops the pair.
  const std::vector<double> x2 = {1, 2, 3, 4};
  const std::vector<double> y2 = {2, kNan, 6, -kInf};
  EXPECT_NEAR(PearsonCorrelation(x2, y2), 1.0, 1e-12);
}

TEST(PearsonCorrelation, AllNonFiniteIsZero) {
  EXPECT_DOUBLE_EQ(PearsonCorrelation({kNan, kNan}, {1, 2}), 0.0);
  // Fewer than two finite pairs: the statistic is undefined, report 0.
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1, kNan}, {1, 2}), 0.0);
}

TEST(SpearmanCorrelation, SkipsNonFinitePairs) {
  // Monotone once the poisoned pairs are gone; a NaN rank would otherwise
  // depend on comparison order.
  const std::vector<double> x = {1, kNan, 2, 3, 4};
  const std::vector<double> y = {1, 3, 10, 100, 1000};
  EXPECT_NEAR(SpearmanCorrelation(x, y), 1.0, 1e-12);
}

TEST(SpearmanCorrelation, AllNonFiniteIsZero) {
  EXPECT_DOUBLE_EQ(SpearmanCorrelation({kNan, kInf}, {1, 2}), 0.0);
}

}  // namespace
}  // namespace tsaug::eval
