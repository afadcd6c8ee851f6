// Tests for the generative branch: Gaussian and autoregressive samplers.
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "augment/generative.h"
#include "data/synthetic.h"

namespace tsaug::augment {
namespace {

core::Dataset ClassData(std::uint64_t seed = 1) {
  data::SyntheticSpec spec;
  spec.num_classes = 2;
  spec.train_counts = {25, 10};
  spec.test_counts = {2, 2};
  spec.num_channels = 2;
  spec.length = 24;
  spec.seed = seed;
  return data::MakeSynthetic(spec).train;
}

TEST(GaussianGenerator, MatchesClassMeanAndSpread) {
  core::Dataset train = ClassData();
  GaussianGenerator generator;
  core::Rng rng(2);
  const auto generated = generator.TryGenerate(train, 0, 400, rng).value();
  ASSERT_EQ(generated.size(), 400u);

  // Compare the generated mean to the class mean, coordinatewise.
  const auto by_class = train.IndicesByClass();
  std::vector<double> class_mean(48, 0.0);
  for (int i : by_class[0]) {
    const auto& values = train.series(i).values();
    for (size_t d = 0; d < values.size(); ++d) {
      class_mean[d] += values[d] / static_cast<double>(by_class[0].size());
    }
  }
  std::vector<double> generated_mean(48, 0.0);
  for (const core::TimeSeries& s : generated) {
    for (size_t d = 0; d < 48; ++d) {
      generated_mean[d] += s.values()[d] / static_cast<double>(generated.size());
    }
  }
  double max_diff = 0.0;
  for (size_t d = 0; d < 48; ++d) {
    max_diff = std::max(max_diff, std::fabs(class_mean[d] - generated_mean[d]));
  }
  EXPECT_LT(max_diff, 0.5);
}

TEST(GaussianGenerator, SamplesVary) {
  core::Dataset train = ClassData(3);
  GaussianGenerator generator;
  core::Rng rng(4);
  const auto generated = generator.TryGenerate(train, 1, 2, rng).value();
  EXPECT_NE(generated[0], generated[1]);
}

TEST(FitAutoregressive, RecoversAr1Coefficient) {
  core::Rng rng(5);
  const double phi = 0.7;
  std::vector<double> signal(20000);
  double state = 0.0;
  for (double& v : signal) {
    state = phi * state + rng.Normal(0.0, 1.0);
    v = state;
  }
  double innovation = 0.0;
  const std::vector<double> fitted =
      FitAutoregressive(signal, 1, &innovation).value();
  ASSERT_EQ(fitted.size(), 1u);
  EXPECT_NEAR(fitted[0], phi, 0.03);
  EXPECT_NEAR(innovation, 1.0, 0.1);
}

TEST(FitAutoregressive, RecoversAr2Coefficients) {
  core::Rng rng(6);
  const double phi1 = 0.5;
  const double phi2 = -0.3;
  std::vector<double> signal(40000, 0.0);
  for (size_t t = 2; t < signal.size(); ++t) {
    signal[t] = phi1 * signal[t - 1] + phi2 * signal[t - 2] + rng.Normal();
  }
  const std::vector<double> fitted =
      FitAutoregressive(signal, 2, nullptr).value();
  EXPECT_NEAR(fitted[0], phi1, 0.03);
  EXPECT_NEAR(fitted[1], phi2, 0.03);
}

TEST(FitAutoregressive, FlatSignalZeroCoefficients) {
  std::vector<double> flat(100, 0.0);
  double innovation = 1.0;
  const std::vector<double> fitted =
      FitAutoregressive(flat, 2, &innovation).value();
  EXPECT_DOUBLE_EQ(fitted[0], 0.0);
  EXPECT_DOUBLE_EQ(innovation, 0.0);
}

TEST(FitAutoregressive, NanSignalIsSingular) {
  std::vector<double> signal(40, 0.5);
  signal[7] = std::numeric_limits<double>::quiet_NaN();
  const core::StatusOr<std::vector<double>> fitted =
      FitAutoregressive(signal, 2, nullptr);
  ASSERT_FALSE(fitted.ok());
  EXPECT_EQ(fitted.status().code(), core::StatusCode::kSingular);
}

TEST(ArGenerator, TracksClassMeanCurve) {
  core::Dataset train = ClassData(7);
  ArGenerator generator(2);
  core::Rng rng(8);
  const auto generated = generator.TryGenerate(train, 0, 200, rng).value();
  ASSERT_EQ(generated.size(), 200u);

  const auto by_class = train.IndicesByClass();
  double class_mean_at = 0.0;
  for (int i : by_class[0]) {
    class_mean_at += train.series(i).at(0, 10) / static_cast<double>(by_class[0].size());
  }
  double generated_mean_at = 0.0;
  for (const core::TimeSeries& s : generated) {
    generated_mean_at += s.at(0, 10) / static_cast<double>(generated.size());
  }
  EXPECT_NEAR(generated_mean_at, class_mean_at, 0.4);
}

TEST(ArGenerator, ShapesMatchDataset) {
  core::Dataset train = ClassData(9);
  ArGenerator generator;
  core::Rng rng(10);
  const auto generated = generator.TryGenerate(train, 1, 3, rng).value();
  for (const core::TimeSeries& s : generated) {
    EXPECT_EQ(s.num_channels(), 2);
    EXPECT_EQ(s.length(), 24);
    for (double v : s.values()) EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(ArGenerator, InfiniteSampleFailsTyped) {
  core::Dataset train = ClassData(11);
  core::TimeSeries poisoned = train.series(train.IndicesByClass()[1][0]);
  poisoned.at(0, 3) = std::numeric_limits<double>::infinity();
  train.Add(std::move(poisoned), 1);
  ArGenerator generator;
  core::Rng rng(12);
  const core::StatusOr<std::vector<core::TimeSeries>> generated =
      generator.TryGenerate(train, 1, 3, rng);
  ASSERT_FALSE(generated.ok());
  EXPECT_EQ(generated.status().code(), core::StatusCode::kSingular);
}

}  // namespace
}  // namespace tsaug::augment
