// Tests for the extended techniques: EMD recombination, the VAE
// augmenter, maximum-entropy bootstrap, DTW-guided warping and INOS.
#include <algorithm>
#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "augment/emd.h"
#include "augment/guided_warp.h"
#include "augment/meboot.h"
#include "augment/vae.h"
#include "data/synthetic.h"
#include "linalg/distance.h"

namespace tsaug::augment {
namespace {

using core::TimeSeries;

std::vector<double> TwoToneSignal(int n) {
  std::vector<double> x(static_cast<size_t>(n));
  for (int t = 0; t < n; ++t) {
    x[static_cast<size_t>(t)] = std::sin(0.8 * t) + 0.3 * std::sin(0.1 * t) + 0.02 * t;
  }
  return x;
}

TEST(EmpiricalModeDecompose, ExactReconstruction) {
  const std::vector<double> signal = TwoToneSignal(80);
  const EmdResult result = EmpiricalModeDecompose(signal);
  ASSERT_FALSE(result.imfs.empty());
  for (size_t t = 0; t < signal.size(); ++t) {
    double sum = result.residual[t];
    for (const auto& imf : result.imfs) sum += imf[t];
    EXPECT_NEAR(sum, signal[t], 1e-9);
  }
}

TEST(EmpiricalModeDecompose, FirstImfIsFastest) {
  // The first IMF captures the fast tone: it should have more zero
  // crossings than the second.
  const EmdResult result = EmpiricalModeDecompose(TwoToneSignal(120));
  ASSERT_GE(result.imfs.size(), 2u);
  auto zero_crossings = [](const std::vector<double>& x) {
    int count = 0;
    for (size_t t = 1; t < x.size(); ++t) {
      if ((x[t - 1] < 0) != (x[t] < 0)) ++count;
    }
    return count;
  };
  EXPECT_GT(zero_crossings(result.imfs[0]), zero_crossings(result.imfs[1]));
}

TEST(EmpiricalModeDecompose, MonotoneSignalHasNoImf) {
  std::vector<double> ramp(30);
  std::iota(ramp.begin(), ramp.end(), 0.0);
  const EmdResult result = EmpiricalModeDecompose(ramp);
  EXPECT_TRUE(result.imfs.empty());
  EXPECT_EQ(result.residual, ramp);
}

TEST(EmdAugmenter, PreservesTrendPerturbsOscillation) {
  TimeSeries s(1, 100);
  for (int t = 0; t < 100; ++t) s.at(0, t) = 0.1 * t + std::sin(0.9 * t);
  core::Rng rng(1);
  const TimeSeries augmented = EmdAugmenter(0.4).Transform(s, rng);
  // Trend preserved: values track 0.1*t within the oscillation amplitude.
  for (int t = 10; t < 90; ++t) {
    EXPECT_NEAR(augmented.at(0, t), 0.1 * t, 3.0);
  }
  // But the series did change.
  EXPECT_GT(linalg::EuclideanDistance(augmented, s), 0.1);
}

TEST(Vae, LearnsToReconstructAndSample) {
  // A tight 1-D manifold in 6-D: x = (a, a, a, -a, -a, 0) + noise.
  core::Rng data_rng(2);
  std::vector<std::vector<double>> instances;
  for (int i = 0; i < 40; ++i) {
    const double a = data_rng.Uniform(-2.0, 2.0);
    instances.push_back({a + data_rng.Normal(0, 0.05),
                         a + data_rng.Normal(0, 0.05),
                         a + data_rng.Normal(0, 0.05),
                         -a + data_rng.Normal(0, 0.05),
                         -a + data_rng.Normal(0, 0.05),
                         data_rng.Normal(0, 0.05)});
  }
  VaeConfig config;
  config.hidden_dim = 16;
  config.latent_dim = 2;
  config.epochs = 400;
  config.seed = 3;
  Vae vae(config);
  ASSERT_TRUE(vae.TryFit(instances).ok());
  EXPECT_LT(vae.final_loss(), 1.0);

  core::Rng rng(4);
  const auto samples = vae.Sample(100, rng);
  ASSERT_EQ(samples.size(), 100u);
  // Samples should respect the manifold: dim0 ~ dim1, dim0 ~ -dim3.
  double corr_01 = 0.0;
  double corr_03 = 0.0;
  for (const auto& s : samples) {
    corr_01 += s[0] * s[1];
    corr_03 += s[0] * s[3];
  }
  EXPECT_GT(corr_01, 0.0);
  EXPECT_LT(corr_03, 0.0);
}

TEST(VaeAugmenter, GeneratesDatasetShapedSeries) {
  data::SyntheticSpec spec;
  spec.num_classes = 2;
  spec.train_counts = {10, 5};
  spec.test_counts = {2, 2};
  spec.num_channels = 2;
  spec.length = 16;
  spec.seed = 5;
  const core::Dataset train = data::MakeSynthetic(spec).train;
  VaeConfig config;
  config.epochs = 50;
  VaeAugmenter augmenter(config);
  core::Rng rng(6);
  const auto generated = augmenter.TryGenerate(train, 1, 4, rng).value();
  ASSERT_EQ(generated.size(), 4u);
  for (const TimeSeries& s : generated) {
    EXPECT_EQ(s.num_channels(), 2);
    EXPECT_EQ(s.length(), 16);
  }
}

TEST(MaximumEntropyBootstrap, PreservesRankOrder) {
  TimeSeries s = TimeSeries::FromChannels({{5, 1, 4, 2, 3}});
  core::Rng rng(7);
  const TimeSeries replicate = MaximumEntropyBootstrap().Transform(s, rng);
  // Original ordering: position 0 is the max, position 1 the min, etc.
  std::vector<double> values(replicate.channel(0).begin(),
                             replicate.channel(0).end());
  EXPECT_EQ(std::max_element(values.begin(), values.end()) - values.begin(), 0);
  EXPECT_EQ(std::min_element(values.begin(), values.end()) - values.begin(), 1);
  EXPECT_GT(values[2], values[3]);
  EXPECT_GT(values[4], values[3]);
}

TEST(MaximumEntropyBootstrap, StaysNearOriginalRange) {
  core::Rng data_rng(8);
  TimeSeries s(1, 200);
  for (double& v : s.values()) v = data_rng.Normal(10.0, 2.0);
  core::Rng rng(9);
  const TimeSeries replicate = MaximumEntropyBootstrap().Transform(s, rng);
  const double lo = *std::min_element(s.values().begin(), s.values().end());
  const double hi = *std::max_element(s.values().begin(), s.values().end());
  for (double v : replicate.values()) {
    EXPECT_GE(v, lo - 2.0);
    EXPECT_LE(v, hi + 2.0);
  }
  // New draws differ from the originals.
  EXPECT_GT(linalg::EuclideanDistance(replicate, s), 0.1);
}

TEST(DtwGuidedWarp, WarpOntoReferenceLengthAndValues) {
  // Seed: bump early. Reference: same bump late. The warped series should
  // carry the seed's values on the reference's timing.
  std::vector<double> seed_values(30, 0.0);
  std::vector<double> ref_values(30, 0.0);
  for (int t = 5; t < 10; ++t) seed_values[static_cast<size_t>(t)] = 1.0;
  for (int t = 18; t < 23; ++t) ref_values[static_cast<size_t>(t)] = 1.0;
  const TimeSeries seed = TimeSeries::FromValues(seed_values);
  const TimeSeries reference = TimeSeries::FromValues(ref_values);

  const TimeSeries warped = DtwGuidedWarp::WarpOnto(seed, reference, -1);
  EXPECT_EQ(warped.length(), 30);
  // The bump moved toward the reference's position.
  double late_mass = 0.0;
  double early_mass = 0.0;
  for (int t = 0; t < 15; ++t) early_mass += warped.at(0, t);
  for (int t = 15; t < 30; ++t) late_mass += warped.at(0, t);
  EXPECT_GT(late_mass, early_mass);
  // Value range preserved (warping only re-times samples).
  for (double v : warped.values()) {
    EXPECT_GE(v, -1e-9);
    EXPECT_LE(v, 1.0 + 1e-9);
  }
}

TEST(DtwGuidedWarp, GenerateMatchesDatasetGeometry) {
  data::SyntheticSpec spec;
  spec.num_classes = 2;
  spec.train_counts = {6, 4};
  spec.test_counts = {2, 2};
  spec.num_channels = 3;
  spec.length = 20;
  spec.seed = 10;
  const core::Dataset train = data::MakeSynthetic(spec).train;
  DtwGuidedWarp warp(4);
  core::Rng rng(11);
  const auto generated = warp.TryGenerate(train, 0, 5, rng).value();
  for (const TimeSeries& s : generated) {
    EXPECT_EQ(s.num_channels(), 3);
    EXPECT_EQ(s.length(), 20);
  }
}

TEST(Inos, MixesInterpolationAndCovarianceSamples) {
  data::SyntheticSpec spec;
  spec.num_classes = 2;
  spec.train_counts = {12, 6};
  spec.test_counts = {2, 2};
  spec.num_channels = 2;
  spec.length = 16;
  spec.seed = 12;
  const core::Dataset train = data::MakeSynthetic(spec).train;
  Inos inos(0.5);
  core::Rng rng(13);
  const auto generated = inos.TryGenerate(train, 1, 10, rng).value();
  EXPECT_EQ(generated.size(), 10u);
  for (const TimeSeries& s : generated) {
    EXPECT_EQ(s.num_channels(), 2);
    EXPECT_EQ(s.length(), 16);
    for (double v : s.values()) EXPECT_TRUE(std::isfinite(v));
  }
}

}  // namespace
}  // namespace tsaug::augment
