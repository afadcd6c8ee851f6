// TimeGAN tests run with a deliberately tiny schedule: the goal is to
// verify the machinery (three-phase training, shapes, scaling, per-class
// caching), not sample quality at paper scale.
#include <cmath>

#include <gtest/gtest.h>

#include "augment/timegan.h"
#include "data/synthetic.h"

namespace tsaug::augment {
namespace {

TimeGanConfig TinyConfig() {
  TimeGanConfig config;
  config.hidden_dim = 6;
  config.num_layers = 1;
  config.embedding_iterations = 40;
  config.supervised_iterations = 30;
  config.joint_iterations = 15;
  config.batch_size = 8;
  config.max_sequence_length = 12;
  config.seed = 3;
  return config;
}

std::vector<core::TimeSeries> SineFamily(int count, int length, int channels,
                                         std::uint64_t seed) {
  core::Rng rng(seed);
  std::vector<core::TimeSeries> out;
  for (int i = 0; i < count; ++i) {
    core::TimeSeries s(channels, length);
    const double phase = rng.Uniform(0.0, 3.14);
    for (int c = 0; c < channels; ++c) {
      for (int t = 0; t < length; ++t) {
        s.at(c, t) = std::sin(0.5 * t + phase + c) + rng.Normal(0, 0.05);
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

TEST(TimeGan, PaperScaleConfigMatchesPaper) {
  const TimeGanConfig config = PaperScaleTimeGanConfig();
  EXPECT_EQ(config.embedding_iterations, 2500);
  EXPECT_EQ(config.supervised_iterations, 2500);
  EXPECT_EQ(config.joint_iterations, 1000);
  EXPECT_EQ(config.hidden_dim, 10);
  EXPECT_DOUBLE_EQ(config.learning_rate, 5e-4);
  EXPECT_EQ(config.batch_size, 32);
}

TEST(TimeGan, FitsAndSamplesCorrectShapes) {
  TimeGan gan(TinyConfig());
  ASSERT_TRUE(gan.TryFit(SineFamily(12, 12, 2, 1)).ok());
  ASSERT_TRUE(gan.fitted());
  core::Rng rng(2);
  const auto samples = gan.Sample(5, rng);
  ASSERT_EQ(samples.size(), 5u);
  for (const core::TimeSeries& s : samples) {
    EXPECT_EQ(s.num_channels(), 2);
    EXPECT_EQ(s.length(), 12);
    for (double v : s.values()) EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(TimeGan, SamplesWithinDataRange) {
  // Sigmoid output + inverse min-max scaling bounds samples to the
  // training data's per-feature range.
  TimeGan gan(TinyConfig());
  const auto train = SineFamily(10, 12, 1, 3);
  double lo = 1e300;
  double hi = -1e300;
  for (const auto& s : train) {
    for (double v : s.values()) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  ASSERT_TRUE(gan.TryFit(train).ok());
  core::Rng rng(4);
  for (const core::TimeSeries& s : gan.Sample(8, rng)) {
    for (double v : s.values()) {
      EXPECT_GE(v, lo - 1e-9);
      EXPECT_LE(v, hi + 1e-9);
    }
  }
}

TEST(TimeGan, ReconstructionLossDecreases) {
  // Phase 1 on an easy dataset should reach a low reconstruction loss.
  TimeGanConfig config = TinyConfig();
  config.embedding_iterations = 400;
  config.learning_rate = 5e-3;  // tiny net, short schedule: faster rate
  TimeGan gan(config);
  ASSERT_TRUE(gan.TryFit(SineFamily(16, 12, 1, 5)).ok());
  // Loss is 10*sqrt(MSE) on [0,1]-scaled data; untrained is ~3-5.
  EXPECT_LT(gan.diagnostics().reconstruction_loss, 2.0);
}

TEST(TimeGan, LongSeriesCappedToMaxSequenceLength) {
  TimeGanConfig config = TinyConfig();
  config.max_sequence_length = 10;
  TimeGan gan(config);
  ASSERT_TRUE(gan.TryFit(SineFamily(6, 40, 1, 6)).ok());
  core::Rng rng(7);
  // Raw samples come out at the training length.
  EXPECT_EQ(gan.Sample(1, rng)[0].length(), 10);
}

TEST(TimeGanAugmenter, GeneratesAtDatasetLengthAndCachesPerClass) {
  data::SyntheticSpec spec;
  spec.num_classes = 2;
  spec.train_counts = {8, 4};
  spec.test_counts = {2, 2};
  spec.num_channels = 2;
  spec.length = 20;
  spec.seed = 8;
  const core::Dataset train = data::MakeSynthetic(spec).train;

  TimeGanAugmenter augmenter(TinyConfig());
  core::Rng rng(9);
  const auto first = augmenter.TryGenerate(train, 1, 4, rng).value();
  ASSERT_EQ(first.size(), 4u);
  for (const core::TimeSeries& s : first) {
    EXPECT_EQ(s.length(), 20);  // resampled back to dataset length
    EXPECT_EQ(s.num_channels(), 2);
  }
  // Second call reuses the cached per-class model (fast path).
  const auto second = augmenter.TryGenerate(train, 1, 2, rng).value();
  EXPECT_EQ(second.size(), 2u);
}

}  // namespace
}  // namespace tsaug::augment
