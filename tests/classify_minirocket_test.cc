#include "classify/minirocket.h"

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "core/faultpoint.h"
#include "core/rng.h"
#include "data/synthetic.h"

namespace tsaug::classify {
namespace {

TEST(MiniRocketTransform, EightyFourKernels) {
  const auto positions = MiniRocketTransform::KernelPositions();
  EXPECT_EQ(positions.size(), 84u);
  std::set<std::array<int, 3>> unique(positions.begin(), positions.end());
  EXPECT_EQ(unique.size(), 84u);
  for (const auto& p : positions) {
    EXPECT_LT(p[0], p[1]);
    EXPECT_LT(p[1], p[2]);
    EXPECT_GE(p[0], 0);
    EXPECT_LT(p[2], 9);
  }
}

nn::Tensor RandomTensor(int n, int c, int t, std::uint64_t seed) {
  core::Rng rng(seed);
  nn::Tensor x({n, c, t});
  for (double& v : x.data()) v = rng.Normal();
  return x;
}

TEST(MiniRocketTransform, FeatureCountNearBudget) {
  MiniRocketTransform transform(1000, 1);
  transform.Fit(RandomTensor(4, 2, 64, 2));
  EXPECT_GE(transform.num_features(), 84);
  // Budget is distributed in whole biases per (kernel, dilation) pair.
  EXPECT_LE(transform.num_features(), 1400);
}

TEST(MiniRocketTransform, FeaturesArePpvInUnitInterval) {
  MiniRocketTransform transform(200, 3);
  const nn::Tensor train = RandomTensor(6, 2, 48, 4);
  transform.Fit(train);
  const linalg::Matrix features = transform.Transform(train);
  EXPECT_EQ(features.rows(), 6);
  EXPECT_EQ(features.cols(), transform.num_features());
  for (double v : features.data()) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(MiniRocketTransform, DeterministicInSeed) {
  const nn::Tensor train = RandomTensor(4, 3, 32, 5);
  MiniRocketTransform a(200, 9);
  MiniRocketTransform b(200, 9);
  a.Fit(train);
  b.Fit(train);
  EXPECT_EQ(a.Transform(train), b.Transform(train));
}

TEST(MiniRocketTransform, ShortSeriesWork) {
  MiniRocketTransform transform(100, 6);
  const nn::Tensor train = RandomTensor(3, 1, 8, 7);  // PenDigits-length
  transform.Fit(train);
  const linalg::Matrix features = transform.Transform(train);
  for (double v : features.data()) EXPECT_TRUE(std::isfinite(v));
}

TEST(MiniRocketClassifier, LearnsSeparableClasses) {
  data::SyntheticSpec spec;
  spec.num_classes = 2;
  spec.train_counts = {20, 20};
  spec.test_counts = {10, 10};
  spec.num_channels = 3;
  spec.length = 48;
  spec.seed = 8;
  const data::TrainTest data = data::MakeSynthetic(spec);
  MiniRocketClassifier clf(500, 11);
  clf.Fit(data.train);
  EXPECT_GE(clf.Score(data.test), 0.85);
}

TEST(MiniRocketClassifier, MulticlassImbalanced) {
  data::SyntheticSpec spec;
  spec.num_classes = 3;
  spec.train_counts = {18, 8, 5};
  spec.test_counts = {6, 5, 4};
  spec.num_channels = 2;
  spec.length = 32;
  spec.seed = 12;
  const data::TrainTest data = data::MakeSynthetic(spec);
  MiniRocketClassifier clf(500, 2);
  clf.Fit(data.train);
  EXPECT_GE(clf.Score(data.test), 0.6);
}

TEST(MiniRocketClassifier, SingularRidgeSolveFailsTyped) {
  data::SyntheticSpec spec;
  spec.num_classes = 2;
  spec.train_counts = {10, 10};
  spec.test_counts = {2, 2};
  spec.num_channels = 2;
  spec.length = 24;
  spec.seed = 13;
  const data::TrainTest data = data::MakeSynthetic(spec);
  MiniRocketClassifier clf(200, 3);
  // Every ridge solve fails, so alpha escalation runs out.
  core::fault::SetSpec("ridge.solve:1+");
  const core::Status status = clf.TryFit(data.train);
  core::fault::Clear();
  EXPECT_FALSE(status.ok());
}

}  // namespace
}  // namespace tsaug::classify
