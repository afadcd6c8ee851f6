// Tests for the preserving branch: label-preserving range noise (Fig. 5)
// and structure-preserving OHIT (Fig. 6).
#include <cmath>

#include <gtest/gtest.h>

#include "augment/preserving.h"
#include "linalg/distance.h"

namespace tsaug::augment {
namespace {

core::TimeSeries Point2d(double x, double y) {
  return core::TimeSeries::FromChannels({{x}, {y}});
}

// Two classes on a line, 1 apart at the closest pair.
core::Dataset TwoBlobs() {
  core::Dataset train;
  train.Add(Point2d(0.0, 0.0), 0);
  train.Add(Point2d(0.2, 0.0), 0);
  train.Add(Point2d(0.4, 0.0), 0);
  train.Add(Point2d(1.4, 0.0), 1);
  train.Add(Point2d(1.6, 0.0), 1);
  return train;
}

TEST(RangeNoise, NeverCrossesNearestEnemyRadius) {
  core::Dataset train = TwoBlobs();
  RangeNoise range(0.5);
  core::Rng rng(1);
  const auto generated = range.TryGenerate(train, 0, 200, rng).value();
  for (const core::TimeSeries& s : generated) {
    // Every synthetic point must lie within safety * d(seed, enemy) of its
    // seed; since all class-0 seeds are at least 1.0 from class 1 and the
    // factor is 0.5, generated points stay left of x = 0.4 + 0.5.
    EXPECT_LT(s.at(0, 0), 0.95);
  }
}

TEST(RangeNoise, LabelPreservedUnderOneNearestNeighbor) {
  // The formal guarantee: every generated point's nearest original
  // instance has the seed's label.
  core::Dataset train = TwoBlobs();
  RangeNoise range(0.5);
  core::Rng rng(2);
  const auto generated = range.TryGenerate(train, 0, 100, rng).value();
  for (const core::TimeSeries& s : generated) {
    double best = 1e300;
    int best_label = -1;
    for (int i = 0; i < train.size(); ++i) {
      const double d = linalg::EuclideanDistance(s, train.series(i));
      if (d < best) {
        best = d;
        best_label = train.label(i);
      }
    }
    EXPECT_EQ(best_label, 0);
  }
}

TEST(RangeNoise, SingleClassFallsBackToRelativeRadius) {
  core::Dataset train;
  train.Add(Point2d(3.0, 4.0), 0);  // norm 5
  RangeNoise range(0.5);
  core::Rng rng(3);
  const auto generated = range.TryGenerate(train, 0, 50, rng).value();
  for (const core::TimeSeries& s : generated) {
    EXPECT_LE(linalg::EuclideanDistance(s, train.series(0)), 0.5 + 1e-9);
  }
}

core::Dataset TwoModeMinority() {
  core::Dataset train;
  // Minority class 0 with two well-separated modes.
  const double modes[2][2] = {{0.0, 0.0}, {10.0, 10.0}};
  core::Rng rng(4);
  for (int mode = 0; mode < 2; ++mode) {
    for (int i = 0; i < 6; ++i) {
      train.Add(Point2d(modes[mode][0] + rng.Normal(0, 0.3),
                        modes[mode][1] + rng.Normal(0, 0.3)),
                0);
    }
  }
  for (int i = 0; i < 20; ++i) {
    train.Add(Point2d(5.0 + rng.Normal(0, 0.3), -5.0 + rng.Normal(0, 0.3)), 1);
  }
  return train;
}

TEST(Ohit, ClusersTwoModesSeparately) {
  core::Dataset train = TwoModeMinority();
  Ohit ohit;
  const std::vector<int> assignment = ohit.ClusterClass(train, 0);
  ASSERT_EQ(assignment.size(), 12u);
  // Members 0-5 share a cluster, 6-11 share another, and they differ.
  for (int i = 1; i < 6; ++i) EXPECT_EQ(assignment[static_cast<size_t>(i)], assignment[0]);
  for (int i = 7; i < 12; ++i) EXPECT_EQ(assignment[static_cast<size_t>(i)], assignment[6]);
  EXPECT_NE(assignment[0], assignment[6]);
}

TEST(Ohit, SamplesStayNearTheirModes) {
  core::Dataset train = TwoModeMinority();
  Ohit ohit;
  core::Rng rng(5);
  const auto generated = ohit.TryGenerate(train, 0, 60, rng).value();
  ASSERT_EQ(generated.size(), 60u);
  int near_mode_a = 0;
  int near_mode_b = 0;
  for (const core::TimeSeries& s : generated) {
    const double da = std::hypot(s.at(0, 0) - 0.0, s.at(1, 0) - 0.0);
    const double db = std::hypot(s.at(0, 0) - 10.0, s.at(1, 0) - 10.0);
    if (std::min(da, db) < 3.0) {
      (da < db ? near_mode_a : near_mode_b) += 1;
    }
  }
  // Nearly all samples fall close to one of the two modes, and both modes
  // receive samples (structure preserved, no averaging across modes).
  EXPECT_GE(near_mode_a + near_mode_b, 55);
  EXPECT_GT(near_mode_a, 10);
  EXPECT_GT(near_mode_b, 10);
}

TEST(Ohit, CovarianceStructurePreserved) {
  // An elongated class: samples should inherit the anisotropy.
  core::Dataset train;
  core::Rng data_rng(6);
  for (int i = 0; i < 40; ++i) {
    train.Add(Point2d(data_rng.Normal(0, 3.0), data_rng.Normal(0, 0.2)), 0);
  }
  train.Add(Point2d(50, 50), 1);
  Ohit ohit;
  core::Rng rng(7);
  const auto generated = ohit.TryGenerate(train, 0, 300, rng).value();
  double var_x = 0.0;
  double var_y = 0.0;
  double mean_x = 0.0;
  double mean_y = 0.0;
  for (const core::TimeSeries& s : generated) {
    mean_x += s.at(0, 0) / static_cast<double>(generated.size());
    mean_y += s.at(1, 0) / static_cast<double>(generated.size());
  }
  for (const core::TimeSeries& s : generated) {
    var_x += std::pow(s.at(0, 0) - mean_x, 2) / static_cast<double>(generated.size());
    var_y += std::pow(s.at(1, 0) - mean_y, 2) / static_cast<double>(generated.size());
  }
  EXPECT_GT(var_x, 5.0 * var_y);
}

TEST(Ohit, TinyClassStillGenerates) {
  core::Dataset train;
  train.Add(Point2d(1, 1), 0);
  train.Add(Point2d(2, 2), 0);
  train.Add(Point2d(8, 8), 1);
  train.Add(Point2d(9, 9), 1);
  train.Add(Point2d(8, 9), 1);
  Ohit ohit;
  core::Rng rng(8);
  EXPECT_EQ(ohit.TryGenerate(train, 0, 4, rng).value().size(), 4u);
}

}  // namespace
}  // namespace tsaug::augment
