#include "classify/rocket.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/faultpoint.h"
#include "core/kernels/kernels.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "data/synthetic.h"

namespace tsaug::classify {
namespace {

data::TrainTest TwoClassData(std::uint64_t seed = 3, double separation = 1.0) {
  data::SyntheticSpec spec;
  spec.num_classes = 2;
  spec.train_counts = {20, 20};
  spec.test_counts = {10, 10};
  spec.num_channels = 3;
  spec.length = 48;
  spec.class_separation = separation;
  spec.seed = seed;
  return data::MakeSynthetic(spec);
}

TEST(RocketTransform, KernelGeometryWithinSpec) {
  RocketTransform transform(200, 42);
  transform.Fit(/*num_channels=*/4, /*series_length=*/64);
  ASSERT_EQ(transform.kernels().size(), 200u);
  for (const RocketKernel& k : transform.kernels()) {
    EXPECT_TRUE(k.length == 7 || k.length == 9 || k.length == 11);
    EXPECT_GE(k.dilation, 1);
    EXPECT_LE((k.length - 1) * k.dilation, 2 * 63);
    EXPECT_GE(k.bias, -1.0);
    EXPECT_LE(k.bias, 1.0);
    EXPECT_GE(k.channels.size(), 1u);
    EXPECT_LE(static_cast<int>(k.channels.size()), 4);
    // Weights are mean-centred per kernel.
    double mean = 0.0;
    for (double w : k.weights) mean += w;
    EXPECT_NEAR(mean / static_cast<double>(k.weights.size()), 0.0, 1e-12);
  }
}

TEST(RocketTransform, FeaturesShapeAndPpvRange) {
  RocketTransform transform(50, 1);
  transform.Fit(2, 32);
  nn::Tensor x({5, 2, 32});
  core::Rng rng(2);
  for (double& v : x.data()) v = rng.Normal();
  const linalg::Matrix features = transform.Transform(x);
  EXPECT_EQ(features.rows(), 5);
  EXPECT_EQ(features.cols(), 100);
  for (int i = 0; i < features.rows(); ++i) {
    for (int k = 0; k < 50; ++k) {
      EXPECT_GE(features(i, 2 * k), 0.0);   // PPV
      EXPECT_LE(features(i, 2 * k), 1.0);
    }
  }
}

TEST(RocketTransform, DeterministicInSeed) {
  RocketTransform a(30, 9);
  RocketTransform b(30, 9);
  a.Fit(3, 40);
  b.Fit(3, 40);
  nn::Tensor x({2, 3, 40});
  core::Rng rng(3);
  for (double& v : x.data()) v = rng.Normal();
  EXPECT_EQ(a.Transform(x), b.Transform(x));
}

TEST(RocketTransform, ShortSeriesStillWork) {
  // PenDigits has length 8 < kernel length 11: kernels must adapt.
  RocketTransform transform(40, 5);
  transform.Fit(2, 8);
  nn::Tensor x({3, 2, 8});
  core::Rng rng(4);
  for (double& v : x.data()) v = rng.Normal();
  const linalg::Matrix features = transform.Transform(x);
  for (double v : features.data()) EXPECT_TRUE(std::isfinite(v));
}

/// PPV/max over positions [pos_lo, pos_hi) as the transform computed them
/// before it zero-padded its rows: a scalar loop that, when `Checked`,
/// skips taps outside [0, time) instead of reading padding.
template <bool Checked>
void ReferencePositions(const nn::Tensor& data, int i, int time,
                        const RocketKernel& kernel, int pos_lo, int pos_hi,
                        std::int64_t& positive, double& max_activation) {
  for (int pos = pos_lo; pos < pos_hi; ++pos) {
    double activation = kernel.bias;
    for (size_t c = 0; c < kernel.channels.size(); ++c) {
      const int channel = kernel.channels[c];
      const double* w =
          kernel.weights.data() + c * static_cast<size_t>(kernel.length);
      for (int tap = 0; tap < kernel.length; ++tap) {
        const int t = pos + tap * kernel.dilation;
        if constexpr (Checked) {
          if (t < 0 || t >= time) continue;
        }
        activation += w[tap] * data.at(i, channel, t);
      }
    }
    if (activation > 0.0) ++positive;
    max_activation = std::max(max_activation, activation);
  }
}

/// The transform's reference semantics: checked boundary positions around
/// an unchecked interior, all scalar.
linalg::Matrix ReferenceTransform(const RocketTransform& transform,
                                  const nn::Tensor& data) {
  const int n = data.dim(0);
  const int time = data.dim(2);
  const int num_kernels = transform.num_kernels();
  linalg::Matrix features(n, 2 * num_kernels);
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < num_kernels; ++k) {
      const RocketKernel& kernel =
          transform.kernels()[static_cast<size_t>(k)];
      const int span = (kernel.length - 1) * kernel.dilation;
      const int out_len = time + 2 * kernel.padding - span;
      if (out_len <= 0) continue;  // both features stay 0
      const int pos_lo = -kernel.padding;
      const int pos_hi = time + kernel.padding - span;
      const int interior_lo = std::clamp(0, pos_lo, pos_hi);
      const int interior_hi = std::clamp(time - span, interior_lo, pos_hi);
      std::int64_t positive = 0;
      double max_activation = -std::numeric_limits<double>::infinity();
      ReferencePositions<true>(data, i, time, kernel, pos_lo, interior_lo,
                               positive, max_activation);
      ReferencePositions<false>(data, i, time, kernel, interior_lo,
                                interior_hi, positive, max_activation);
      ReferencePositions<true>(data, i, time, kernel, interior_hi, pos_hi,
                               positive, max_activation);
      features(i, 2 * k) = static_cast<double>(positive) / out_len;
      features(i, 2 * k + 1) = max_activation;
    }
  }
  return features;
}

TEST(RocketTransform, MatchesCheckedReferenceBitForBit) {
  const core::kernels::Backend saved_backend = core::kernels::ActiveBackend();
  const int saved_threads = core::GetNumThreads();
  std::vector<core::kernels::Backend> backends = {
      core::kernels::Backend::kScalar};
  if (core::kernels::SimdAvailable()) {
    backends.push_back(core::kernels::Backend::kSimd);
  }
  int padded = 0;
  int unpadded = 0;
  int empty_outputs = 0;
  for (int channels : {1, 4}) {
    // Kernels drawn for length 40 overhang the shorter series below
    // (out_len <= 0); kernels drawn for the series' own length do not.
    for (int fit_length : {0, 40}) {
      for (int time = 2; time <= 40; ++time) {
        const int length = fit_length > 0 ? fit_length : time;
        RocketTransform transform(/*num_kernels=*/24,
                                  /*seed=*/static_cast<std::uint64_t>(time));
        transform.Fit(channels, length);
        nn::Tensor x({5, channels, time});
        core::Rng rng(static_cast<std::uint64_t>(1000 + time));
        for (double& v : x.data()) v = rng.Normal();
        for (const RocketKernel& kernel : transform.kernels()) {
          (kernel.padding > 0 ? padded : unpadded) += 1;
          const int span = (kernel.length - 1) * kernel.dilation;
          if (time + 2 * kernel.padding - span <= 0) ++empty_outputs;
        }
        const linalg::Matrix want = ReferenceTransform(transform, x);
        for (core::kernels::Backend backend : backends) {
          for (int threads : {1, 2, 8}) {
            core::kernels::SetBackend(backend);
            core::SetNumThreads(threads);
            const linalg::Matrix got = transform.Transform(x);
            ASSERT_EQ(got.size(), want.size());
            EXPECT_EQ(0, std::memcmp(got.data().data(), want.data().data(),
                                     got.size() * sizeof(double)))
                << "channels=" << channels << " fit_length=" << length
                << " time=" << time << " backend="
                << core::kernels::BackendName(backend)
                << " threads=" << threads;
          }
        }
      }
    }
  }
  core::kernels::SetBackend(saved_backend);
  core::SetNumThreads(saved_threads);
  EXPECT_GT(padded, 0);
  EXPECT_GT(unpadded, 0);
  EXPECT_GT(empty_outputs, 0);
}

TEST(RocketClassifier, LearnsSeparableClasses) {
  const data::TrainTest data = TwoClassData();
  RocketClassifier clf(/*num_kernels=*/300, /*seed=*/7);
  ASSERT_TRUE(clf.TryFit(data.train).ok());
  EXPECT_GE(clf.Score(data.test), 0.85);
}

TEST(RocketClassifier, MulticlassImbalanced) {
  data::SyntheticSpec spec;
  spec.num_classes = 4;
  spec.train_counts = {24, 12, 6, 4};
  spec.test_counts = {8, 6, 4, 4};
  spec.num_channels = 2;
  spec.length = 40;
  spec.seed = 11;
  const data::TrainTest data = data::MakeSynthetic(spec);
  RocketClassifier clf(300, 3);
  ASSERT_TRUE(clf.TryFit(data.train).ok());
  EXPECT_GE(clf.Score(data.test), 0.6);
}

TEST(RocketClassifier, HandlesVariableLengthAndMissing) {
  data::SyntheticSpec spec;
  spec.num_classes = 2;
  spec.train_counts = {10, 10};
  spec.test_counts = {5, 5};
  spec.num_channels = 2;
  spec.length = 30;
  spec.missing_prop = 0.2;
  spec.seed = 13;
  const data::TrainTest data = data::MakeSynthetic(spec);
  RocketClassifier clf(150, 1);
  ASSERT_TRUE(clf.TryFit(data.train).ok());
  const std::vector<int> predictions = clf.Predict(data.test);
  EXPECT_EQ(predictions.size(), 10u);
  for (int p : predictions) EXPECT_TRUE(p == 0 || p == 1);
}

TEST(RocketClassifier, MoreKernelsHelpOnHardData) {
  const data::TrainTest data = TwoClassData(21, /*separation=*/0.35);
  RocketClassifier small(20, 5);
  RocketClassifier large(500, 5);
  ASSERT_TRUE(small.TryFit(data.train).ok());
  ASSERT_TRUE(large.TryFit(data.train).ok());
  // Not strictly monotone in general, but on this task the 25x kernel
  // count should not do worse.
  EXPECT_GE(large.Score(data.test) + 0.1, small.Score(data.test));
}

TEST(RocketClassifier, SingularRidgeSolveFailsTyped) {
  const data::TrainTest data = TwoClassData(13);
  RocketClassifier clf(200, 3);
  // Every ridge solve fails, so alpha escalation runs out.
  core::fault::SetSpec("ridge.solve:1+");
  const core::Status status = clf.TryFit(data.train);
  core::fault::Clear();
  EXPECT_EQ(status.code(), core::StatusCode::kInjectedFault)
      << status.ToString();
  EXPECT_EQ(clf.ridge().solve_retries(), 4);
}

}  // namespace
}  // namespace tsaug::classify
