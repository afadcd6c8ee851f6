#include "classify/minirocket.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "core/parallel.h"
#include "core/trace.h"
#include "core/rng.h"

namespace tsaug::classify {

namespace {
constexpr int kKernelLength = 9;

/// Appends convolution activations for positions [pos_lo, pos_hi).
/// `Checked` guards every tap against the series bounds (needed only for
/// padded boundary positions); interior positions skip the test entirely.
/// The tap-outer / channel-inner accumulation order matches the original
/// single loop, so the split changes no bits.
template <bool Checked>
void AccumulateConvolve(const nn::Tensor& x, int instance, int time,
                        const double* weights, int dilation,
                        const std::vector<int>& channels, int pos_lo,
                        int pos_hi, std::vector<double>& activations) {
  for (int pos = pos_lo; pos < pos_hi; ++pos) {
    double value = 0.0;
    for (int tap = 0; tap < kKernelLength; ++tap) {
      const int t = pos + tap * dilation;
      if constexpr (Checked) {
        if (t < 0 || t >= time) continue;
      }
      for (int channel : channels) {
        value += weights[tap] * x.at(instance, channel, t);
      }
    }
    activations.push_back(value);
  }
}

}  // namespace

std::vector<std::array<int, 3>> MiniRocketTransform::KernelPositions() {
  std::vector<std::array<int, 3>> positions;
  for (int a = 0; a < kKernelLength; ++a) {
    for (int b = a + 1; b < kKernelLength; ++b) {
      for (int c = b + 1; c < kKernelLength; ++c) {
        positions.push_back({a, b, c});
      }
    }
  }
  return positions;  // C(9,3) = 84
}

MiniRocketTransform::MiniRocketTransform(int num_features, std::uint64_t seed)
    : requested_features_(num_features), seed_(seed) {
  TSAUG_CHECK(num_features >= 84);
}

std::vector<double> MiniRocketTransform::Convolve(const nn::Tensor& x,
                                                  int instance,
                                                  const Feature& feature) const {
  const int time = x.dim(2);
  static const std::vector<std::array<int, 3>> positions = KernelPositions();
  const std::array<int, 3>& two_positions = positions[static_cast<size_t>(feature.kernel)];

  // Kernel weights: -1 everywhere, +2 at the three chosen taps.
  std::array<double, kKernelLength> weights;
  weights.fill(-1.0);
  for (int p : two_positions) weights[static_cast<size_t>(p)] = 2.0;

  const int span = (kKernelLength - 1) * feature.dilation;
  const int pad = feature.padding ? span / 2 : 0;
  const int out_len = time + 2 * pad - span;
  std::vector<double> activations;
  if (out_len <= 0) return activations;
  activations.reserve(static_cast<size_t>(out_len));

  // Interior/boundary split: positions in [0, time - span) read taps
  // pos .. pos + span all inside [0, time), so the steady-state loop runs
  // without the per-tap bounds check.
  const int pos_lo = -pad;
  const int pos_hi = time + pad - span;
  const int interior_lo = std::clamp(0, pos_lo, pos_hi);
  const int interior_hi = std::clamp(time - span, interior_lo, pos_hi);
  AccumulateConvolve<true>(x, instance, time, weights.data(), feature.dilation,
                           feature.channels, pos_lo, interior_lo, activations);
  AccumulateConvolve<false>(x, instance, time, weights.data(),
                            feature.dilation, feature.channels, interior_lo,
                            interior_hi, activations);
  AccumulateConvolve<true>(x, instance, time, weights.data(), feature.dilation,
                           feature.channels, interior_hi, pos_hi, activations);
  return activations;
}

void MiniRocketTransform::Fit(const nn::Tensor& train_x) {
  TSAUG_CHECK(train_x.ndim() == 3);
  const int n = train_x.dim(0);
  const int channels = train_x.dim(1);
  const int time = train_x.dim(2);
  TSAUG_CHECK(n >= 1 && time >= 2);
  core::Rng rng(seed_ ^ 0x3124ull);

  // Exponentially spaced dilations: 2^0 .. 2^max with
  // max = log2((T-1)/(kernel-1)); at least dilation 1.
  std::vector<int> dilations;
  const double max_exponent =
      std::log2(std::max(1.0, static_cast<double>(time - 1) /
                                  (kKernelLength - 1)));
  const int num_dilations = std::max(1, static_cast<int>(max_exponent) + 1);
  for (int d = 0; d < num_dilations; ++d) {
    const int dilation = static_cast<int>(std::pow(2.0, d));
    if (dilations.empty() || dilations.back() != dilation) {
      dilations.push_back(dilation);
    }
  }

  // Distribute the feature budget over (kernel, dilation) pairs; each
  // pair contributes `biases_per_pair` quantile-derived biases.
  const int pairs = 84 * static_cast<int>(dilations.size());
  const int biases_per_pair =
      std::max(1, requested_features_ / pairs);

  features_.clear();
  features_.reserve(static_cast<size_t>(pairs) * static_cast<size_t>(biases_per_pair));
  int pair_index = 0;
  for (int kernel = 0; kernel < 84; ++kernel) {
    for (size_t d = 0; d < dilations.size(); ++d, ++pair_index) {
      Feature base;
      base.kernel = kernel;
      base.dilation = dilations[d];
      base.padding = pair_index % 2 == 0;  // alternate, as in the original
      // Random channel subset (singleton for univariate input).
      const int max_pick =
          std::max(1, static_cast<int>(std::log2(channels + 1)));
      const int picked = channels == 1 ? 1 : rng.Int(1, std::min(channels, 1 << max_pick));
      base.channels = rng.SampleWithoutReplacement(channels, picked);

      // Bias quantiles from the convolution output on a random training
      // instance (the data-dependent step of MiniRocket).
      const int instance = rng.Index(n);
      std::vector<double> activations = Convolve(train_x, instance, base);
      if (activations.empty()) activations.push_back(0.0);
      std::sort(activations.begin(), activations.end());
      for (int q = 0; q < biases_per_pair; ++q) {
        Feature feature = base;
        // Low-discrepancy quantiles in (0,1).
        const double quantile = (q + 0.5) / biases_per_pair;
        const size_t idx = std::min(
            activations.size() - 1,
            static_cast<size_t>(quantile * static_cast<double>(activations.size())));
        feature.bias = activations[idx];
        features_.push_back(std::move(feature));
      }
    }
  }
}

linalg::Matrix MiniRocketTransform::Transform(const nn::Tensor& x) const {
  TSAUG_CHECK(fitted());
  TSAUG_CHECK(x.ndim() == 3);
  TSAUG_TRACE_SCOPE("transform.minirocket");
  const int n = x.dim(0);
  core::trace::AddCount("transform.minirocket.rows", n);
  linalg::Matrix out(n, num_features());
  // Each sample fills its own output row: deterministic sample-parallelism.
  core::ParallelFor(0, n, 1, [&](std::int64_t lo, std::int64_t hi) {
  for (int i = static_cast<int>(lo); i < static_cast<int>(hi); ++i) {
    // Group features sharing (kernel, dilation, padding, channels) so the
    // convolution is computed once per group.
    size_t f = 0;
    while (f < features_.size()) {
      size_t group_end = f + 1;
      while (group_end < features_.size() &&
             features_[group_end].kernel == features_[f].kernel &&
             features_[group_end].dilation == features_[f].dilation &&
             features_[group_end].padding == features_[f].padding &&
             features_[group_end].channels == features_[f].channels) {
        ++group_end;
      }
      const std::vector<double> activations = Convolve(x, i, features_[f]);
      for (size_t g = f; g < group_end; ++g) {
        if (activations.empty()) {
          out(i, static_cast<int>(g)) = 0.0;
          continue;
        }
        int positive = 0;
        for (double a : activations) {
          if (a > features_[g].bias) ++positive;
        }
        out(i, static_cast<int>(g)) =
            static_cast<double>(positive) / static_cast<double>(activations.size());
      }
      f = group_end;
    }
  }
  });
  return out;
}

MiniRocketClassifier::MiniRocketClassifier(int num_features,
                                           std::uint64_t seed,
                                           bool z_normalize)
    : transform_(num_features, seed), z_normalize_(z_normalize) {}

void MiniRocketClassifier::Fit(const core::Dataset& train) {
  const core::Status status = TryFit(train);
  TSAUG_CHECK_MSG(status.ok(), "%s", status.ToString().c_str());
}

core::Status MiniRocketClassifier::TryFit(const core::Dataset& train) {
  TSAUG_CHECK(!train.empty());
  TSAUG_TRACE_SCOPE("train.minirocket");
  train_length_ = train.max_length();
  const nn::Tensor x = DatasetToTensor(train, train_length_, z_normalize_);
  transform_.Fit(x);
  return ridge_.TryFit(transform_.Transform(x), train.labels(),
                       train.num_classes());
}

std::vector<int> MiniRocketClassifier::Predict(const core::Dataset& test) {
  TSAUG_CHECK(transform_.fitted());
  const nn::Tensor x = DatasetToTensor(test, train_length_, z_normalize_);
  return ridge_.Predict(transform_.Transform(x));
}

}  // namespace tsaug::classify
