#include "classify/rocket.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <numeric>
#include <utility>

#include "core/cancel.h"
#include "core/kernels/kernels.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/trace.h"
#include "core/validate.h"

namespace tsaug::classify {

RocketTransform::RocketTransform(int num_kernels, std::uint64_t seed)
    : num_kernels_(num_kernels), seed_(seed) {
  TSAUG_CHECK(num_kernels > 0);
}

void RocketTransform::Fit(int num_channels, int series_length) {
  TSAUG_CHECK(num_channels >= 1 && series_length >= 2);
  core::Rng rng(seed_);
  kernels_.clear();
  kernels_.reserve(static_cast<size_t>(num_kernels_));

  const std::vector<int> candidate_lengths = {7, 9, 11};
  // cancellation: generation is cheap RNG bookkeeping, O(num_kernels);
  // the Status-bearing caller polls CheckStop("rocket.fit") around it.
  for (int k = 0; k < num_kernels_; ++k) {
    RocketKernel kernel;
    kernel.length = rng.Choice(candidate_lengths);
    // Kernels cannot be longer than the (dilated) series; shrink if needed.
    kernel.length = std::min(kernel.length, series_length);
    if (kernel.length < 2) kernel.length = 2;

    // Random subset of channels, size 2^U(0, log2(min(C, l))) as in the
    // multivariate ROCKET of sktime.
    const int max_channels = std::min(num_channels, kernel.length);
    const double limit = std::log2(static_cast<double>(max_channels) + 1.0);
    const int num_selected = std::min(
        num_channels,
        static_cast<int>(std::pow(2.0, rng.Uniform(0.0, limit))));
    kernel.channels =
        rng.SampleWithoutReplacement(num_channels, std::max(1, num_selected));

    kernel.weights.resize(kernel.channels.size() * static_cast<size_t>(kernel.length));
    double mean = 0.0;
    for (double& w : kernel.weights) {
      w = rng.Normal();
      mean += w;
    }
    mean /= static_cast<double>(kernel.weights.size());
    for (double& w : kernel.weights) w -= mean;

    kernel.bias = rng.Uniform(-1.0, 1.0);

    // Dilation: 2^U(0, log2((T-1)/(l-1))).
    const double max_exponent = std::log2(
        static_cast<double>(series_length - 1) / (kernel.length - 1));
    kernel.dilation = static_cast<int>(
        std::pow(2.0, rng.Uniform(0.0, std::max(0.0, max_exponent))));
    kernel.dilation = std::max(1, kernel.dilation);

    kernel.padding = rng.Bernoulli(0.5)
                         ? ((kernel.length - 1) * kernel.dilation) / 2
                         : 0;
    kernels_.push_back(std::move(kernel));
  }
}

linalg::Matrix RocketTransform::Transform(const nn::Tensor& data) const {
  TSAUG_CHECK(fitted());
  TSAUG_CHECK(data.ndim() == 3);
  TSAUG_TRACE_SCOPE("transform.rocket");
  const int n = data.dim(0);
  core::trace::AddCount("transform.rocket.rows", n);
  const int channels = data.dim(1);
  const int time = data.dim(2);
  int max_padding = 0;
  for (const RocketKernel& kernel : kernels_) {
    max_padding = std::max(max_padding, kernel.padding);
  }
  const size_t padded_length = static_cast<size_t>(time + 2 * max_padding);

  linalg::Matrix features(n, 2 * num_kernels_);
  // Each sample fills its own feature row, so sample-parallelism is
  // bitwise deterministic at any thread count.
  const auto& kt = core::kernels::Active();
  core::ParallelFor(0, n, 1, [&](std::int64_t lo, std::int64_t hi) {
    // Per-chunk scratch: each row's channels with max_padding zeros on
    // both sides, so every position, padded or not, runs the backend
    // kernel. A padded tap adds w * 0.0 = +-0 to the activation. That sum
    // starts at the bias, a Uniform(-1, 1) draw that is never -0, and a
    // round-to-nearest sum that is not -0 never becomes -0, so adding +-0
    // keeps its bits: exactly as if the tap were skipped.
    std::vector<double> padded(static_cast<size_t>(channels) * padded_length,
                               0.0);
    std::vector<const double*> chan_ptrs;
    // cancellation: a global stop abandons remaining chunks at ParallelFor
    // boundaries; per-cell deadlines poll at rocket.fit / rocket.ridge.
    for (int i = static_cast<int>(lo); i < static_cast<int>(hi); ++i) {
      for (int c = 0; c < channels; ++c) {
        const double* row = data.row3(i, c);
        std::copy(row, row + time,
                  padded.data() + static_cast<size_t>(c) * padded_length +
                      max_padding);
      }
      for (int k = 0; k < num_kernels_; ++k) {
        const RocketKernel& kernel = kernels_[static_cast<size_t>(k)];
        const int span = (kernel.length - 1) * kernel.dilation;
        const int out_len = time + 2 * kernel.padding - span;
        if (out_len <= 0) {
          features(i, 2 * k) = 0.0;
          features(i, 2 * k + 1) = 0.0;
          continue;
        }
        chan_ptrs.resize(kernel.channels.size());
        for (size_t c = 0; c < kernel.channels.size(); ++c) {
          TSAUG_DCHECK(kernel.channels[c] < channels);
          chan_ptrs[c] = padded.data() +
                         static_cast<size_t>(kernel.channels[c]) *
                             padded_length +
                         max_padding;
        }
        std::int64_t positive = 0;
        double max_activation = -std::numeric_limits<double>::infinity();
        kt.rocket_ppv_max(chan_ptrs.data(),
                          static_cast<std::int64_t>(chan_ptrs.size()),
                          kernel.weights.data(), kernel.length,
                          kernel.dilation, kernel.bias, -kernel.padding,
                          time + kernel.padding - span, &positive,
                          &max_activation);
        features(i, 2 * k) = static_cast<double>(positive) / out_len;  // PPV
        features(i, 2 * k + 1) = max_activation;
      }
    }
  });
  return features;
}

namespace {

/// Shared run features are z-normalised, like RocketClassifier's default.
constexpr bool kZNormalize = true;

/// Typed preflight instead of aborts: stress-scenario datasets reach a
/// ROCKET fit with shapes the transform cannot use (see core/validate.h);
/// the grid records them as failed cells and keeps going.
core::Status PreflightTrain(const core::Dataset& train) {
  if (train.empty()) {
    return core::DegenerateInputError("rocket: training set is empty");
  }
  if (!core::ChannelsConsistent(train)) {
    return core::GeometryMismatchError(
        "rocket: inconsistent channel counts across training instances");
  }
  if (train.max_length() < 2) {
    return core::DegenerateInputError(
        "rocket: every training series is shorter than 2 steps");
  }
  return core::OkStatus();
}

/// Feature rows of `data` under a transform fitted to `length`: the rows
/// of `prefix` (the already-computed features of `data`'s first
/// prefix->rows() rows) followed by the transform of the remaining rows;
/// without a prefix every row is transformed. Fits, shared runs and
/// predictions all build their features here.
linalg::Matrix AssembleFeatures(const RocketTransform& transform,
                                const core::Dataset& data, int length,
                                bool z_normalize,
                                const linalg::Matrix* prefix = nullptr) {
  if (prefix == nullptr) {
    return transform.Transform(DatasetToTensor(data, length, z_normalize));
  }
  const int first = prefix->rows();
  linalg::Matrix features(data.size(), prefix->cols());
  std::copy(prefix->data().begin(), prefix->data().end(),
            features.data().begin());
  if (first < data.size()) {
    std::vector<int> suffix(static_cast<size_t>(data.size() - first));
    std::iota(suffix.begin(), suffix.end(), first);
    const linalg::Matrix rows = transform.Transform(
        DatasetToTensor(data.Subset(suffix), length, z_normalize));
    std::copy(rows.data().begin(), rows.data().end(),
              features.data().begin() +
                  static_cast<std::ptrdiff_t>(prefix->size()));
  }
  return features;
}

/// The ridge half of a ROCKET fit. The LOOCV sweep is as expensive as the
/// transform, so one more poll bounds the latency of a stop to one phase.
core::Status FitRidge(const linalg::Matrix& features,
                      const core::Dataset& train,
                      linalg::RidgeClassifierCV& ridge) {
  TSAUG_RETURN_IF_ERROR(core::CheckStop("rocket.ridge"));
  core::Status status =
      ridge.TryFit(features, train.labels(), train.num_classes());
  if (!status.ok()) return status.AddContext("rocket");
  return status;
}

bool SameSeries(const core::TimeSeries& a, const core::TimeSeries& b) {
  if (a.num_channels() != b.num_channels() || a.length() != b.length()) {
    return false;
  }
  // Bit patterns, not operator==: a NaN matches the identical NaN.
  return a.values().empty() ||
         std::memcmp(a.values().data(), b.values().data(),
                     a.values().size() * sizeof(double)) == 0;
}

/// True when `data` begins with every series and label of `prefix`.
bool StartsWith(const core::Dataset& data, const core::Dataset& prefix) {
  if (data.size() < prefix.size()) return false;
  for (int i = 0; i < prefix.size(); ++i) {
    if (data.label(i) != prefix.label(i) ||
        !SameSeries(data.series(i), prefix.series(i))) {
      return false;
    }
  }
  return true;
}

}  // namespace

RocketRunFeatures::RocketRunFeatures(int num_kernels, std::uint64_t seed,
                                     core::Dataset base, core::Dataset test)
    : transform_(num_kernels, seed),
      base_(std::move(base)),
      test_(std::move(test)) {
  TSAUG_CHECK(PreflightTrain(base_).ok());
  TSAUG_CHECK(!test_.empty() && core::ChannelsConsistent(test_) &&
              test_.num_channels() == base_.num_channels());
  const int length = base_.max_length();
  transform_.Fit(base_.num_channels(), length);
  base_features_ = AssembleFeatures(transform_, base_, length, kZNormalize);
  test_features_ = AssembleFeatures(transform_, test_, length, kZNormalize);
}

bool RocketRunFeatures::Extends(const core::Dataset& train,
                                const core::Dataset& test) const {
  return !train.empty() && core::ChannelsConsistent(train) &&
         train.num_channels() == base_.num_channels() &&
         train.max_length() == base_.max_length() &&
         StartsWith(train, base_) && test.size() == test_.size() &&
         StartsWith(test, test_);
}

core::Status RocketRunFeatures::TryFitRidge(
    const core::Dataset& train, linalg::RidgeClassifierCV& ridge) const {
  TSAUG_DCHECK(StartsWith(train, base_));
  TSAUG_RETURN_IF_ERROR(PreflightTrain(train));
  TSAUG_RETURN_IF_ERROR(core::CheckStop("rocket.fit"));
  TSAUG_TRACE_SCOPE("train.rocket");
  const linalg::Matrix features =
      AssembleFeatures(transform_, train, base_.max_length(), kZNormalize,
                       &base_features_);
  return FitRidge(features, train, ridge);
}

RocketClassifier::RocketClassifier(int num_kernels, std::uint64_t seed,
                                   bool z_normalize)
    : transform_(num_kernels, seed), z_normalize_(z_normalize) {}

core::Status RocketClassifier::TryFit(const core::Dataset& train) {
  TSAUG_RETURN_IF_ERROR(PreflightTrain(train));
  TSAUG_RETURN_IF_ERROR(core::CheckStop("rocket.fit"));
  TSAUG_TRACE_SCOPE("train.rocket");
  train_length_ = train.max_length();
  transform_.Fit(train.num_channels(), train_length_);
  const linalg::Matrix features =
      AssembleFeatures(transform_, train, train_length_, z_normalize_);
  return FitRidge(features, train, ridge_);
}

std::vector<int> RocketClassifier::Predict(const core::Dataset& test) {
  TSAUG_CHECK(transform_.fitted());
  TSAUG_TRACE_SCOPE("predict.rocket");
  return ridge_.Predict(
      AssembleFeatures(transform_, test, train_length_, z_normalize_));
}

}  // namespace tsaug::classify
