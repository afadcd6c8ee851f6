#include "augment/guided_warp.h"

#include <algorithm>

#include "augment/generative.h"
#include "augment/oversample.h"
#include "core/preprocess.h"
#include "linalg/distance.h"

namespace tsaug::augment {

DtwGuidedWarp::DtwGuidedWarp(int window) : window_(window) {}

core::TimeSeries DtwGuidedWarp::WarpOnto(const core::TimeSeries& seed,
                                         const core::TimeSeries& reference,
                                         int window) {
  TSAUG_CHECK(seed.num_channels() == reference.num_channels());
  const core::TimeSeries seed_clean = core::ImputeLinear(seed);
  const core::TimeSeries ref_clean = core::ImputeLinear(reference);
  const std::vector<std::pair<int, int>> path =
      linalg::DtwPath(seed_clean, ref_clean, window);

  // For each reference step j, average the seed values aligned to it.
  core::TimeSeries out(seed.num_channels(), ref_clean.length(), 0.0);
  std::vector<int> hits(static_cast<size_t>(ref_clean.length()), 0);
  for (const auto& [i, j] : path) {
    for (int c = 0; c < out.num_channels(); ++c) {
      out.at(c, j) += seed_clean.at(c, i);
    }
    ++hits[static_cast<size_t>(j)];
  }
  for (int j = 0; j < out.length(); ++j) {
    TSAUG_CHECK(hits[static_cast<size_t>(j)] > 0);  // a full DTW path covers every j
    for (int c = 0; c < out.num_channels(); ++c) out.at(c, j) /= hits[static_cast<size_t>(j)];
  }
  return out;
}

core::StatusOr<std::vector<core::TimeSeries>> DtwGuidedWarp::DoGenerate(
    const core::Dataset& train, int label, int count, core::Rng& rng) {
  const std::vector<std::vector<int>> by_class = train.IndicesByClass();
  TSAUG_CHECK(label >= 0 && label < static_cast<int>(by_class.size()));
  const std::vector<int>& members = by_class[static_cast<size_t>(label)];
  const int target_length = train.max_length();

  std::vector<core::TimeSeries> out;
  out.reserve(static_cast<size_t>(count));
  for (int n = 0; n < count; ++n) {
    const int seed_index = rng.Choice(members);
    int ref_index = rng.Choice(members);
    if (members.size() >= 2) {
      while (ref_index == seed_index) ref_index = rng.Choice(members);
    }
    core::TimeSeries warped = WarpOnto(train.series(seed_index),
                                       train.series(ref_index), window_);
    if (warped.length() != target_length) {
      warped = core::ResampleToLength(warped, target_length);
    }
    out.push_back(std::move(warped));
  }
  return out;
}

Inos::Inos(double interpolation_fraction, int k_neighbors)
    : interpolation_fraction_(interpolation_fraction),
      k_neighbors_(k_neighbors) {
  TSAUG_CHECK(interpolation_fraction >= 0.0 && interpolation_fraction <= 1.0);
  TSAUG_CHECK(k_neighbors >= 1);
}

core::StatusOr<std::vector<core::TimeSeries>> Inos::DoGenerate(
    const core::Dataset& train, int label, int count, core::Rng& rng) {
  const int interpolated =
      static_cast<int>(count * interpolation_fraction_ + 0.5);
  const int sampled = count - interpolated;

  std::vector<core::TimeSeries> out;
  out.reserve(static_cast<size_t>(count));
  if (interpolated > 0) {
    // Boundary-protecting portion: SMOTE-style neighbour interpolation.
    Smote smote(k_neighbors_);
    core::StatusOr<std::vector<core::TimeSeries>> part =
        smote.TryGenerate(train, label, interpolated, rng);
    if (!part.ok()) {
      core::Status status = part.status();
      return status.AddContext("inos");
    }
    for (core::TimeSeries& s : *part) out.push_back(std::move(s));
  }
  if (sampled > 0) {
    // Structure-preserving portion: regularized-covariance Gaussian.
    GaussianGenerator gaussian;
    core::StatusOr<std::vector<core::TimeSeries>> part =
        gaussian.TryGenerate(train, label, sampled, rng);
    if (!part.ok()) {
      core::Status status = part.status();
      return status.AddContext("inos");
    }
    for (core::TimeSeries& s : *part) out.push_back(std::move(s));
  }
  return out;
}

}  // namespace tsaug::augment
