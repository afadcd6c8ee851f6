#include "augment/dba.h"

#include <algorithm>
#include <string>
#include <utility>

#include "core/cancel.h"
#include "core/preprocess.h"
#include "linalg/distance.h"

namespace tsaug::augment {

core::StatusOr<core::TimeSeries> TryDtwBarycenterAverage(
    const std::vector<core::TimeSeries>& members,
    const std::vector<double>& weights, const core::TimeSeries& initial,
    int iterations, int window) {
  TSAUG_CHECK(!members.empty());
  TSAUG_CHECK(members.size() == weights.size());
  TSAUG_CHECK(iterations >= 1);

  core::TimeSeries barycenter = core::ImputeLinear(initial);
  const int length = barycenter.length();
  const int channels = barycenter.num_channels();

  std::vector<core::TimeSeries> clean;
  clean.reserve(members.size());
  for (const core::TimeSeries& m : members) {
    TSAUG_CHECK(m.num_channels() == channels);
    clean.push_back(core::ImputeLinear(m));
  }

  for (int iter = 0; iter < iterations; ++iter) {
    TSAUG_RETURN_IF_ERROR(core::CheckStop("dba.iteration"));
    // Accumulate, per barycenter position, the weighted values of every
    // member sample aligned to it.
    core::TimeSeries sums(channels, length, 0.0);
    std::vector<double> mass(static_cast<size_t>(length), 0.0);
    for (size_t m = 0; m < clean.size(); ++m) {
      if (weights[m] <= 0.0) continue;
      const auto path = linalg::DtwPath(barycenter, clean[m], window);
      for (const auto& [i, j] : path) {
        for (int c = 0; c < channels; ++c) {
          sums.at(c, i) += weights[m] * clean[m].at(c, j);
        }
        mass[static_cast<size_t>(i)] += weights[m];
      }
    }
    for (int t = 0; t < length; ++t) {
      // DTW paths normally cover every position; an uncovered one means
      // every contributing weight was zero — a data condition, not a bug.
      if (!(mass[static_cast<size_t>(t)] > 0.0)) {
        return core::DegenerateInputError(
            "dba: no alignment mass at barycenter position " +
            std::to_string(t));
      }
      for (int c = 0; c < channels; ++c) {
        barycenter.at(c, t) = sums.at(c, t) / mass[static_cast<size_t>(t)];
      }
    }
  }
  return barycenter;
}

DbaAugmenter::DbaAugmenter(double reference_weight, int max_neighbors,
                           int iterations, int window)
    : reference_weight_(reference_weight), max_neighbors_(max_neighbors),
      iterations_(iterations), window_(window) {
  TSAUG_CHECK(reference_weight > 0.0 && reference_weight <= 1.0);
  TSAUG_CHECK(max_neighbors >= 1 && iterations >= 1);
}

core::StatusOr<std::vector<core::TimeSeries>> DbaAugmenter::DoGenerate(
    const core::Dataset& train, int label, int count, core::Rng& rng) {
  const std::vector<std::vector<int>> by_class = train.IndicesByClass();
  TSAUG_CHECK(label >= 0 && label < static_cast<int>(by_class.size()));
  const std::vector<int>& members = by_class[static_cast<size_t>(label)];
  const int target_length = train.max_length();

  std::vector<core::TimeSeries> out;
  out.reserve(static_cast<size_t>(count));
  for (int n = 0; n < count; ++n) {
    TSAUG_RETURN_IF_ERROR(core::CheckStop("dba.generate"));
    const int reference = rng.Choice(members);
    // Weight the reference heavily, spread the rest over a random subset.
    std::vector<core::TimeSeries> pool = {train.series(reference)};
    std::vector<double> weights = {reference_weight_};
    const int extra =
        std::min<int>(max_neighbors_, static_cast<int>(members.size()) - 1);
    if (extra > 0) {
      std::vector<double> raw(static_cast<size_t>(extra));
      double total = 0.0;
      for (double& w : raw) {
        w = rng.Uniform(0.05, 1.0);
        total += w;
      }
      for (int e = 0; e < extra; ++e) {
        int pick = rng.Choice(members);
        while (pick == reference && members.size() > 1) {
          pick = rng.Choice(members);
        }
        pool.push_back(train.series(pick));
        weights.push_back((1.0 - reference_weight_) * raw[static_cast<size_t>(e)] / total);
      }
    } else {
      weights[0] = 1.0;
    }

    core::TimeSeries initial = core::ImputeLinear(train.series(reference));
    if (initial.length() != target_length) {
      initial = core::ResampleToLength(initial, target_length);
    }
    core::StatusOr<core::TimeSeries> barycenter =
        TryDtwBarycenterAverage(pool, weights, initial, iterations_, window_);
    if (!barycenter.ok()) return barycenter.status();
    out.push_back(std::move(barycenter).value());
  }
  return out;
}

}  // namespace tsaug::augment
