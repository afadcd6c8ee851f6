#include "classify/nearest_neighbor.h"

#include <algorithm>

#include "core/parallel.h"
#include "core/preprocess.h"
#include "linalg/distance.h"

namespace tsaug::classify {

KnnClassifier::KnnClassifier(int k, NnDistance distance, int dtw_window,
                             bool z_normalize)
    : k_(k), distance_(distance), dtw_window_(dtw_window),
      z_normalize_(z_normalize) {
  TSAUG_CHECK(k >= 1);
}

std::string KnnClassifier::name() const {
  std::string base = std::to_string(k_) + "-NN-";
  base += distance_ == NnDistance::kDtw ? "DTW" : "Euclidean";
  return base;
}

core::Status KnnClassifier::TryFit(const core::Dataset& train) {
  if (train.empty()) {
    return core::DegenerateInputError("knn: empty training set");
  }
  train_ = core::Dataset(train.num_classes());
  for (int i = 0; i < train.size(); ++i) {
    core::TimeSeries s = core::ImputeLinear(train.series(i));
    if (z_normalize_) s = core::ZNormalize(s);
    train_.Add(std::move(s), train.label(i));
  }
  return core::OkStatus();
}

std::vector<int> KnnClassifier::Predict(const core::Dataset& test) {
  TSAUG_CHECK(!train_.empty());
  std::vector<int> predictions(static_cast<size_t>(test.size()));
  // Each query owns its prediction slot; the train scan per query is
  // read-only, so query-parallelism is deterministic.
  core::ParallelFor(0, test.size(), 1, [&](std::int64_t lo, std::int64_t hi) {
  for (int i = static_cast<int>(lo); i < static_cast<int>(hi); ++i) {
    core::TimeSeries query = core::ImputeLinear(test.series(i));
    if (z_normalize_) query = core::ZNormalize(query);

    std::vector<std::pair<double, int>> neighbors;  // (distance, label)
    neighbors.reserve(static_cast<size_t>(train_.size()));
    for (int j = 0; j < train_.size(); ++j) {
      const double d =
          distance_ == NnDistance::kDtw
              ? linalg::DtwDistance(query, train_.series(j), dtw_window_)
              : linalg::EuclideanDistance(query, train_.series(j));
      neighbors.emplace_back(d, train_.label(j));
    }
    const int take = std::min<int>(k_, static_cast<int>(neighbors.size()));
    std::partial_sort(neighbors.begin(), neighbors.begin() + take,
                      neighbors.end());
    // Majority vote among the k nearest. Scanning nearest first and
    // switching only on strictly more votes, a tie goes to the label whose
    // nearest member comes first.
    std::vector<int> votes(static_cast<size_t>(train_.num_classes()), 0);
    for (int v = 0; v < take; ++v) {
      ++votes[static_cast<size_t>(neighbors[static_cast<size_t>(v)].second)];
    }
    int best = neighbors[0].second;
    for (int v = 1; v < take; ++v) {
      const int label = neighbors[static_cast<size_t>(v)].second;
      if (votes[static_cast<size_t>(label)] > votes[static_cast<size_t>(best)]) best = label;
    }
    predictions[static_cast<size_t>(i)] = best;
  }
  });
  return predictions;
}

}  // namespace tsaug::classify
