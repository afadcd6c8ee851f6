#include "classify/nearest_neighbor.h"

#include <utility>

#include "core/parallel.h"
#include "core/preprocess.h"
#include "linalg/distance.h"

namespace tsaug::classify {
namespace {

/// Sakoe-Chiba band half-width, in steps.
constexpr int kDtwWindow = 4;

core::TimeSeries Prepare(const core::TimeSeries& series) {
  return core::ZNormalize(core::ImputeLinear(series));
}

}  // namespace

core::Status KnnClassifier::TryFit(const core::Dataset& train) {
  if (train.empty()) {
    return core::DegenerateInputError("knn: empty training set");
  }
  train_ = core::Dataset(train.num_classes());
  for (int i = 0; i < train.size(); ++i) {
    train_.Add(Prepare(train.series(i)), train.label(i));
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
    const core::TimeSeries query = Prepare(test.series(i));
    // Lexicographic argmin over (distance, label): a distance tie goes to
    // the smaller label.
    std::pair<double, int> best;
    for (int j = 0; j < train_.size(); ++j) {
      const std::pair<double, int> candidate(
          linalg::DtwDistance(query, train_.series(j), kDtwWindow),
          train_.label(j));
      if (j == 0 || candidate < best) best = candidate;
    }
    predictions[static_cast<size_t>(i)] = best.second;
  }
  });
  return predictions;
}

}  // namespace tsaug::classify
