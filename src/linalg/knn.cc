#include "linalg/knn.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "core/parallel.h"
#include "linalg/distance.h"

namespace tsaug::linalg {

std::vector<int> KNearestNeighbors(
    const std::vector<std::vector<double>>& points,
    const std::vector<double>& query, int k, int exclude) {
  const int n = static_cast<int>(points.size());
  TSAUG_CHECK(k >= 0);
  std::vector<std::pair<double, int>> distances;
  distances.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    if (i == exclude) continue;
    distances.emplace_back(EuclideanDistance(points[static_cast<size_t>(i)], query), i);
  }
  const int take = std::min<int>(k, static_cast<int>(distances.size()));
  std::partial_sort(distances.begin(), distances.begin() + take,
                    distances.end());
  std::vector<int> neighbors(static_cast<size_t>(take));
  for (int i = 0; i < take; ++i) neighbors[static_cast<size_t>(i)] = distances[static_cast<size_t>(i)].second;
  return neighbors;
}

std::vector<int> SharedNearestNeighborSimilarity(
    const std::vector<std::vector<double>>& points, int k) {
  const int n = static_cast<int>(points.size());
  std::vector<std::vector<int>> neighbor_sets(static_cast<size_t>(n));
  // Each query i owns neighbor_sets[i]; the point scan is read-only, so
  // query-parallelism is deterministic.
  core::ParallelFor(0, n, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (int i = static_cast<int>(lo); i < static_cast<int>(hi); ++i) {
      neighbor_sets[static_cast<size_t>(i)] = KNearestNeighbors(points, points[static_cast<size_t>(i)], k, i);
      std::sort(neighbor_sets[static_cast<size_t>(i)].begin(), neighbor_sets[static_cast<size_t>(i)].end());
    }
  });
  std::vector<int> similarity(static_cast<size_t>(n) * static_cast<size_t>(n), 0);
  // Row i owns cells (i, j) and (j, i) for j > i — disjoint across rows,
  // and neighbor_sets is read-only here, so the sweep is deterministic.
  core::ParallelFor(0, n, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (int i = static_cast<int>(lo); i < static_cast<int>(hi); ++i) {
    for (int j = i + 1; j < n; ++j) {
      std::vector<int> common;
      std::set_intersection(neighbor_sets[static_cast<size_t>(i)].begin(), neighbor_sets[static_cast<size_t>(i)].end(),
                            neighbor_sets[static_cast<size_t>(j)].begin(), neighbor_sets[static_cast<size_t>(j)].end(),
                            std::back_inserter(common));
      const int count = static_cast<int>(common.size());
      similarity[static_cast<size_t>(i) * static_cast<size_t>(n) + static_cast<size_t>(j)] = count;
      similarity[static_cast<size_t>(j) * static_cast<size_t>(n) + static_cast<size_t>(i)] = count;
    }
    }
  });
  return similarity;
}

}  // namespace tsaug::linalg
