#ifndef TSAUG_LINALG_KNN_H_
#define TSAUG_LINALG_KNN_H_

#include <vector>

namespace tsaug::linalg {

/// Indices of the `k` nearest rows of `points` to `query`, ascending by
/// Euclidean distance. If `exclude` is a valid index, that row is skipped
/// (self-exclusion when the query is itself a member of `points`).
std::vector<int> KNearestNeighbors(const std::vector<std::vector<double>>& points,
                                   const std::vector<double>& query, int k,
                                   int exclude = -1);

/// Shared-nearest-neighbor similarity used by OHIT's density clustering:
/// the SNN similarity of two points is the number of common members in
/// their k-nearest-neighbor lists (computed with self excluded).
/// Returns an n*n row-major matrix of counts.
std::vector<int> SharedNearestNeighborSimilarity(
    const std::vector<std::vector<double>>& points, int k);

}  // namespace tsaug::linalg

#endif  // TSAUG_LINALG_KNN_H_
