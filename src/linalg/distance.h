#ifndef TSAUG_LINALG_DISTANCE_H_
#define TSAUG_LINALG_DISTANCE_H_

#include <vector>

#include "core/time_series.h"

namespace tsaug::linalg {

/// Euclidean distance between two equal-size vectors.
///
/// NaN-safe: coordinates where either side is NaN (a missing observation)
/// are skipped, so a missing value can never poison a distance — and, by
/// extension, never break the strict weak ordering a kNN partial_sort
/// needs. NaN-free inputs take the backend kernel path and keep their
/// exact bits.
double EuclideanDistance(const std::vector<double>& a,
                         const std::vector<double>& b);

/// Euclidean distance between flattened series. Series of different lengths
/// are linearly resampled to the longer length first. NaN-safe (see above).
double EuclideanDistance(const core::TimeSeries& a, const core::TimeSeries& b);

/// Dependent multivariate Dynamic Time Warping distance: the local cost of
/// aligning step i of `a` with step j of `b` is the squared Euclidean
/// distance across all channels. `window` is a Sakoe-Chiba band half-width
/// (< 0 means unconstrained): step i of `a` may align with step j of `b`
/// only when |i - j| <= max(window, |a.length() - b.length()|), the
/// widening that keeps a full path possible for unequal lengths. Returns
/// the square root of the accumulated cost, so DTW with a degenerate
/// diagonal path equals the Euclidean distance between equal-length
/// series.
/// NaN-safe: channels missing at either aligned step contribute zero to
/// that step's local cost (series with missing data fall back to a
/// deterministic scalar band row; NaN-free series keep the backend
/// kernel's exact bits).
double DtwDistance(const core::TimeSeries& a, const core::TimeSeries& b,
                   int window = -1);

/// The optimal DTW alignment path as (i, j) index pairs, same cost model as
/// DtwDistance. Used by DTW-guided warping augmentation.
std::vector<std::pair<int, int>> DtwPath(const core::TimeSeries& a,
                                         const core::TimeSeries& b,
                                         int window = -1);

}  // namespace tsaug::linalg

#endif  // TSAUG_LINALG_DISTANCE_H_
