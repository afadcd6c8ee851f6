#include "linalg/distance.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/kernels/kernels.h"
#include "core/preprocess.h"

namespace tsaug::linalg {
namespace {

bool HasNan(const std::vector<double>& values) {
  for (double v : values) {
    if (std::isnan(v)) return true;
  }
  return false;
}

/// Scalar NaN-skipping local cost for one DTW band row: coordinates where
/// either aligned sample is missing contribute nothing. Only series that
/// actually carry NaN take this path — clean series keep the backend
/// kernel's exact bits.
void SquaredDistRowNanSafe(const double* const* a_chan,
                           const double* const* b_chan, int channels, int i,
                           int j_lo, int j_hi, double* out) {
  for (int j = j_lo; j < j_hi; ++j) {
    double sum = 0.0;
    for (int c = 0; c < channels; ++c) {
      const double av = a_chan[c][i];
      const double bv = b_chan[c][j];
      if (std::isnan(av) || std::isnan(bv)) continue;
      const double d = av - bv;
      sum += d * d;
    }
    out[j - j_lo] = sum;
  }
}

// Accumulated-cost matrix for DTW; entry (i+1, j+1) is the optimal cost of
// aligning prefixes a[0..i], b[0..j]. The per-row local costs (squared
// Euclidean across channels) come from the backend's squared_dist_row
// kernel; the band DP itself is inherently sequential.
std::vector<std::vector<double>> DtwCostMatrix(const core::TimeSeries& a,
                                               const core::TimeSeries& b,
                                               int window) {
  const int n = a.length();
  const int m = b.length();
  const double kInf = std::numeric_limits<double>::infinity();
  // The band must be at least |n - m| wide or no full path exists.
  const int band =
      window < 0 ? std::max(n, m) : std::max(window, std::abs(n - m));

  const auto& kt = core::kernels::Active();
  const int channels = a.num_channels();
  std::vector<const double*> a_chan(static_cast<size_t>(channels));
  std::vector<const double*> b_chan(static_cast<size_t>(channels));
  for (int c = 0; c < channels; ++c) {
    a_chan[static_cast<size_t>(c)] = a.channel(c).data();
    b_chan[static_cast<size_t>(c)] = b.channel(c).data();
  }
  std::vector<double> local_row(static_cast<size_t>(m));
  const bool nan_safe = HasNan(a.values()) || HasNan(b.values());

  std::vector<std::vector<double>> cost(static_cast<size_t>(n + 1),
                                        std::vector<double>(static_cast<size_t>(m + 1), kInf));
  cost[0][0] = 0.0;
  for (int i = 1; i <= n; ++i) {
    const int j_lo = std::max(1, i - band);
    const int j_hi = std::min(m, i + band);
    if (j_lo > j_hi) continue;
    // Local costs for the whole band row at once (b indices are the DP's
    // j - 1, so the kernel range is [j_lo - 1, j_hi)).
    if (nan_safe) {
      SquaredDistRowNanSafe(a_chan.data(), b_chan.data(), channels, i - 1,
                            j_lo - 1, j_hi, local_row.data());
    } else {
      kt.squared_dist_row(a_chan.data(), b_chan.data(), channels, i - 1,
                          j_lo - 1, j_hi, local_row.data());
    }
    for (int j = j_lo; j <= j_hi; ++j) {
      const double local = local_row[static_cast<size_t>(j - j_lo)];
      cost[static_cast<size_t>(i)][static_cast<size_t>(j)] = local + std::min({cost[static_cast<size_t>(i - 1)][static_cast<size_t>(j - 1)], cost[static_cast<size_t>(i - 1)][static_cast<size_t>(j)],
                                     cost[static_cast<size_t>(i)][static_cast<size_t>(j - 1)]});
    }
  }
  return cost;
}

}  // namespace

double EuclideanDistance(const std::vector<double>& a,
                         const std::vector<double>& b) {
  TSAUG_CHECK(a.size() == b.size());
  if (HasNan(a) || HasNan(b)) {
    // Missing coordinates are skipped so the distance stays finite and
    // comparable; a single NaN would otherwise poison every comparison
    // downstream (kNN's partial_sort needs a strict weak ordering).
    double sum = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
      if (std::isnan(a[i]) || std::isnan(b[i])) continue;
      const double d = a[i] - b[i];
      sum += d * d;
    }
    return std::sqrt(sum);
  }
  const double sum = core::kernels::Active().squared_diff_sum(
      a.data(), b.data(), static_cast<std::int64_t>(a.size()));
  return std::sqrt(sum);
}

double EuclideanDistance(const core::TimeSeries& a,
                         const core::TimeSeries& b) {
  TSAUG_CHECK(a.num_channels() == b.num_channels());
  if (a.length() == b.length()) {
    return EuclideanDistance(a.values(), b.values());
  }
  const int target = std::max(a.length(), b.length());
  return EuclideanDistance(core::ResampleToLength(a, target).values(),
                           core::ResampleToLength(b, target).values());
}

double DtwDistance(const core::TimeSeries& a, const core::TimeSeries& b,
                   int window) {
  TSAUG_CHECK(a.num_channels() == b.num_channels());
  TSAUG_CHECK(a.length() > 0 && b.length() > 0);
  const auto cost = DtwCostMatrix(a, b, window);
  return std::sqrt(cost[static_cast<size_t>(a.length())][static_cast<size_t>(b.length())]);
}

std::vector<std::pair<int, int>> DtwPath(const core::TimeSeries& a,
                                         const core::TimeSeries& b,
                                         int window) {
  TSAUG_CHECK(a.num_channels() == b.num_channels());
  TSAUG_CHECK(a.length() > 0 && b.length() > 0);
  const auto cost = DtwCostMatrix(a, b, window);

  std::vector<std::pair<int, int>> path;
  int i = a.length();
  int j = b.length();
  while (i > 1 || j > 1) {
    path.emplace_back(i - 1, j - 1);
    double best = std::numeric_limits<double>::infinity();
    int next_i = i;
    int next_j = j;
    if (i > 1 && j > 1 && cost[static_cast<size_t>(i - 1)][static_cast<size_t>(j - 1)] < best) {
      best = cost[static_cast<size_t>(i - 1)][static_cast<size_t>(j - 1)];
      next_i = i - 1;
      next_j = j - 1;
    }
    if (i > 1 && cost[static_cast<size_t>(i - 1)][static_cast<size_t>(j)] < best) {
      best = cost[static_cast<size_t>(i - 1)][static_cast<size_t>(j)];
      next_i = i - 1;
      next_j = j;
    }
    if (j > 1 && cost[static_cast<size_t>(i)][static_cast<size_t>(j - 1)] < best) {
      best = cost[static_cast<size_t>(i)][static_cast<size_t>(j - 1)];
      next_i = i;
      next_j = j - 1;
    }
    i = next_i;
    j = next_j;
  }
  path.emplace_back(0, 0);
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace tsaug::linalg
