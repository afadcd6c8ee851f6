#include "eval/metrics.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/check.h"

namespace tsaug::eval {

double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b) {
  TSAUG_CHECK(a.size() == b.size());
  // A pair with a non-finite score (a failed grid cell, a diverged run)
  // would poison the whole statistic; skip it and correlate the rest.
  std::vector<size_t> keep;
  keep.reserve(a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::isfinite(a[i]) && std::isfinite(b[i])) keep.push_back(i);
  }
  const size_t n = keep.size();
  if (n < 2) return 0.0;
  double mean_a = 0.0;
  double mean_b = 0.0;
  for (size_t i : keep) {
    mean_a += a[i] / static_cast<double>(n);
    mean_b += b[i] / static_cast<double>(n);
  }
  double cov = 0.0;
  double var_a = 0.0;
  double var_b = 0.0;
  for (size_t i : keep) {
    cov += (a[i] - mean_a) * (b[i] - mean_b);
    var_a += (a[i] - mean_a) * (a[i] - mean_a);
    var_b += (b[i] - mean_b) * (b[i] - mean_b);
  }
  if (var_a <= 0.0 || var_b <= 0.0) return 0.0;
  return cov / std::sqrt(var_a * var_b);
}

namespace {

std::vector<double> AverageRanks(const std::vector<double>& values) {
  const size_t n = values.size();
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int i, int j) { return values[static_cast<size_t>(i)] < values[static_cast<size_t>(j)]; });
  std::vector<double> ranks(n, 0.0);
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && values[static_cast<size_t>(order[j + 1])] == values[static_cast<size_t>(order[i])]) ++j;
    const double average = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (size_t k = i; k <= j; ++k) ranks[static_cast<size_t>(order[k])] = average;
    i = j + 1;
  }
  return ranks;
}

}  // namespace

double SpearmanCorrelation(const std::vector<double>& a,
                           const std::vector<double>& b) {
  TSAUG_CHECK(a.size() == b.size());
  // Drop non-finite pairs before ranking: a NaN would otherwise get an
  // arbitrary (comparison-order-dependent) rank.
  std::vector<double> finite_a;
  std::vector<double> finite_b;
  finite_a.reserve(a.size());
  finite_b.reserve(b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::isfinite(a[i]) && std::isfinite(b[i])) {
      finite_a.push_back(a[i]);
      finite_b.push_back(b[i]);
    }
  }
  return PearsonCorrelation(AverageRanks(finite_a), AverageRanks(finite_b));
}

}  // namespace tsaug::eval
