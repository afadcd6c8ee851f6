#include "augment/preserving.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "core/cancel.h"
#include "augment/generative.h"
#include "core/preprocess.h"
#include "linalg/distance.h"
#include "linalg/knn.h"

namespace tsaug::augment {
namespace {

struct FlatClass {
  std::vector<std::vector<double>> class_points;
  std::vector<std::vector<double>> enemy_points;
  int channels = 0;
  int length = 0;
};

FlatClass FlattenByClass(const core::Dataset& train, int label) {
  FlatClass view;
  view.channels = train.num_channels();
  view.length = train.max_length();
  for (int i = 0; i < train.size(); ++i) {
    core::TimeSeries s = core::ImputeLinear(train.series(i));
    if (s.length() != view.length) s = core::ResampleToLength(s, view.length);
    if (train.label(i) == label) {
      view.class_points.push_back(s.Flatten());
    } else {
      view.enemy_points.push_back(s.Flatten());
    }
  }
  return view;
}

}  // namespace

RangeNoise::RangeNoise(double safety_factor) : safety_factor_(safety_factor) {
  TSAUG_CHECK(safety_factor > 0.0 && safety_factor <= 1.0);
}

core::StatusOr<std::vector<core::TimeSeries>> RangeNoise::DoGenerate(
    const core::Dataset& train, int label, int count, core::Rng& rng) {
  const FlatClass view = FlattenByClass(train, label);

  std::vector<core::TimeSeries> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    TSAUG_RETURN_IF_ERROR(core::CheckStop("range_noise.generate"));
    const int seed = rng.Index(static_cast<int>(view.class_points.size()));
    const std::vector<double>& x = view.class_points[static_cast<size_t>(seed)];

    // Safe radius: distance to the nearest enemy, scaled down.
    double nearest_enemy = std::numeric_limits<double>::infinity();
    for (const std::vector<double>& enemy : view.enemy_points) {
      nearest_enemy =
          std::min(nearest_enemy, linalg::EuclideanDistance(x, enemy));
    }
    std::vector<double> noise(x.size());
    double norm = 0.0;
    for (double& v : noise) {
      v = rng.Normal();
      norm += v * v;
    }
    norm = std::sqrt(norm);
    // Radius uniform in (0, safety * d_enemy]; with no enemies (single
    // class) fall back to 10% of the series norm.
    double radius;
    if (std::isfinite(nearest_enemy)) {
      radius = rng.Uniform(0.0, 1.0) * safety_factor_ * nearest_enemy;
    } else {
      radius = 0.1 * linalg::Norm(x);
    }
    std::vector<double> synthetic = x;
    if (norm > 1e-12) {
      for (size_t d = 0; d < x.size(); ++d) {
        synthetic[d] += noise[d] / norm * radius;
      }
    }
    out.push_back(
        core::TimeSeries::FromFlat(synthetic, view.channels, view.length));
  }
  return out;
}

Ohit::Ohit(int snn_k, double snn_eps_fraction)
    : snn_k_(snn_k), snn_eps_fraction_(snn_eps_fraction) {
  TSAUG_CHECK(snn_k >= 1);
  TSAUG_CHECK(snn_eps_fraction > 0.0 && snn_eps_fraction <= 1.0);
}

std::vector<int> Ohit::ClusterClass(const core::Dataset& train,
                                    int label) const {
  const FlatClass view = FlattenByClass(train, label);
  const int n = static_cast<int>(view.class_points.size());
  std::vector<int> assignment(static_cast<size_t>(n), -1);
  if (n <= 2) {
    // Too small to cluster: one cluster.
    std::fill(assignment.begin(), assignment.end(), 0);
    return assignment;
  }

  const int k = std::min(snn_k_, n - 1);
  const std::vector<int> snn =
      linalg::SharedNearestNeighborSimilarity(view.class_points, k);
  const int eps = std::max(1, static_cast<int>(k * snn_eps_fraction_ + 0.5));

  // Connected components of the graph {(i,j) : snn(i,j) >= eps}.
  int next_cluster = 0;
  std::vector<int> stack;
  for (int i = 0; i < n; ++i) {
    if (assignment[static_cast<size_t>(i)] != -1) continue;
    assignment[static_cast<size_t>(i)] = next_cluster;
    stack.push_back(i);
    while (!stack.empty()) {
      const int current = stack.back();
      stack.pop_back();
      for (int j = 0; j < n; ++j) {
        if (assignment[static_cast<size_t>(j)] == -1 &&
            snn[static_cast<size_t>(current) * static_cast<size_t>(n) + static_cast<size_t>(j)] >= eps) {
          assignment[static_cast<size_t>(j)] = next_cluster;
          stack.push_back(j);
        }
      }
    }
    ++next_cluster;
  }
  return assignment;
}

core::StatusOr<std::vector<core::TimeSeries>> Ohit::DoGenerate(
    const core::Dataset& train, int label, int count, core::Rng& rng) {
  const FlatClass view = FlattenByClass(train, label);
  const int n = static_cast<int>(view.class_points.size());
  const std::vector<int> assignment = ClusterClass(train, label);
  const int num_clusters =
      1 + *std::max_element(assignment.begin(), assignment.end());

  // Group members per cluster.
  std::vector<std::vector<int>> clusters(static_cast<size_t>(num_clusters));
  for (int i = 0; i < n; ++i) clusters[static_cast<size_t>(assignment[static_cast<size_t>(i)])].push_back(i);

  // Allocate the requested count proportionally to cluster sizes.
  std::vector<int> quota(static_cast<size_t>(num_clusters), 0);
  int assigned = 0;
  for (int c = 0; c < num_clusters; ++c) {
    quota[static_cast<size_t>(c)] = count * static_cast<int>(clusters[static_cast<size_t>(c)].size()) / n;
    assigned += quota[static_cast<size_t>(c)];
  }
  for (int c = 0; assigned < count; c = (c + 1) % num_clusters) {
    ++quota[static_cast<size_t>(c)];
    ++assigned;
  }

  const int dims = view.channels * view.length;
  std::vector<core::TimeSeries> out;
  out.reserve(static_cast<size_t>(count));
  for (int c = 0; c < num_clusters; ++c) {
    // SNN clustering + per-cluster covariance factorisation dominate OHIT's
    // cost; polling per cluster keeps a cancelled cell responsive.
    TSAUG_RETURN_IF_ERROR(core::CheckStop("ohit.cluster"));
    if (quota[static_cast<size_t>(c)] == 0) continue;
    const std::vector<int>& members = clusters[static_cast<size_t>(c)];

    if (members.size() < 2) {
      // Singleton cluster: jitter around the point at 5% of its scale.
      const std::vector<double>& x = view.class_points[static_cast<size_t>(members[0])];
      const double scale = 0.05 * linalg::Norm(x) / std::sqrt(dims);
      for (int q = 0; q < quota[static_cast<size_t>(c)]; ++q) {
        std::vector<double> sample = x;
        for (double& v : sample) v += rng.Normal(0.0, std::max(1e-6, scale));
        out.push_back(
            core::TimeSeries::FromFlat(sample, view.channels, view.length));
      }
      continue;
    }

    // Shrinkage-covariance Gaussian of the cluster, factored once.
    linalg::Matrix points(static_cast<int>(members.size()), dims);
    for (size_t r = 0; r < members.size(); ++r) {
      points.SetRow(static_cast<int>(r), view.class_points[static_cast<size_t>(members[r])]);
    }
    TSAUG_RETURN_IF_ERROR(AppendGaussianDraws(
        points, quota[static_cast<size_t>(c)], view.channels, view.length,
        "ohit: cluster", rng, out));
  }
  return out;
}

}  // namespace tsaug::augment
