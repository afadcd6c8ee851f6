#include "augment/oversample.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/faultpoint.h"
#include "core/preprocess.h"
#include "linalg/knn.h"

namespace tsaug::augment {
namespace {

// Flattened, imputed, length-normalised view of a dataset: every series
// becomes one point of dimension channels * max_length.
struct FlatView {
  std::vector<std::vector<double>> points;  // all instances
  std::vector<int> labels;
  std::vector<int> class_members;  // indices (into points) of the class
  int channels = 0;
  int length = 0;
};

FlatView Flatten(const core::Dataset& train, int label) {
  FlatView view;
  view.channels = train.num_channels();
  view.length = train.max_length();
  view.points.reserve(static_cast<size_t>(train.size()));
  for (int i = 0; i < train.size(); ++i) {
    core::TimeSeries s = core::ImputeLinear(train.series(i));
    if (s.length() != view.length) s = core::ResampleToLength(s, view.length);
    view.points.push_back(s.Flatten());
    view.labels.push_back(train.label(i));
    if (train.label(i) == label) {
      view.class_members.push_back(static_cast<int>(view.points.size()) - 1);
    }
  }
  return view;
}

core::TimeSeries Unflatten(const std::vector<double>& flat,
                           const FlatView& view) {
  return core::TimeSeries::FromFlat(flat, view.channels, view.length);
}

std::vector<double> Interpolate(const std::vector<double>& a,
                                const std::vector<double>& b, double u) {
  std::vector<double> out(a.size());
  for (size_t d = 0; d < a.size(); ++d) out[d] = a[d] + u * (b[d] - a[d]);
  return out;
}

// Same-class k-NN lists for each member of the class (indices into
// view.class_members).
std::vector<std::vector<int>> ClassNeighborLists(const FlatView& view, int k) {
  std::vector<std::vector<double>> class_points;
  class_points.reserve(view.class_members.size());
  for (int idx : view.class_members) class_points.push_back(view.points[static_cast<size_t>(idx)]);
  std::vector<std::vector<int>> lists(class_points.size());
  for (size_t i = 0; i < class_points.size(); ++i) {
    lists[i] = linalg::KNearestNeighbors(class_points, class_points[i], k,
                                         static_cast<int>(i));
  }
  return lists;
}

// Fraction of other-class instances among the k nearest neighbours (over
// the whole dataset) of each class member.
std::vector<double> EnemyFractions(const FlatView& view, int label, int k) {
  std::vector<double> fractions(view.class_members.size(), 0.0);
  for (size_t i = 0; i < view.class_members.size(); ++i) {
    const int self = view.class_members[i];
    const std::vector<int> neighbors =
        linalg::KNearestNeighbors(view.points, view.points[static_cast<size_t>(self)], k, self);
    if (neighbors.empty()) continue;
    int enemies = 0;
    for (int n : neighbors) {
      if (view.labels[static_cast<size_t>(n)] != label) ++enemies;
    }
    fractions[i] = static_cast<double>(enemies) / static_cast<double>(neighbors.size());
  }
  return fractions;
}

}  // namespace

Smote::Smote(int k_neighbors) : k_neighbors_(k_neighbors) {
  TSAUG_CHECK(k_neighbors >= 1);
}

core::StatusOr<std::vector<core::TimeSeries>> Smote::DoGenerate(
    const core::Dataset& train, int label, int count, core::Rng& rng) {
  if (core::fault::ShouldFail("smote.generate")) {
    return core::fault::InjectedAt("smote.generate");
  }
  const FlatView view = Flatten(train, label);
  const int class_size = static_cast<int>(view.class_members.size());

  std::vector<core::TimeSeries> out;
  out.reserve(static_cast<size_t>(count));
  if (class_size == 1) {
    // Recovery policy for a singleton class: no neighbour exists to
    // interpolate toward, so jitter-resample the lone member — Gaussian
    // noise at 5% of its own spread — instead of duplicating it verbatim
    // (duplicates add no variance and make downstream solves singular).
    const std::vector<double>& base =
        view.points[static_cast<size_t>(view.class_members[0])];
    double mean = 0.0;
    for (double v : base) mean += v;
    mean /= static_cast<double>(base.size());
    double var = 0.0;
    for (double v : base) var += (v - mean) * (v - mean);
    var /= static_cast<double>(base.size());
    double sigma = 0.05 * std::sqrt(var);
    if (!(sigma > 0.0) || !std::isfinite(sigma)) sigma = 0.05;
    for (int i = 0; i < count; ++i) {
      std::vector<double> jittered = base;
      for (double& v : jittered) v += rng.Normal(0.0, sigma);
      out.push_back(Unflatten(jittered, view));
    }
    return out;
  }

  // The paper's rule: k = min(k_neighbors, class_size - 1).
  const int k = std::min(k_neighbors_, class_size - 1);
  const std::vector<std::vector<int>> neighbor_lists =
      ClassNeighborLists(view, k);

  for (int i = 0; i < count; ++i) {
    const int seed = rng.Index(class_size);
    const std::vector<int>& neighbors = neighbor_lists[static_cast<size_t>(seed)];
    const int partner = view.class_members[static_cast<size_t>(rng.Choice(neighbors))];
    out.push_back(Unflatten(
        Interpolate(view.points[static_cast<size_t>(view.class_members[static_cast<size_t>(seed)])],
                    view.points[static_cast<size_t>(partner)], rng.Uniform()),
        view));
  }
  return out;
}

BorderlineSmote::BorderlineSmote(int k_neighbors)
    : k_neighbors_(k_neighbors) {
  TSAUG_CHECK(k_neighbors >= 1);
}

core::StatusOr<std::vector<core::TimeSeries>> BorderlineSmote::DoGenerate(
    const core::Dataset& train, int label, int count, core::Rng& rng) {
  const FlatView view = Flatten(train, label);
  const int class_size = static_cast<int>(view.class_members.size());
  if (class_size == 1) {
    return Smote(k_neighbors_).TryGenerate(train, label, count, rng);
  }

  const int k = std::min(k_neighbors_, static_cast<int>(view.points.size()) - 1);
  const std::vector<double> enemy = EnemyFractions(view, label, k);

  // Danger set: mostly-but-not-entirely surrounded by enemies.
  std::vector<int> danger;
  for (size_t i = 0; i < enemy.size(); ++i) {
    if (enemy[i] >= 0.5 && enemy[i] < 1.0) danger.push_back(static_cast<int>(i));
  }
  if (danger.empty()) {
    // No borderline region: fall back to plain SMOTE.
    return Smote(k_neighbors_).TryGenerate(train, label, count, rng);
  }

  const int k_class = std::min(k_neighbors_, class_size - 1);
  const std::vector<std::vector<int>> neighbor_lists =
      ClassNeighborLists(view, k_class);

  std::vector<core::TimeSeries> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int seed = rng.Choice(danger);
    const std::vector<int>& neighbors = neighbor_lists[static_cast<size_t>(seed)];
    const int partner = view.class_members[static_cast<size_t>(rng.Choice(neighbors))];
    out.push_back(Unflatten(
        Interpolate(view.points[static_cast<size_t>(view.class_members[static_cast<size_t>(seed)])],
                    view.points[static_cast<size_t>(partner)], rng.Uniform()),
        view));
  }
  return out;
}

Adasyn::Adasyn(int k_neighbors) : k_neighbors_(k_neighbors) {
  TSAUG_CHECK(k_neighbors >= 1);
}

core::StatusOr<std::vector<core::TimeSeries>> Adasyn::DoGenerate(
    const core::Dataset& train, int label, int count, core::Rng& rng) {
  const FlatView view = Flatten(train, label);
  const int class_size = static_cast<int>(view.class_members.size());
  if (class_size == 1) {
    return Smote(k_neighbors_).TryGenerate(train, label, count, rng);
  }

  const int k = std::min(k_neighbors_, static_cast<int>(view.points.size()) - 1);
  std::vector<double> weights = EnemyFractions(view, label, k);
  double total = 0.0;
  for (double w : weights) total += w;
  if (total <= 0.0) {
    // Interior class: uniform seeding, equivalent to SMOTE.
    std::fill(weights.begin(), weights.end(), 1.0);
    total = static_cast<double>(weights.size());
  }

  const int k_class = std::min(k_neighbors_, class_size - 1);
  const std::vector<std::vector<int>> neighbor_lists =
      ClassNeighborLists(view, k_class);

  std::vector<core::TimeSeries> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    // Sample a seed proportionally to its enemy weight.
    double pick = rng.Uniform(0.0, total);
    int seed = 0;
    for (size_t j = 0; j < weights.size(); ++j) {
      pick -= weights[j];
      if (pick <= 0.0) {
        seed = static_cast<int>(j);
        break;
      }
    }
    const std::vector<int>& neighbors = neighbor_lists[static_cast<size_t>(seed)];
    const int partner = view.class_members[static_cast<size_t>(rng.Choice(neighbors))];
    out.push_back(Unflatten(
        Interpolate(view.points[static_cast<size_t>(view.class_members[static_cast<size_t>(seed)])],
                    view.points[static_cast<size_t>(partner)], rng.Uniform()),
        view));
  }
  return out;
}

core::StatusOr<std::vector<core::TimeSeries>> RandomInterpolation::DoGenerate(
    const core::Dataset& train, int label, int count, core::Rng& rng) {
  const FlatView view = Flatten(train, label);
  const int class_size = static_cast<int>(view.class_members.size());
  std::vector<core::TimeSeries> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int a = view.class_members[static_cast<size_t>(rng.Index(class_size))];
    const int b = view.class_members[static_cast<size_t>(rng.Index(class_size))];
    out.push_back(
        Unflatten(Interpolate(view.points[static_cast<size_t>(a)], view.points[static_cast<size_t>(b)], rng.Uniform()),
                  view));
  }
  return out;
}

core::StatusOr<std::vector<core::TimeSeries>> RandomOversampling::DoGenerate(
    const core::Dataset& train, int label, int count, core::Rng& rng) {
  const std::vector<std::vector<int>> by_class = train.IndicesByClass();
  TSAUG_CHECK(label >= 0 && label < static_cast<int>(by_class.size()));
  const std::vector<int>& members = by_class[static_cast<size_t>(label)];
  std::vector<core::TimeSeries> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    out.push_back(train.series(rng.Choice(members)));
  }
  return out;
}

}  // namespace tsaug::augment
