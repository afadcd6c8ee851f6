#include "augment/augmenter.h"

#include <utility>

#include "core/trace.h"

namespace tsaug::augment {

std::string TaxonomyBranchName(TaxonomyBranch branch) {
  switch (branch) {
    case TaxonomyBranch::kBasicTime:
      return "Basic / Time domain";
    case TaxonomyBranch::kBasicFrequency:
      return "Basic / Frequency domain";
    case TaxonomyBranch::kBasicOversampling:
      return "Basic / Oversampling";
    case TaxonomyBranch::kBasicDecomposition:
      return "Basic / Decomposition";
    case TaxonomyBranch::kGenerativeStatistical:
      return "Generative / Statistical";
    case TaxonomyBranch::kGenerativeNeural:
      return "Generative / Neural networks";
    case TaxonomyBranch::kGenerativeProbabilistic:
      return "Generative / Probabilistic";
    case TaxonomyBranch::kLabelPreserving:
      return "Preserving / Label-preserving";
    case TaxonomyBranch::kStructurePreserving:
      return "Preserving / Structure-preserving";
  }
  TSAUG_CHECK(false);
  return "";
}

core::StatusOr<std::vector<core::TimeSeries>> Augmenter::TryGenerate(
    const core::Dataset& train, int label, int count, core::Rng& rng) {
  // Preflight at the NVI choke point: one typed guard covers every
  // technique, so no DoGenerate sees the degenerate shapes (empty train,
  // out-of-range label, memberless class) that stress-scenario datasets
  // produce — they come back as a Status instead of tripping a
  // TSAUG_CHECK deep inside one of the sixteen implementations.
  if (count < 0) {
    return core::InvalidArgumentError("augment." + name() + ": count " +
                                      std::to_string(count) +
                                      " is negative");
  }
  if (train.empty()) {
    return core::DegenerateInputError("augment." + name() +
                                      ": training set is empty");
  }
  if (label < 0 || label >= train.num_classes()) {
    return core::InvalidArgumentError(
        "augment." + name() + ": label " + std::to_string(label) +
        " outside [0, " + std::to_string(train.num_classes()) + ")");
  }
  bool has_member = false;
  for (int l : train.labels()) {
    if (l == label) {
      has_member = true;
      break;
    }
  }
  if (!has_member) {
    return core::EmptyClassError("augment." + name() + ": class " +
                                 std::to_string(label) +
                                 " has no instances");
  }
  if (!core::trace::Enabled()) return DoGenerate(train, label, count, rng);
  core::trace::Scope scope("augment." + name());
  core::StatusOr<std::vector<core::TimeSeries>> out =
      DoGenerate(train, label, count, rng);
  if (out.ok()) {
    core::trace::AddCount("augment.samples",
                          static_cast<std::int64_t>(out->size()));
  }
  return out;
}

core::StatusOr<std::vector<core::TimeSeries>> TransformAugmenter::DoGenerate(
    const core::Dataset& train, int label, int count, core::Rng& rng) {
  TSAUG_CHECK(count >= 0);
  const std::vector<std::vector<int>> by_class = train.IndicesByClass();
  TSAUG_CHECK(label >= 0 && label < static_cast<int>(by_class.size()));
  const std::vector<int>& members = by_class[static_cast<size_t>(label)];

  std::vector<core::TimeSeries> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int seed_index = rng.Choice(members);
    out.push_back(Transform(train.series(seed_index), rng));
  }
  return out;
}

namespace {

/// Appends `count` synthetic series of each requested class to a copy of
/// `train`. The augmenter first fits whatever per-class state all the
/// requests need (Prefit), then generation runs serially in request order
/// on the caller's `rng`. `what` names the protocol in error contexts.
core::StatusOr<core::Dataset> AugmentClasses(
    const core::Dataset& train, Augmenter& augmenter,
    const std::vector<std::pair<int, int>>& requests, core::Rng& rng,
    const std::string& what) {
  std::vector<int> labels;
  labels.reserve(requests.size());
  for (const auto& [label, count] : requests) labels.push_back(label);
  augmenter.Prefit(train, labels);

  core::Dataset augmented = train;
  for (const auto& [label, count] : requests) {
    core::StatusOr<std::vector<core::TimeSeries>> generated =
        augmenter.TryGenerate(train, label, count, rng);
    if (!generated.ok()) {
      core::Status status = generated.status();
      return status.AddContext(what + "(" + augmenter.name() + ")");
    }
    for (core::TimeSeries& series : *generated) {
      augmented.Add(std::move(series), label);
    }
  }
  return augmented;
}

}  // namespace

core::StatusOr<core::Dataset> TryBalanceWithAugmenter(
    const core::Dataset& train, Augmenter& augmenter, core::Rng& rng) {
  TSAUG_CHECK(!train.empty());
  const std::vector<int> counts = train.ClassCounts();
  const int majority = counts[static_cast<size_t>(train.MajorityClass())];

  std::vector<std::pair<int, int>> requests;
  for (int label = 0; label < train.num_classes(); ++label) {
    if (counts[static_cast<size_t>(label)] == 0) continue;  // label space may have gaps
    const int deficit = majority - counts[static_cast<size_t>(label)];
    if (deficit > 0) requests.emplace_back(label, deficit);
  }
  return AugmentClasses(train, augmenter, requests, rng, "balance");
}

core::StatusOr<core::Dataset> TryExpandWithAugmenter(
    const core::Dataset& train, Augmenter& augmenter, double factor,
    core::Rng& rng) {
  TSAUG_CHECK(factor >= 0.0);
  const std::vector<int> counts = train.ClassCounts();
  std::vector<std::pair<int, int>> requests;
  for (int label = 0; label < train.num_classes(); ++label) {
    if (counts[static_cast<size_t>(label)] == 0) continue;
    const int extra = static_cast<int>(counts[static_cast<size_t>(label)] * factor + 0.5);
    if (extra > 0) requests.emplace_back(label, extra);
  }
  return AugmentClasses(train, augmenter, requests, rng, "expand");
}

}  // namespace tsaug::augment
