#ifndef TSAUG_AUGMENT_CLASS_MODELS_H_
#define TSAUG_AUGMENT_CLASS_MODELS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/cancel.h"
#include "core/dataset.h"
#include "core/faultpoint.h"
#include "core/parallel.h"
#include "core/status.h"
#include "core/trace.h"

namespace tsaug::augment {

/// Per-class cache of fitted generative models, shared by the augmenters
/// that train one model per class (TimeGAN, VAE; the paper: "we provide to
/// the timeGANs, for each training, time series coming from a single
/// class").
///
/// A class's fit reads only the class's members and a seed derived from
/// the augmenter's base seed and the label; it never draws from the
/// caller's shared Rng. Fits of different classes are therefore
/// independent: Prefit() runs them concurrently on the thread pool and
/// yields the same models, bit for bit, as fitting each class inline on
/// first use through Get().
///
/// Every fit, pooled or inline, runs under the caller's stop token and in
/// its own fault sub-domain "<caller domain>/class<label>". A cell's
/// deadline thus follows its fits onto pool workers, and fault-point hit
/// counts stay per class, independent of how the fits are scheduled.
template <typename Model>
class ClassModelCache {
 public:
  /// Trains one class's model on `members` (indices into `train`) from
  /// `seed`.
  using FitFn = std::function<core::StatusOr<std::unique_ptr<Model>>(
      const core::Dataset& train, const std::vector<int>& members,
      std::uint64_t seed)>;

  ClassModelCache(std::uint64_t base_seed, FitFn fit)
      : base_seed_(base_seed), fit_(std::move(fit)) {}

  /// Fits every label of `labels` (distinct, ascending) that is neither
  /// cached nor known to fail, concurrently. Traced as `scope`, with the
  /// number of classes fitted counted under "augment.prefit_classes".
  void Prefit(const std::string& scope, const core::Dataset& train,
              const std::vector<int>& labels) {
    std::vector<int> pending;
    for (int label : labels) {
      if (!Known(label)) pending.push_back(label);
    }
    if (pending.empty()) return;

    core::trace::Scope trace_scope(scope);
    core::trace::AddCount("augment.prefit_classes",
                          static_cast<std::int64_t>(pending.size()));
    const core::StopToken token = core::CurrentStopToken();
    const std::string domain = core::fault::CurrentDomain();
    // A slot stays empty only when a process-wide stop abandoned its chunk;
    // that class is then left to Get(), whose fit reports the stop.
    std::vector<std::optional<core::StatusOr<std::unique_ptr<Model>>>> slots(
        pending.size());
    // Determinism: each class fits from its own label-seeded Rng and writes
    // only its own slot; the merge below runs serially in label order.
    core::ParallelFor(
        0, static_cast<std::int64_t>(pending.size()), 1,
        [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t i = lo; i < hi; ++i) {
            slots[static_cast<size_t>(i)].emplace(
                FitClass(train, pending[static_cast<size_t>(i)], token, domain));
          }
        });
    for (size_t i = 0; i < pending.size(); ++i) {
      if (slots[i].has_value()) Store(pending[i], std::move(*slots[i]));
    }
  }

  /// The model of `label`, fitting it inline on a miss. A class whose fit
  /// failed, now or in an earlier call, returns that Status: the failure
  /// is cached so the class is not retrained every call.
  core::StatusOr<Model*> Get(const core::Dataset& train, int label) {
    if (!Known(label)) {
      Store(label, FitClass(train, label, core::CurrentStopToken(),
                            core::fault::CurrentDomain()));
    }
    if (auto failed = failed_.find(label); failed != failed_.end()) {
      return failed->second;
    }
    return models_.at(label).get();
  }

  /// Drops every cached model and failure (call when switching datasets).
  void Clear() {
    models_.clear();
    failed_.clear();
  }

 private:
  bool Known(int label) const {
    return models_.count(label) != 0 || failed_.count(label) != 0;
  }

  core::StatusOr<std::unique_ptr<Model>> FitClass(
      const core::Dataset& train, int label, const core::StopToken& token,
      const std::string& domain) const {
    core::ScopedStopToken scoped_token(token);
    core::fault::ScopedDomain scoped_domain(domain + "/class" +
                                            std::to_string(label));
    std::vector<int> members;
    const std::vector<int>& labels = train.labels();
    for (size_t i = 0; i < labels.size(); ++i) {
      if (labels[i] == label) members.push_back(static_cast<int>(i));
    }
    const std::uint64_t seed =
        base_seed_ ^ (0x5eedull + static_cast<unsigned long long>(label) *
                                      1000003ull);
    return fit_(train, members, seed);
  }

  void Store(int label, core::StatusOr<std::unique_ptr<Model>> fitted) {
    if (fitted.ok()) {
      models_.emplace(label, std::move(fitted).value());
    } else {
      failed_.emplace(label, fitted.status());
    }
  }

  std::uint64_t base_seed_;
  FitFn fit_;
  std::map<int, std::unique_ptr<Model>> models_;
  std::map<int, core::Status> failed_;
};

}  // namespace tsaug::augment

#endif  // TSAUG_AUGMENT_CLASS_MODELS_H_
