#ifndef TSAUG_AUGMENT_AUGMENTER_H_
#define TSAUG_AUGMENT_AUGMENTER_H_

#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/rng.h"
#include "core/status.h"
#include "core/time_series.h"

namespace tsaug::augment {

/// Branches of the paper's taxonomy (Figure 1).
enum class TaxonomyBranch {
  kBasicTime,
  kBasicFrequency,
  kBasicOversampling,
  kBasicDecomposition,
  kGenerativeStatistical,
  kGenerativeNeural,
  kGenerativeProbabilistic,
  kLabelPreserving,
  kStructurePreserving,
};

/// Human-readable branch name as printed in the Figure 1 bench.
std::string TaxonomyBranchName(TaxonomyBranch branch);

/// A data augmentation technique.
///
/// Augmenters are class-conditional generators: given the training set and
/// a class label, they synthesise `count` new series of that class. This
/// covers all the paper's families — transform-based methods sample a seed
/// series of the class and perturb it, oversamplers interpolate between
/// class members, and generative models fit the class distribution first
/// (caching the fit between calls).
class Augmenter {
 public:
  virtual ~Augmenter() = default;

  virtual std::string name() const = 0;
  virtual TaxonomyBranch branch() const = 0;

  /// Generates `count` synthetic series of class `label` using the class's
  /// members in `train` as source material. Non-virtual: wraps the
  /// technique's DoGenerate in a trace scope ("augment.<name()>") and
  /// counts produced samples, so every technique is observable from one
  /// choke point (see src/core/trace.h). Data-dependent failures — a
  /// degenerate class, a diverged generative fit, an injected fault —
  /// come back as a Status the caller can recover from.
  [[nodiscard]] core::StatusOr<std::vector<core::TimeSeries>> TryGenerate(
      const core::Dataset& train, int label, int count, core::Rng& rng);

  /// Announces the classes (distinct, ascending, each with members) the
  /// next TryGenerate calls on `train` will request, so an augmenter that
  /// fits per-class models can fit them all at once, concurrently, before
  /// the caller's serial generation loop.
  /// Must not touch the caller's Rng or change what TryGenerate returns:
  /// it only moves work earlier. Default: no-op.
  virtual void Prefit(const core::Dataset& /*train*/,
                      const std::vector<int>& /*labels*/) {}

  /// Drops any state fitted to a previous training set (generative
  /// augmenters cache per-class models). Default: stateless no-op.
  virtual void Invalidate() {}

 protected:
  /// Technique implementation behind TryGenerate() (same contract).
  virtual core::StatusOr<std::vector<core::TimeSeries>> DoGenerate(
      const core::Dataset& train, int label, int count, core::Rng& rng) = 0;
};

/// Convenience base for label-free transforms: generation draws a random
/// seed series of the class and applies Transform().
class TransformAugmenter : public Augmenter {
 public:
  /// Produces one augmented copy of `series`.
  virtual core::TimeSeries Transform(const core::TimeSeries& series,
                                     core::Rng& rng) const = 0;

 protected:
  core::StatusOr<std::vector<core::TimeSeries>> DoGenerate(
      const core::Dataset& train, int label, int count, core::Rng& rng) final;
};

/// The paper's augmentation protocol: every class is topped up with
/// synthetic instances until the dataset is perfectly balanced (all classes
/// at the majority count). Returns original + synthetic instances.
[[nodiscard]] core::StatusOr<core::Dataset> TryBalanceWithAugmenter(
    const core::Dataset& train, Augmenter& augmenter, core::Rng& rng);

/// Appends `factor` x class_count synthetic instances to every class
/// (factor 1.0 doubles the data). Used by the ablation benches.
[[nodiscard]] core::StatusOr<core::Dataset> TryExpandWithAugmenter(
    const core::Dataset& train, Augmenter& augmenter, double factor,
    core::Rng& rng);

}  // namespace tsaug::augment

#endif  // TSAUG_AUGMENT_AUGMENTER_H_
