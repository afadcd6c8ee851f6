#ifndef TSAUG_AUGMENT_PIPELINE_H_
#define TSAUG_AUGMENT_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "augment/augmenter.h"

namespace tsaug::augment {

/// Composition of augmenters, in the spirit of the paper's future-work
/// suggestion (CutMix-style pipelines): every TryGenerate() call delegates
/// to a uniformly random member, so the synthetic pool mixes techniques
/// from several taxonomy branches.
class RandomChoiceAugmenter : public Augmenter {
 public:
  explicit RandomChoiceAugmenter(
      std::vector<std::shared_ptr<Augmenter>> members,
      std::string name = "random_mix");

  std::string name() const override { return name_; }
  /// Reports the branch of its first member (a mix has no single branch).
  TaxonomyBranch branch() const override;

  core::StatusOr<std::vector<core::TimeSeries>> DoGenerate(
      const core::Dataset& train, int label, int count,
      core::Rng& rng) override;

 private:
  std::vector<std::shared_ptr<Augmenter>> members_;
  std::string name_;
};

/// An entry of the taxonomy registry (Figure 1): a ready-to-use instance
/// of every augmenter in the library with its branch.
struct TaxonomyEntry {
  std::shared_ptr<Augmenter> augmenter;
  TaxonomyBranch branch;
};

/// Instantiates (with default parameters) one augmenter per technique
/// implemented in this library, grouped as in Figure 1. TimeGAN is included
/// with a reduced training schedule; pass include_timegan=false to skip it
/// in quick sweeps.
std::vector<TaxonomyEntry> BuildTaxonomy(bool include_timegan = true);

/// The paper's five experimental techniques: noise_1, noise_3, noise_5,
/// SMOTE, TimeGAN (configured via `timegan_config`).
std::vector<std::shared_ptr<Augmenter>> PaperTechniques(
    const struct TimeGanConfig& timegan_config);

}  // namespace tsaug::augment

#endif  // TSAUG_AUGMENT_PIPELINE_H_
