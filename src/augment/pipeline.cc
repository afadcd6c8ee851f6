#include "augment/pipeline.h"

#include <memory>

#include "augment/basic_time.h"
#include "augment/dba.h"
#include "augment/decompose.h"
#include "augment/emd.h"
#include "augment/frequency.h"
#include "augment/generative.h"
#include "augment/guided_warp.h"
#include "augment/meboot.h"
#include "augment/noise.h"
#include "augment/oversample.h"
#include "augment/preserving.h"
#include "augment/timegan.h"
#include "augment/vae.h"

namespace tsaug::augment {

RandomChoiceAugmenter::RandomChoiceAugmenter(
    std::vector<std::shared_ptr<Augmenter>> members, std::string name)
    : members_(std::move(members)), name_(std::move(name)) {
  TSAUG_CHECK(!members_.empty());
}

TaxonomyBranch RandomChoiceAugmenter::branch() const {
  return members_.front()->branch();
}

core::StatusOr<std::vector<core::TimeSeries>> RandomChoiceAugmenter::DoGenerate(
    const core::Dataset& train, int label, int count, core::Rng& rng) {
  std::vector<core::TimeSeries> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    Augmenter& member = *rng.Choice(members_);
    core::StatusOr<std::vector<core::TimeSeries>> one =
        member.TryGenerate(train, label, 1, rng);
    if (!one.ok()) {
      core::Status status = one.status();
      return status.AddContext(name_);
    }
    TSAUG_CHECK(one->size() == 1u);
    out.push_back(std::move((*one)[0]));
  }
  return out;
}

std::vector<TaxonomyEntry> BuildTaxonomy(bool include_timegan) {
  std::vector<TaxonomyEntry> taxonomy;
  auto add = [&](std::shared_ptr<Augmenter> augmenter) {
    const TaxonomyBranch branch = augmenter->branch();
    taxonomy.push_back({std::move(augmenter), branch});
  };
  // Basic / time domain.
  add(std::make_shared<NoiseInjection>(1.0));
  add(std::make_shared<NoiseInjection>(3.0));
  add(std::make_shared<NoiseInjection>(5.0));
  add(std::make_shared<Scaling>());
  add(std::make_shared<Rotation>());
  add(std::make_shared<WindowSlicing>());
  add(std::make_shared<Permutation>());
  add(std::make_shared<Masking>());
  add(std::make_shared<Dropout>());
  add(std::make_shared<MagnitudeWarp>());
  add(std::make_shared<TimeWarp>());
  add(std::make_shared<WindowWarp>());
  add(std::make_shared<DtwGuidedWarp>());
  add(std::make_shared<DbaAugmenter>());
  // Basic / frequency domain.
  add(std::make_shared<FrequencyPerturbation>());
  add(std::make_shared<SpectrogramMasking>());
  // Basic / oversampling.
  add(std::make_shared<Smote>());
  add(std::make_shared<BorderlineSmote>());
  add(std::make_shared<Adasyn>());
  add(std::make_shared<RandomInterpolation>());
  add(std::make_shared<RandomOversampling>());
  // Basic / decomposition.
  add(std::make_shared<DecompositionAugmenter>());
  add(std::make_shared<EmdAugmenter>());
  // Generative.
  add(std::make_shared<GaussianGenerator>());
  add(std::make_shared<MaximumEntropyBootstrap>());
  add(std::make_shared<ArGenerator>());
  if (include_timegan) {
    add(std::make_shared<TimeGanAugmenter>());
  }
  {
    // VAE with a registry-friendly reduced schedule (like TimeGAN's).
    VaeConfig vae;
    vae.epochs = 120;
    add(std::make_shared<VaeAugmenter>(vae));
  }
  // Preserving.
  add(std::make_shared<RangeNoise>());
  add(std::make_shared<Ohit>());
  add(std::make_shared<Inos>());
  return taxonomy;
}

std::vector<std::shared_ptr<Augmenter>> PaperTechniques(
    const TimeGanConfig& timegan_config) {
  return {
      std::make_shared<NoiseInjection>(1.0),
      std::make_shared<NoiseInjection>(3.0),
      std::make_shared<NoiseInjection>(5.0),
      std::make_shared<Smote>(),
      // A diverged GAN degrades the cell to SMOTE samples (recorded via the
      // "timegan.fallback" trace counter) instead of failing it outright.
      std::make_shared<TimeGanAugmenter>(timegan_config,
                                         std::make_unique<Smote>()),
  };
}

}  // namespace tsaug::augment
