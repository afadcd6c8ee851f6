// Ablation: augmentation budget. The paper balances to the majority count;
// this bench compares no augmentation, balance-to-majority (the paper's
// protocol) and balance + extra expansion factors, isolating how much of
// the gain comes from balancing vs sheer data volume.
#include <cstdio>
#include <memory>

#include "bench_settings.h"
#include "augment/oversample.h"

int main() {
  tsaug::eval::BenchSettings settings = tsaug::bench::ReadSettingsOrExit();
  if (settings.datasets.empty()) {
    settings.datasets = {"LSST", "Handwriting", "Heartbeat"};
  }
  const tsaug::eval::ExperimentConfig config =
      tsaug::eval::MakeExperimentConfig(settings,
                                        tsaug::eval::ModelKind::kRocket);

  std::printf("ABLATION: augmentation budget with SMOTE (ROCKET accuracy %%)\n");
  std::printf("%-24s %9s %9s %9s %9s\n", "dataset", "baseline", "balance",
              "bal+0.5x", "bal+1.0x");
  for (const std::string& name : settings.datasets) {
    const tsaug::data::TrainTest data =
        tsaug::data::MakeUeaLikeDataset(name, settings.scale, settings.seed);
    std::printf("%-24s", name.c_str());

    const std::uint64_t run_seed = settings.seed + 7919;
    const double baseline =
        tsaug::bench::ValueOrExit(tsaug::eval::TryTrainAndScore(
            config, data.train, {}, data.test, run_seed)).accuracy;
    std::printf(" %9.2f", 100.0 * baseline);

    for (double extra : {0.0, 0.5, 1.0}) {
      tsaug::augment::Smote smote;
      tsaug::core::Rng rng(run_seed);
      tsaug::core::Dataset augmented = tsaug::bench::ValueOrExit(
          tsaug::augment::TryBalanceWithAugmenter(data.train, smote, rng));
      if (extra > 0.0) {
        augmented = tsaug::bench::ValueOrExit(
            tsaug::augment::TryExpandWithAugmenter(augmented, smote, extra,
                                                   rng));
      }
      const double accuracy =
          tsaug::bench::ValueOrExit(tsaug::eval::TryTrainAndScore(
              config, augmented, {}, data.test, run_seed)).accuracy;
      std::printf(" %9.2f", 100.0 * accuracy);
    }
    std::printf("\n");
  }
  return 0;
}
