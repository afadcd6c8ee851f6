// Ablation: SMOTE neighbour count. The paper uses k = min(5, n-1); this
// bench sweeps k to show its (usually small) effect, and contrasts SMOTE
// against its borderline/adaptive variants at the paper's k.
#include <cstdio>
#include <memory>

#include "bench_settings.h"
#include "augment/oversample.h"

int main() {
  tsaug::eval::BenchSettings settings = tsaug::bench::ReadSettingsOrExit();
  if (settings.datasets.empty()) {
    settings.datasets = {"LSST", "RacketSports"};
  }
  const tsaug::eval::ExperimentConfig config =
      tsaug::eval::MakeExperimentConfig(settings,
                                        tsaug::eval::ModelKind::kRocket);

  std::vector<std::shared_ptr<tsaug::augment::Augmenter>> sweep = {
      std::make_shared<tsaug::augment::Smote>(1),
      std::make_shared<tsaug::augment::Smote>(3),
      std::make_shared<tsaug::augment::Smote>(5),
      std::make_shared<tsaug::augment::Smote>(10),
      std::make_shared<tsaug::augment::BorderlineSmote>(5),
      std::make_shared<tsaug::augment::Adasyn>(5),
      std::make_shared<tsaug::augment::RandomInterpolation>(),
      std::make_shared<tsaug::augment::RandomOversampling>(),
  };
  const char* labels[] = {"smote_k1", "smote_k3",   "smote_k5",
                          "smote_k10", "borderline", "adasyn",
                          "interp",    "duplicate"};

  std::printf("ABLATION: SMOTE-family sweep (ROCKET accuracy %%)\n");
  std::printf("%-24s %8s", "dataset", "baseline");
  for (const char* label : labels) std::printf(" %10s", label);
  std::printf("\n");
  for (const std::string& name : settings.datasets) {
    const tsaug::data::TrainTest data =
        tsaug::data::MakeUeaLikeDataset(name, settings.scale, settings.seed);
    const tsaug::eval::DatasetRow row = tsaug::bench::ValueOrExit(
        tsaug::eval::TryRunDatasetGrid(name, data, sweep, config));
    std::printf("%-24s %8.2f", name.c_str(), 100.0 * row.baseline_accuracy);
    for (const tsaug::eval::CellResult& cell : row.cells) {
      std::printf(" %10.2f", 100.0 * cell.accuracy);
    }
    std::printf("\n");
  }
  return 0;
}
