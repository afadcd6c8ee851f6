// Extension beyond the paper's five techniques: run EVERY implemented
// taxonomy branch through the same balancing protocol on a subset of
// datasets, with ROCKET as the probe model. This is the experiment the
// paper's future-work section sketches (comparing branches, and a
// random-mix pipeline in the spirit of CutMix-style composition).
#include <cstdio>
#include <memory>

#include "bench_settings.h"
#include "augment/basic_time.h"
#include "augment/noise.h"
#include "augment/oversample.h"
#include "augment/pipeline.h"
#include "augment/preserving.h"

int main() {
  tsaug::eval::BenchSettings settings = tsaug::bench::ReadSettingsOrExit();
  if (settings.datasets.empty()) {
    settings.datasets = {"RacketSports", "LSST", "Heartbeat"};
  }
  const tsaug::eval::ExperimentConfig config =
      tsaug::eval::MakeExperimentConfig(settings,
                                        tsaug::eval::ModelKind::kRocket);

  // All branches except TimeGAN (covered by Table IV; too slow to repeat
  // here), plus a uniform random mix of four cheap techniques.
  std::vector<std::shared_ptr<tsaug::augment::Augmenter>> sweep;
  for (const tsaug::augment::TaxonomyEntry& entry :
       tsaug::augment::BuildTaxonomy(/*include_timegan=*/false)) {
    sweep.push_back(entry.augmenter);
  }
  sweep.push_back(std::make_shared<tsaug::augment::RandomChoiceAugmenter>(
      std::vector<std::shared_ptr<tsaug::augment::Augmenter>>{
          std::make_shared<tsaug::augment::NoiseInjection>(1.0),
          std::make_shared<tsaug::augment::Smote>(),
          std::make_shared<tsaug::augment::TimeWarp>(),
          std::make_shared<tsaug::augment::RangeNoise>()}));

  std::printf("ABLATION: full taxonomy sweep (ROCKET accuracy %%)\n");
  for (const std::string& name : settings.datasets) {
    const tsaug::data::TrainTest data =
        tsaug::data::MakeUeaLikeDataset(name, settings.scale, settings.seed);
    const tsaug::eval::DatasetRow row = tsaug::bench::ValueOrExit(
        tsaug::eval::TryRunDatasetGrid(name, data, sweep, config));
    std::printf("\n%s (baseline %.2f):\n", name.c_str(),
                100.0 * row.baseline_accuracy);
    for (const tsaug::eval::CellResult& cell : row.cells) {
      std::printf("  %-22s %6.2f  (%+.2f%%)\n", cell.technique.c_str(),
                  100.0 * cell.accuracy,
                  100.0 * tsaug::eval::RelativeGain(cell.accuracy,
                                                    row.baseline_accuracy));
    }
    std::printf("  best: %s\n", row.BestTechnique().c_str());
  }
  return 0;
}
