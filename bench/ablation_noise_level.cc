// Ablation: noise level sweep. The paper fixes l in {1,3,5} (Eq. 6); this
// bench sweeps a finer grid on three datasets of different difficulty to
// show where the level starts to hurt, with ROCKET as the probe model.
#include <cstdio>
#include <memory>

#include "bench_settings.h"
#include "augment/noise.h"

int main() {
  tsaug::eval::BenchSettings settings = tsaug::bench::ReadSettingsOrExit();
  if (settings.datasets.empty()) {
    settings.datasets = {"Epilepsy", "Heartbeat", "EthanolConcentration"};
  }
  const tsaug::eval::ExperimentConfig config =
      tsaug::eval::MakeExperimentConfig(settings,
                                        tsaug::eval::ModelKind::kRocket);

  std::vector<std::shared_ptr<tsaug::augment::Augmenter>> sweep;
  for (double level : {0.5, 1.0, 2.0, 3.0, 5.0, 7.0}) {
    sweep.push_back(std::make_shared<tsaug::augment::NoiseInjection>(level));
  }

  std::printf("ABLATION: noise level sweep (ROCKET accuracy %%)\n");
  std::printf("%-24s %8s", "dataset", "baseline");
  for (const auto& technique : sweep) {
    std::printf(" %10s", technique->name().c_str());
  }
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
  std::printf("\nExpected shape: mild levels are safe; large levels degrade "
              "hard datasets first (cf. EigenWorms in Table IV).\n");
  return 0;
}
