// Reproduces Table III: the properties of the 13 imbalanced multivariate
// datasets. The synthetic UEA-like datasets are generated at the scale
// selected by TSAUG_SCALE (tiny/small/paper) and their properties computed
// with the paper's definitions (Eq. 4-5 variance, Hellinger imbalance
// degree, train/test mean distance, missing proportion). The catalogue's
// paper-reported values are printed alongside for comparison.
#include <cstdio>
#include <iostream>

#include "bench_settings.h"
#include "core/stats.h"
#include "data/uea_catalog.h"

int main() {
  const tsaug::eval::BenchSettings settings =
      tsaug::bench::ReadSettingsOrExit();

  std::vector<tsaug::core::DatasetProperties> measured;
  std::printf("Generating the 13 UEA-like datasets (TSAUG_SCALE preset)...\n");
  for (const tsaug::data::UeaDatasetInfo& info :
       tsaug::data::UeaImbalancedCatalog()) {
    const tsaug::data::TrainTest data = tsaug::data::MakeUeaLikeDataset(
        info.name, settings.scale, settings.seed);
    measured.push_back(
        tsaug::core::ComputeProperties(info.name, data.train, data.test));
  }

  std::printf("\nTABLE III (measured on generated data):\n");
  tsaug::eval::PrintPropertiesTable(measured, std::cout);

  std::printf("\nPaper-reported geometry (for comparison):\n");
  std::printf("%-24s %9s %10s %5s %6s %8s %9s\n", "Dataset", "n_classes",
              "Train_size", "Dim", "Length", "Im_ratio", "prop_miss");
  for (const tsaug::data::UeaDatasetInfo& info :
       tsaug::data::UeaImbalancedCatalog()) {
    std::printf("%-24s %9d %10d %5d %6d %8.2f %9.2f\n", info.name.c_str(),
                info.n_classes, info.train_size, info.dim, info.length,
                info.im_ratio, info.prop_miss);
  }
  return 0;
}
