// Reproduces Table VI: count of improvement occurrences over the baseline
// per technique family (SMOTE / TimeGAN / noise) for both models. Derived
// from the same grids as Tables IV and V.
//
// Paper reference: SMOTE 8/8, TimeGAN 7/4, Noise 7/8 (ROCKET/InceptionTime).
#include <iostream>

#include "bench_settings.h"

int main() {
  const tsaug::eval::BenchSettings settings =
      tsaug::bench::ReadSettingsOrExit();
  std::cerr << "Running the ROCKET grid...\n";
  const tsaug::core::StatusOr<tsaug::eval::StudyResult> rocket =
      tsaug::eval::RunStudy(settings, tsaug::eval::ModelKind::kRocket);
  if (!rocket.ok()) {
    std::cerr << rocket.status().ToString() << "\n";
    return 1;
  }
  std::cerr << "Running the InceptionTime grid...\n";
  const tsaug::core::StatusOr<tsaug::eval::StudyResult> inception =
      tsaug::eval::RunStudy(settings, tsaug::eval::ModelKind::kInceptionTime);
  if (!inception.ok()) {
    std::cerr << inception.status().ToString() << "\n";
    return 1;
  }

  std::cout << "\nTABLE VI: Count of improvement occurrences over baseline\n";
  tsaug::eval::PrintImprovementCounts(*rocket, *inception, std::cout);
  std::cout << "\nPaper reference: SMOTE 8 / 8, TimeGAN 7 / 4, Noise 7 / 8\n";
  return 0;
}
