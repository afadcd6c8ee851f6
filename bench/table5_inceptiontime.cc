// Reproduces Table V: accuracy of the InceptionTime baseline vs the five
// augmentation techniques on the 13 imbalanced UEA-like datasets, with the
// paper's protocol (2:1 train/validation split, augmented data only in the
// training portion, early stopping on validation accuracy).
//
// Scaled by TSAUG_* environment knobs; see EXPERIMENTS.md. Durable runs:
// --journal=PATH resumes a killed sweep, --cell-budget-seconds=S bounds
// each cell's wall time, SIGINT/SIGTERM stop cooperatively with a flushed
// journal and a partial report marked INTERRUPTED.
#include <iostream>

#include "bench_settings.h"
#include "core/cancel.h"

int main(int argc, char** argv) {
  tsaug::core::InstallStopSignalHandlers();
  tsaug::eval::BenchSettings settings = tsaug::bench::ReadSettingsOrExit();
  tsaug::bench::ApplyGridFlagsOrExit(argc, argv, settings);
  const tsaug::core::StatusOr<tsaug::eval::StudyResult> study =
      tsaug::eval::RunStudy(settings, tsaug::eval::ModelKind::kInceptionTime);
  if (!study.ok()) {
    std::cerr << study.status().ToString() << "\n";
    return 1;
  }
  const tsaug::eval::StudyResult& result = *study;
  std::cout << "\nTABLE V: Accuracy for InceptionTime baseline model, and "
               "relative improvement\n";
  if (result.rows.empty()) {
    std::cout << "INTERRUPTED: stopped before any dataset completed.\n";
    return 0;
  }
  tsaug::eval::PrintAccuracyTable(result, std::cout);

  int improved = 0;
  for (const tsaug::eval::DatasetRow& row : result.rows) {
    if (row.BestAugmentedAccuracy() > row.baseline_accuracy) ++improved;
  }
  std::cout << "\nDatasets improved by best augmentation: " << improved
            << " / " << result.rows.size()
            << " (paper: 10 / 13, avg improvement 0.56%)\n";
  return 0;
}
