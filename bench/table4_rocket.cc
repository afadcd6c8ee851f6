// Reproduces Table IV: accuracy of the ROCKET baseline vs the five
// augmentation techniques (noise_1/3/5, SMOTE, TimeGAN) on the 13
// imbalanced UEA-like datasets, plus the per-dataset best-technique
// relative improvement and its average.
//
// Default settings run at TSAUG_SCALE=tiny with 1 run so the whole bench
// suite fits one core; set TSAUG_SCALE=paper TSAUG_RUNS=5 (and hours of
// CPU) for the paper's protocol. See EXPERIMENTS.md.
//
// Durable runs: --journal=PATH records completed cells so a killed or
// interrupted sweep resumes where it stopped; --cell-budget-seconds=S
// fails any single cell that overruns S seconds without aborting the
// sweep. SIGINT/SIGTERM stop cooperatively: the journal is flushed and a
// partial report marked INTERRUPTED is printed.
#include <iostream>

#include "bench_settings.h"
#include "core/cancel.h"

int main(int argc, char** argv) {
  tsaug::core::InstallStopSignalHandlers();
  tsaug::eval::BenchSettings settings = tsaug::bench::ReadSettingsOrExit();
  tsaug::bench::ApplyGridFlagsOrExit(argc, argv, settings);
  const tsaug::core::StatusOr<tsaug::eval::StudyResult> study =
      tsaug::eval::RunStudy(settings, tsaug::eval::ModelKind::kRocket);
  if (!study.ok()) {
    std::cerr << study.status().ToString() << "\n";
    return 1;
  }
  const tsaug::eval::StudyResult& result = *study;
  std::cout << "\nTABLE IV: Accuracy for ROCKET baseline model, and relative "
               "improvement\n";
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
            << " (paper: 10 / 13, avg improvement 1.55%)\n";
  return 0;
}
