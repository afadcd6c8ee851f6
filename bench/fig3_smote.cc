// Reproduces Figure 3: SMOTE oversampling. Generated points are convex
// combinations of same-class neighbours, so they stay inside the minority
// class's convex hull -- far fewer boundary violations than noise.
#include <cstdio>

#include "augment/noise.h"
#include "augment/oversample.h"
#include "fig_demo_common.h"

int main(int argc, char** argv) {
  const std::string trace_path = tsaug::bench::EnableTraceFromArgs(argc, argv);

  constexpr double kSeparation = 3.0;
  const tsaug::core::Dataset data =
      tsaug::bench::TwoGaussians(40, 10, kSeparation, 0.8, /*seed=*/2);

  std::printf("FIGURE 3: SMOTE (class1 = minority)\n");
  std::printf("kind,x,y\n");
  tsaug::bench::PrintDataset(data);

  tsaug::augment::Smote smote;
  tsaug::core::Rng rng(5);
  tsaug::bench::PrintPoints("generated_smote",
                            smote.TryGenerate(data, 1, 12, rng).value());

  std::printf("\nBoundary violations out of 500 generated minority points:\n");
  tsaug::augment::Smote smote_counter;
  tsaug::augment::NoiseInjection noise(3.0);
  const int smote_violations =
      tsaug::bench::CountViolations(smote_counter, data, kSeparation, 500, 9);
  const int noise_violations =
      tsaug::bench::CountViolations(noise, data, kSeparation, 500, 9);
  std::printf("  smote:     %3d / 500 (%.1f%%)\n", smote_violations,
              100.0 * smote_violations / 500.0);
  std::printf("  noise_3.0: %3d / 500 (%.1f%%) for comparison\n",
              noise_violations, 100.0 * noise_violations / 500.0);
  std::printf("Convex combinations stay inside the class hull.\n");
  if (!tsaug::bench::WriteTraceJson(trace_path)) {
    std::fprintf(stderr, "failed to write trace JSON to %s\n",
                 trace_path.c_str());
    return 1;
  }
  return 0;
}
