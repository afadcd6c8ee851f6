// Reproduces Figure 5: label-preserving range techniques. Plain noise
// pushes synthetic minority points over the decision boundary; the range
// method caps the perturbation at a fraction of the distance to the
// nearest enemy, so no generated point crosses.
#include <cstdio>

#include "augment/noise.h"
#include "augment/preserving.h"
#include "fig_demo_common.h"

int main(int argc, char** argv) {
  const std::string trace_path = tsaug::bench::EnableTraceFromArgs(argc, argv);

  // Classes closer together than in fig2: the regime where plain noise
  // actively mislabels.
  constexpr double kSeparation = 2.0;
  const tsaug::core::Dataset data =
      tsaug::bench::TwoGaussians(40, 10, kSeparation, 0.5, /*seed=*/4);

  std::printf("FIGURE 5: label-preserving range noise vs plain noise\n");
  std::printf("kind,x,y\n");
  tsaug::bench::PrintDataset(data);

  tsaug::augment::NoiseInjection plain(3.0);
  tsaug::augment::RangeNoise range(0.5);
  {
    tsaug::core::Rng rng(8);
    tsaug::bench::PrintPoints("generated_plain_noise",
                              plain.TryGenerate(data, 1, 12, rng).value());
  }
  {
    tsaug::core::Rng rng(8);
    tsaug::bench::PrintPoints("generated_range_noise",
                              range.TryGenerate(data, 1, 12, rng).value());
  }

  const int plain_violations =
      tsaug::bench::CountViolations(plain, data, kSeparation, 500, 13);
  const int range_violations =
      tsaug::bench::CountViolations(range, data, kSeparation, 500, 13);
  std::printf("\nBoundary violations out of 500 generated minority points:\n");
  std::printf("  plain noise_3.0: %3d / 500 (%.1f%%)\n", plain_violations,
              100.0 * plain_violations / 500.0);
  std::printf("  range noise:     %3d / 500 (%.1f%%)\n", range_violations,
              100.0 * range_violations / 500.0);
  std::printf("The range method modulates the noise amplitude per seed so "
              "generated data keep their label (paper Sec. III-C).\n");
  if (!tsaug::bench::WriteTraceJson(trace_path)) {
    std::fprintf(stderr, "failed to write trace JSON to %s\n",
                 trace_path.c_str());
    return 1;
  }
  return 0;
}
