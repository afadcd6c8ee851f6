// Reproduces Figure 2: basic noise injection on a two-class 2-D dataset.
// The figure's message is that plain noise can push generated points over
// the decision boundary; this bench emits the scatter data, quantifies the
// boundary violations for each noise level, and trains a small ROCKET on
// baseline vs. noise-balanced data so the downstream accuracy effect is
// visible too. Pass --trace-json <path> to dump the per-phase profile
// (augment/transform/train scopes) as JSON.
#include <cstdio>

#include "augment/noise.h"
#include "classify/rocket.h"
#include "fig_demo_common.h"

int main(int argc, char** argv) {
  const std::string trace_path = tsaug::bench::EnableTraceFromArgs(argc, argv);

  constexpr double kSeparation = 3.0;
  const tsaug::core::Dataset data =
      tsaug::bench::TwoGaussians(40, 10, kSeparation, 0.8, /*seed=*/1);

  std::printf("FIGURE 2: noise injection (class1 = minority)\n");
  std::printf("kind,x,y\n");
  tsaug::bench::PrintDataset(data);

  for (double level : {1.0, 3.0, 5.0}) {
    tsaug::augment::NoiseInjection noise(level);
    tsaug::core::Rng rng(7);
    const auto generated = noise.TryGenerate(data, 1, 12, rng).value();
    char tag[32];
    std::snprintf(tag, sizeof(tag), "generated_l%.0f", level);
    tsaug::bench::PrintPoints(tag, generated);
  }

  std::printf("\nBoundary violations out of 500 generated minority points:\n");
  for (double level : {1.0, 3.0, 5.0}) {
    tsaug::augment::NoiseInjection noise(level);
    const int violations =
        tsaug::bench::CountViolations(noise, data, kSeparation, 500, 11);
    std::printf("  noise_%.1f: %3d / 500 (%.1f%%)\n", level, violations,
                100.0 * violations / 500.0);
  }

  // Downstream accuracy: a small ROCKET trained on the imbalanced data vs.
  // the same data balanced by each noise level. z-normalisation is off —
  // for length-2 series it collapses every point to sign(x - y).
  const tsaug::core::Dataset test =
      tsaug::bench::TwoGaussians(40, 40, kSeparation, 0.8, /*seed=*/2);
  auto score = [&](const tsaug::core::Dataset& train) {
    tsaug::classify::RocketClassifier clf(/*num_kernels=*/200, /*seed=*/5,
                                          /*z_normalize=*/false);
    const tsaug::core::Status fitted = clf.TryFit(train);
    TSAUG_CHECK_MSG(fitted.ok(), "%s", fitted.ToString().c_str());
    return clf.Score(test);
  };
  std::printf("\nROCKET accuracy on a balanced test set:\n");
  std::printf("  baseline (40/10 imbalanced): %.3f\n", score(data));
  for (double level : {1.0, 3.0, 5.0}) {
    tsaug::augment::NoiseInjection noise(level);
    tsaug::core::Rng rng(13);
    const tsaug::core::Dataset balanced =
        tsaug::augment::TryBalanceWithAugmenter(data, noise, rng).value();
    std::printf("  balanced with noise_%.1f:     %.3f\n", level,
                score(balanced));
  }

  std::printf("Higher levels leak further over the boundary -- the failure "
              "mode the preserving branch fixes (see fig5).\n");
  if (!tsaug::bench::WriteTraceJson(trace_path)) {
    std::fprintf(stderr, "failed to write trace JSON to %s\n",
                 trace_path.c_str());
    return 1;
  }
  return 0;
}
