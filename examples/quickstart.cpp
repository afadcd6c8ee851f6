// Quickstart: the library in ~40 lines.
//
//   1. get an imbalanced multivariate time-series dataset,
//   2. balance it with SMOTE (one line),
//   3. train ROCKET + ridge and compare accuracy with/without augmentation.
//
// Build: cmake -B build -G Ninja && cmake --build build
// Run:   ./build/examples/quickstart
#include <cstdio>

#include "augment/augmenter.h"
#include "augment/oversample.h"
#include "classify/rocket.h"
#include "core/stats.h"
#include "data/uea_catalog.h"

int main() {
  // An LSST-like imbalanced dataset (14 astronomical classes, Hellinger
  // imbalance degree ~9.5). Swap in your own tsaug::core::Dataset built
  // with Dataset::Add(TimeSeries, label).
  const tsaug::data::TrainTest data = tsaug::data::MakeUeaLikeDataset(
      "LSST", tsaug::data::ScalePreset::kSmall, /*seed=*/2);
  std::printf("train: %d series, %d classes, imbalance degree %.2f\n",
              data.train.size(), data.train.num_classes(),
              tsaug::core::ImbalanceDegree(data.train));

  // Baseline: ROCKET features + ridge classifier with LOOCV alpha.
  tsaug::classify::RocketClassifier baseline(/*num_kernels=*/1000, /*seed=*/7);
  const tsaug::core::Status baseline_fitted = baseline.TryFit(data.train);
  TSAUG_CHECK_MSG(baseline_fitted.ok(), "%s",
                  baseline_fitted.ToString().c_str());
  const double baseline_accuracy = baseline.Score(data.test);

  // Augmented: SMOTE-balance the training set, then train the same model.
  tsaug::augment::Smote smote;
  tsaug::core::Rng rng(42);
  const tsaug::core::Dataset balanced =
      tsaug::augment::TryBalanceWithAugmenter(data.train, smote, rng).value();
  std::printf("after SMOTE balancing: %d series (degree %.2f)\n",
              balanced.size(), tsaug::core::ImbalanceDegree(balanced));

  tsaug::classify::RocketClassifier augmented(1000, 7);
  const tsaug::core::Status augmented_fitted = augmented.TryFit(balanced);
  TSAUG_CHECK_MSG(augmented_fitted.ok(), "%s",
                  augmented_fitted.ToString().c_str());
  const double augmented_accuracy = augmented.Score(data.test);

  std::printf("\naccuracy  baseline: %.2f%%   augmented: %.2f%%   "
              "relative gain: %+.2f%%\n",
              100.0 * baseline_accuracy, 100.0 * augmented_accuracy,
              100.0 * (augmented_accuracy - baseline_accuracy) /
                  baseline_accuracy);
  return 0;
}
