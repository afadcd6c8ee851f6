#ifndef TSAUG_CLASSIFY_NEAREST_NEIGHBOR_H_
#define TSAUG_CLASSIFY_NEAREST_NEIGHBOR_H_

#include <string>
#include <vector>

#include "classify/classifier.h"

namespace tsaug::classify {

/// Distance used by the nearest-neighbour classifier.
enum class NnDistance {
  kEuclidean,
  kDtw,  // dependent multivariate DTW with optional Sakoe-Chiba band
};

/// k-nearest-neighbour time-series classifier, the classic 1-NN DTW
/// baseline. Not part of the paper's tables; examples/imbalanced_workflow
/// compares it with the paper's two models.
class KnnClassifier : public Classifier {
 public:
  explicit KnnClassifier(int k = 1, NnDistance distance = NnDistance::kDtw,
                         int dtw_window = -1, bool z_normalize = true);

  std::string name() const override;
  /// Stores the imputed (and optionally z-normalised) training series;
  /// an empty training set is kDegenerateInput.
  [[nodiscard]] core::Status TryFit(const core::Dataset& train) override;
  std::vector<int> Predict(const core::Dataset& test) override;

 private:
  int k_;
  NnDistance distance_;
  int dtw_window_;
  bool z_normalize_;
  core::Dataset train_;
};

}  // namespace tsaug::classify

#endif  // TSAUG_CLASSIFY_NEAREST_NEIGHBOR_H_
