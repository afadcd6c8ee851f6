#ifndef TSAUG_CLASSIFY_NEAREST_NEIGHBOR_H_
#define TSAUG_CLASSIFY_NEAREST_NEIGHBOR_H_

#include <string>
#include <vector>

#include "classify/classifier.h"

namespace tsaug::classify {

/// The classic 1-NN DTW time-series baseline: dependent multivariate DTW
/// with a Sakoe-Chiba band of 4 steps over imputed, z-normalised series.
/// Not part of the paper's tables; examples/imbalanced_workflow compares
/// it with the paper's two models.
class KnnClassifier : public Classifier {
 public:
  std::string name() const override { return "1-NN-DTW"; }
  /// Stores the imputed, z-normalised training series; an empty training
  /// set is kDegenerateInput.
  [[nodiscard]] core::Status TryFit(const core::Dataset& train) override;
  /// The label of the nearest training series; of two at the same
  /// distance, the smaller label.
  std::vector<int> Predict(const core::Dataset& test) override;

 private:
  core::Dataset train_;
};

}  // namespace tsaug::classify

#endif  // TSAUG_CLASSIFY_NEAREST_NEIGHBOR_H_
