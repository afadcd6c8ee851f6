#ifndef TSAUG_CLASSIFY_CLASSIFIER_H_
#define TSAUG_CLASSIFY_CLASSIFIER_H_

#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/status.h"
#include "nn/tensor.h"

namespace tsaug::classify {

/// Common interface of the study's classification models.
class Classifier {
 public:
  virtual ~Classifier() = default;

  virtual std::string name() const = 0;

  /// Trains on the (possibly augmented) training set. Failures the
  /// harness can degrade on (degenerate input, singular ridge solves,
  /// diverged training) come back as a Status instead of aborting.
  [[nodiscard]] virtual core::Status TryFit(const core::Dataset& train) = 0;

  /// Predicted labels for every instance of `test`.
  virtual std::vector<int> Predict(const core::Dataset& test) = 0;

  /// Classification accuracy on a labelled set.
  double Score(const core::Dataset& test);
};

/// Fraction of positions where predictions match labels.
double Accuracy(const std::vector<int>& predicted,
                const std::vector<int>& labels);

/// Converts a dataset to a rectangular [n, channels, length] tensor:
/// missing values are linearly imputed and every series is resampled to
/// `target_length`, which must be positive.
/// When `z_normalize` is set, each series is per-channel z-normalised, the
/// standard UEA preprocessing both models assume.
nn::Tensor DatasetToTensor(const core::Dataset& dataset, int target_length,
                           bool z_normalize);

}  // namespace tsaug::classify

#endif  // TSAUG_CLASSIFY_CLASSIFIER_H_
