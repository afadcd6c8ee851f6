#ifndef TSAUG_CLASSIFY_MINIROCKET_H_
#define TSAUG_CLASSIFY_MINIROCKET_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "classify/classifier.h"
#include "linalg/ridge.h"

namespace tsaug::classify {

/// MiniRocket (Dempster et al. 2021), the (almost) deterministic successor
/// of ROCKET that the "ROCKET family" discussion in the paper refers to:
///
///   * 84 fixed kernels of length 9 — every placement of three +2 weights
///     among six -1 weights (zero-sum kernels),
///   * exponentially spaced dilations derived from the series length,
///   * biases drawn from quantiles of the kernels' own convolution output
///     on training data (this is the only data-dependent part),
///   * PPV-only features.
///
/// Multivariate inputs use a per-(kernel, dilation) random channel subset
/// whose convolution outputs are summed, as in the official multivariate
/// implementation.
class MiniRocketTransform {
 public:
  explicit MiniRocketTransform(int num_features = 9996,
                               std::uint64_t seed = 0);

  /// Fits dilations and bias quantiles on the training tensor [n,c,T].
  void Fit(const nn::Tensor& train_x);

  bool fitted() const { return !features_.empty(); }
  int num_features() const { return static_cast<int>(features_.size()); }

  /// PPV features: [n, num_features].
  linalg::Matrix Transform(const nn::Tensor& x) const;

  /// The 84 fixed kernels (+2 positions), exposed for tests.
  static std::vector<std::array<int, 3>> KernelPositions();

 private:
  struct Feature {
    int kernel = 0;       // index into KernelPositions()
    int dilation = 1;
    bool padding = false;
    double bias = 0.0;
    std::vector<int> channels;
  };

  /// Convolution of one series with one configured kernel at every valid
  /// position; returns the raw activations.
  std::vector<double> Convolve(const nn::Tensor& x, int instance,
                               const Feature& feature) const;

  int requested_features_;
  std::uint64_t seed_;
  std::vector<Feature> features_;
};

/// MiniRocket + ridge classifier, mirroring RocketClassifier.
class MiniRocketClassifier : public Classifier {
 public:
  explicit MiniRocketClassifier(int num_features = 9996,
                                std::uint64_t seed = 0,
                                bool z_normalize = true);

  std::string name() const override { return "MiniRocket"; }
  void Fit(const core::Dataset& train) override;
  /// Surfaces ridge-solve failures (after alpha escalation is exhausted)
  /// instead of aborting.
  [[nodiscard]] core::Status TryFit(const core::Dataset& train) override;
  std::vector<int> Predict(const core::Dataset& test) override;

  const MiniRocketTransform& transform() const { return transform_; }

 private:
  MiniRocketTransform transform_;
  linalg::RidgeClassifierCV ridge_;
  bool z_normalize_;
  int train_length_ = 0;
};

}  // namespace tsaug::classify

#endif  // TSAUG_CLASSIFY_MINIROCKET_H_
