#ifndef TSAUG_CLASSIFY_ROCKET_H_
#define TSAUG_CLASSIFY_ROCKET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "classify/classifier.h"
#include "linalg/matrix.h"
#include "linalg/ridge.h"

namespace tsaug::classify {

/// One random convolutional kernel (Dempster et al., ROCKET): a random
/// subset of input channels, N(0,1) mean-centred weights, random bias,
/// exponentially-sampled dilation and optional 'same' padding.
struct RocketKernel {
  std::vector<int> channels;
  std::vector<double> weights;  // channels.size() x length, channel-major
  int length = 0;
  double bias = 0.0;
  int dilation = 1;
  int padding = 0;
};

/// The ROCKET feature extractor: `num_kernels` random kernels, each
/// contributing two features per series — PPV (proportion of positive
/// values) and the maximum activation.
class RocketTransform {
 public:
  RocketTransform(int num_kernels, std::uint64_t seed);

  /// Draws the kernels for inputs with the given geometry.
  void Fit(int num_channels, int series_length);

  bool fitted() const { return !kernels_.empty(); }
  int num_kernels() const { return num_kernels_; }
  std::uint64_t seed() const { return seed_; }
  const std::vector<RocketKernel>& kernels() const { return kernels_; }

  /// Features of one rectangular tensor [n, channels, length]:
  /// returns an n x (2 * num_kernels) matrix (PPV, max per kernel).
  linalg::Matrix Transform(const nn::Tensor& data) const;

 private:
  int num_kernels_;
  std::uint64_t seed_;
  std::vector<RocketKernel> kernels_;
};

/// ROCKET features shared by the cells of one experiment-grid run. Every
/// cell of a run draws its kernels from the same seed, scores on the same
/// test set, and trains on the run's base training set with its own
/// synthetic rows appended after it (augment/augmenter.h). This object
/// fits the transform once for the base geometry and keeps the feature
/// rows of the base and test sets, so a cell transforms only its suffix.
class RocketRunFeatures {
 public:
  /// Fits the transform for `base`'s geometry and transforms `base` and
  /// `test`, z-normalised like a default RocketClassifier. Both must pass
  /// the typed preflight of the grid's ROCKET cells: non-empty,
  /// channel-consistent, with the same channel count, every series at
  /// least one step long and `base.max_length() >= 2`.
  RocketRunFeatures(int num_kernels, std::uint64_t seed, core::Dataset base,
                    core::Dataset test);

  /// True when `train` has the base channel count and max_length and
  /// starts with the base series and labels, bit for bit (NaN payloads
  /// included), and `test` is the test set, bit for bit. Then the features
  /// of `train` are the base features followed by those of its suffix.
  bool Extends(const core::Dataset& train, const core::Dataset& test) const;

  /// Fits `ridge` on the features of `train`, which must satisfy
  /// Extends(): only the rows after the base are transformed. Runs the
  /// same preflight and stop polls ("rocket.fit", then "rocket.ridge") as
  /// RocketClassifier::TryFit, and leaves the same ridge behind.
  [[nodiscard]] core::Status TryFitRidge(const core::Dataset& train,
                                         linalg::RidgeClassifierCV& ridge) const;

  const RocketTransform& transform() const { return transform_; }
  const linalg::Matrix& test_features() const { return test_features_; }

 private:
  RocketTransform transform_;
  core::Dataset base_;
  core::Dataset test_;
  linalg::Matrix base_features_;
  linalg::Matrix test_features_;
};

/// ROCKET + ridge-regression classifier, the paper's non-deep baseline
/// (Tables I/II: ROCKET extracts features, a ridge classifier with LOOCV
/// alpha selection does the classification).
class RocketClassifier : public Classifier {
 public:
  /// `num_kernels` defaults to the paper's 10,000 in paper-scale runs;
  /// benches pass a smaller count.
  explicit RocketClassifier(int num_kernels = 10000, std::uint64_t seed = 0,
                            bool z_normalize = true);

  std::string name() const override { return "ROCKET"; }
  /// Surfaces ridge-solve failures (after alpha escalation is exhausted)
  /// instead of aborting.
  [[nodiscard]] core::Status TryFit(const core::Dataset& train) override;
  std::vector<int> Predict(const core::Dataset& test) override;

  const linalg::RidgeClassifierCV& ridge() const { return ridge_; }

 private:
  RocketTransform transform_;
  linalg::RidgeClassifierCV ridge_;
  bool z_normalize_;
  int train_length_ = 0;
};

}  // namespace tsaug::classify

#endif  // TSAUG_CLASSIFY_ROCKET_H_
