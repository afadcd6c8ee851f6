#ifndef TSAUG_CLASSIFY_INCEPTION_TIME_H_
#define TSAUG_CLASSIFY_INCEPTION_TIME_H_

#include <memory>
#include <string>
#include <vector>

#include "classify/classifier.h"
#include "nn/layers.h"
#include "nn/trainer.h"

namespace tsaug::classify {

/// Architecture and training hyperparameters of InceptionTime (Fawaz et
/// al.). Paper-scale defaults; benches shrink filters/depth/ensemble. The
/// bottleneck (on multichannel module inputs) and the residual shortcut
/// every third module are always on, as in Fawaz et al.
struct InceptionTimeConfig {
  int num_filters = 32;          // per inception branch
  int depth = 6;                 // inception modules
  std::vector<int> kernel_sizes = {10, 20, 40};
  int bottleneck_channels = 32;
  int ensemble_size = 5;
  double validation_fraction = 1.0 / 3.0;  // the paper's 2:1 split
  nn::TrainerConfig trainer;
};

/// One Inception module: bottleneck 1x1 conv, three parallel convolutions
/// of different kernel sizes, a maxpool+1x1 branch, channel concatenation,
/// batch norm and ReLU.
class InceptionModule : public nn::Module {
 public:
  InceptionModule(int in_channels, const InceptionTimeConfig& config,
                  core::Rng& rng);

  nn::Variable Forward(const nn::Variable& x);

  std::vector<nn::Module*> Children() override;
  int out_channels() const { return out_channels_; }

 private:
  std::unique_ptr<nn::Conv1dLayer> bottleneck_;  // null on 1-channel input
  std::vector<std::unique_ptr<nn::Conv1dLayer>> branches_;
  std::unique_ptr<nn::Conv1dLayer> pool_conv_;
  std::unique_ptr<nn::BatchNorm1d> bn_;
  int out_channels_ = 0;
};

/// A single Inception network: `depth` modules with residual shortcuts
/// every third module, global average pooling and a linear head.
class InceptionNetwork : public nn::SequenceClassifierNet {
 public:
  InceptionNetwork(int in_channels, int num_classes,
                   const InceptionTimeConfig& config, core::Rng& rng);

  nn::Variable Forward(const nn::Variable& batch) override;
  int num_classes() const override { return num_classes_; }

  std::vector<nn::Module*> Children() override;

 private:
  struct Shortcut {
    std::unique_ptr<nn::Conv1dLayer> conv;
    std::unique_ptr<nn::BatchNorm1d> bn;
  };
  std::vector<std::unique_ptr<InceptionModule>> modules_;
  std::vector<Shortcut> shortcuts_;  // one per residual connection
  std::unique_ptr<nn::Linear> head_;
  int num_classes_;
};

/// The InceptionTime classifier: an ensemble of independently-initialised
/// Inception networks whose softmax outputs are averaged (Fawaz et al.),
/// trained with early stopping on a stratified validation split.
class InceptionTimeClassifier : public Classifier {
 public:
  explicit InceptionTimeClassifier(InceptionTimeConfig config = {},
                                   std::uint64_t seed = 0);

  std::string name() const override { return "InceptionTime"; }

  /// Fit with an internal stratified 2:1 train/validation split. Surfaces
  /// ensemble-member training divergence (after the trainer's
  /// checkpoint-restore retries are exhausted) instead of aborting.
  [[nodiscard]] core::Status TryFit(const core::Dataset& train) override;

  /// The paper's protocol: train on `train` (possibly augmented), validate
  /// early stopping on `validation` (original samples only). An empty
  /// `train` or `validation` returns kDegenerateInput.
  [[nodiscard]] core::Status TryFitWithValidation(
      const core::Dataset& train, const core::Dataset& validation);

  std::vector<int> Predict(const core::Dataset& test) override;

  const std::vector<nn::TrainResult>& train_results() const {
    return train_results_;
  }

 private:
  InceptionTimeConfig config_;
  std::uint64_t seed_;
  std::vector<std::unique_ptr<InceptionNetwork>> ensemble_;
  std::vector<nn::TrainResult> train_results_;
  int train_length_ = 0;
  int num_classes_ = 0;
};

}  // namespace tsaug::classify

#endif  // TSAUG_CLASSIFY_INCEPTION_TIME_H_
