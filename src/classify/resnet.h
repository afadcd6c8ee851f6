#ifndef TSAUG_CLASSIFY_RESNET_H_
#define TSAUG_CLASSIFY_RESNET_H_

#include <memory>
#include <string>
#include <vector>

#include "classify/classifier.h"
#include "nn/layers.h"
#include "nn/trainer.h"

namespace tsaug::classify {

/// The residual-network time-series classifier of Wang et al. 2017 ("a
/// strong baseline", the paper's ref [91] and the architectural ancestor
/// of InceptionTime): three residual blocks, each a stack of three
/// convolutions (kernels 8/5/3) with batch norm, plus a projection
/// shortcut, followed by global average pooling and a linear head.
struct ResNetConfig {
  std::vector<int> block_filters = {64, 128, 128};  // paper-scale widths
  double validation_fraction = 1.0 / 3.0;
  nn::TrainerConfig trainer;
};

/// One residual block: conv8-BN-ReLU, conv5-BN-ReLU, conv3-BN, + shortcut.
class ResidualBlock : public nn::Module {
 public:
  ResidualBlock(int in_channels, int filters, core::Rng& rng);

  nn::Variable Forward(const nn::Variable& x);
  std::vector<nn::Module*> Children() override;
  int out_channels() const { return out_channels_; }

 private:
  std::unique_ptr<nn::Conv1dLayer> conv1_, conv2_, conv3_, shortcut_conv_;
  std::unique_ptr<nn::BatchNorm1d> bn1_, bn2_, bn3_, shortcut_bn_;
  int out_channels_;
};

/// The full network: blocks + GAP + linear logits.
class ResNetNetwork : public nn::SequenceClassifierNet {
 public:
  ResNetNetwork(int in_channels, int num_classes, const ResNetConfig& config,
                core::Rng& rng);

  nn::Variable Forward(const nn::Variable& batch) override;
  int num_classes() const override { return num_classes_; }
  std::vector<nn::Module*> Children() override;

 private:
  std::vector<std::unique_ptr<ResidualBlock>> blocks_;
  std::unique_ptr<nn::Linear> head_;
  int num_classes_;
};

/// Classifier wrapper with the same protocol as InceptionTime (stratified
/// validation split, early stopping, best-model restore).
class ResNetClassifier : public Classifier {
 public:
  explicit ResNetClassifier(ResNetConfig config = {}, std::uint64_t seed = 0);

  std::string name() const override { return "ResNet"; }
  void Fit(const core::Dataset& train) override;
  /// Surfaces training divergence (after the trainer's checkpoint-restore
  /// retries are exhausted) instead of aborting.
  [[nodiscard]] core::Status TryFit(const core::Dataset& train) override;
  /// Trains on `train` and early-stops on `validation`, skipping the
  /// internal split.
  [[nodiscard]] core::Status TryFitWithValidation(
      const core::Dataset& train, const core::Dataset& validation);
  std::vector<int> Predict(const core::Dataset& test) override;

  const nn::TrainResult& train_result() const { return train_result_; }

 private:
  ResNetConfig config_;
  std::uint64_t seed_;
  std::unique_ptr<ResNetNetwork> network_;
  nn::TrainResult train_result_;
  int train_length_ = 0;
  int num_classes_ = 0;
};

}  // namespace tsaug::classify

#endif  // TSAUG_CLASSIFY_RESNET_H_
