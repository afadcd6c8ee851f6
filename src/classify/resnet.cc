#include "classify/resnet.h"

namespace tsaug::classify {

using nn::Variable;

ResidualBlock::ResidualBlock(int in_channels, int filters, core::Rng& rng)
    : out_channels_(filters) {
  conv1_ = std::make_unique<nn::Conv1dLayer>(in_channels, filters, 8, rng, 1,
                                             /*use_bias=*/false);
  bn1_ = std::make_unique<nn::BatchNorm1d>(filters);
  conv2_ = std::make_unique<nn::Conv1dLayer>(filters, filters, 5, rng, 1,
                                             /*use_bias=*/false);
  bn2_ = std::make_unique<nn::BatchNorm1d>(filters);
  conv3_ = std::make_unique<nn::Conv1dLayer>(filters, filters, 3, rng, 1,
                                             /*use_bias=*/false);
  bn3_ = std::make_unique<nn::BatchNorm1d>(filters);
  // Projection shortcut (1x1 conv + BN) aligns the channel count.
  shortcut_conv_ = std::make_unique<nn::Conv1dLayer>(in_channels, filters, 1,
                                                     rng, 1, false);
  shortcut_bn_ = std::make_unique<nn::BatchNorm1d>(filters);
}

Variable ResidualBlock::Forward(const Variable& x) {
  Variable y = nn::Relu(bn1_->Forward(conv1_->Forward(x)));
  y = nn::Relu(bn2_->Forward(conv2_->Forward(y)));
  y = bn3_->Forward(conv3_->Forward(y));
  const Variable shortcut = shortcut_bn_->Forward(shortcut_conv_->Forward(x));
  return nn::Relu(nn::Add(y, shortcut));
}

std::vector<nn::Module*> ResidualBlock::Children() {
  return {conv1_.get(),        bn1_.get(), conv2_.get(),       bn2_.get(),
          conv3_.get(),        bn3_.get(), shortcut_conv_.get(),
          shortcut_bn_.get()};
}

ResNetNetwork::ResNetNetwork(int in_channels, int num_classes,
                             const ResNetConfig& config, core::Rng& rng)
    : num_classes_(num_classes) {
  TSAUG_CHECK(!config.block_filters.empty());
  int channels = in_channels;
  for (int filters : config.block_filters) {
    blocks_.push_back(std::make_unique<ResidualBlock>(channels, filters, rng));
    channels = filters;
  }
  head_ = std::make_unique<nn::Linear>(channels, num_classes, rng);
}

Variable ResNetNetwork::Forward(const Variable& batch) {
  Variable x = batch;
  for (const auto& block : blocks_) x = block->Forward(x);
  return head_->Forward(nn::GlobalAvgPool(x));
}

std::vector<nn::Module*> ResNetNetwork::Children() {
  std::vector<nn::Module*> children;
  for (const auto& block : blocks_) children.push_back(block.get());
  children.push_back(head_.get());
  return children;
}

ResNetClassifier::ResNetClassifier(ResNetConfig config, std::uint64_t seed)
    : config_(std::move(config)), seed_(seed) {}

void ResNetClassifier::Fit(const core::Dataset& train) {
  const core::Status status = TryFit(train);
  TSAUG_CHECK_MSG(status.ok(), "%s", status.ToString().c_str());
}

core::Status ResNetClassifier::TryFit(const core::Dataset& train) {
  core::Rng rng(seed_ ^ 0x2e5e7ull);
  const auto [train_part, val_part] =
      train.StratifiedSplit(1.0 - config_.validation_fraction, rng);
  return TryFitWithValidation(train_part, val_part);
}

core::Status ResNetClassifier::TryFitWithValidation(
    const core::Dataset& train, const core::Dataset& validation) {
  TSAUG_CHECK(!train.empty() && !validation.empty());
  train_length_ = train.max_length();
  num_classes_ = std::max(train.num_classes(), validation.num_classes());

  const nn::Tensor x_train =
      DatasetToTensor(train, train_length_, /*z_normalize=*/true);
  const nn::Tensor x_val =
      DatasetToTensor(validation, train_length_, /*z_normalize=*/true);

  core::Rng rng(seed_ + 77ull);
  network_ = std::make_unique<ResNetNetwork>(train.num_channels(),
                                             num_classes_, config_, rng);
  core::StatusOr<nn::TrainResult> result =
      nn::TryTrainClassifier(*network_, x_train, train.labels(), x_val,
                             validation.labels(), config_.trainer, rng);
  if (!result.ok()) return result.status();
  train_result_ = std::move(result).value();
  return core::OkStatus();
}

std::vector<int> ResNetClassifier::Predict(const core::Dataset& test) {
  TSAUG_CHECK(network_ != nullptr);
  const nn::Tensor x =
      DatasetToTensor(test, train_length_, /*z_normalize=*/true);
  return nn::PredictLabels(*network_, x);
}

}  // namespace tsaug::classify
