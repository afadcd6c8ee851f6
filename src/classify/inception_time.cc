#include "classify/inception_time.h"

#include <string>
#include <utility>

namespace tsaug::classify {

using nn::Variable;

InceptionModule::InceptionModule(int in_channels,
                                 const InceptionTimeConfig& config,
                                 core::Rng& rng) {
  const bool bottleneck = in_channels > 1;
  const int branch_in = bottleneck ? config.bottleneck_channels : in_channels;
  if (bottleneck) {
    bottleneck_ = std::make_unique<nn::Conv1dLayer>(
        in_channels, config.bottleneck_channels, 1, rng);
  }
  for (int kernel : config.kernel_sizes) {
    branches_.push_back(std::make_unique<nn::Conv1dLayer>(
        branch_in, config.num_filters, kernel, rng));
  }
  // MaxPool branch operates on the raw module input, then projects to
  // num_filters with a 1x1 convolution (Fawaz et al.'s architecture).
  pool_conv_ = std::make_unique<nn::Conv1dLayer>(
      in_channels, config.num_filters, 1, rng);
  out_channels_ =
      config.num_filters * (static_cast<int>(config.kernel_sizes.size()) + 1);
  bn_ = std::make_unique<nn::BatchNorm1d>(out_channels_);
}

Variable InceptionModule::Forward(const Variable& x) {
  const Variable trunk = bottleneck_ ? bottleneck_->Forward(x) : x;
  std::vector<Variable> outputs;
  outputs.reserve(branches_.size() + 1);
  for (const auto& branch : branches_) {
    outputs.push_back(branch->Forward(trunk));
  }
  outputs.push_back(pool_conv_->Forward(nn::MaxPool1dSame(x, 3)));
  return nn::Relu(bn_->Forward(nn::ConcatChannels(outputs)));
}

std::vector<nn::Module*> InceptionModule::Children() {
  std::vector<nn::Module*> children;
  if (bottleneck_) children.push_back(bottleneck_.get());
  for (const auto& branch : branches_) children.push_back(branch.get());
  children.push_back(pool_conv_.get());
  children.push_back(bn_.get());
  return children;
}

InceptionNetwork::InceptionNetwork(int in_channels, int num_classes,
                                   const InceptionTimeConfig& config,
                                   core::Rng& rng)
    : num_classes_(num_classes) {
  TSAUG_CHECK(config.depth >= 1);
  int channels = in_channels;
  int residual_in = in_channels;
  for (int d = 0; d < config.depth; ++d) {
    modules_.push_back(
        std::make_unique<InceptionModule>(channels, config, rng));
    channels = modules_.back()->out_channels();
    if (d % 3 == 2) {
      Shortcut shortcut;
      shortcut.conv = std::make_unique<nn::Conv1dLayer>(
          residual_in, channels, 1, rng);
      shortcut.bn = std::make_unique<nn::BatchNorm1d>(channels);
      shortcuts_.push_back(std::move(shortcut));
      residual_in = channels;
    }
  }
  head_ = std::make_unique<nn::Linear>(channels, num_classes, rng);
}

Variable InceptionNetwork::Forward(const Variable& batch) {
  Variable x = batch;
  Variable residual = batch;
  size_t shortcut_idx = 0;
  for (size_t d = 0; d < modules_.size(); ++d) {
    x = modules_[d]->Forward(x);
    if (d % 3 == 2) {
      TSAUG_CHECK(shortcut_idx < shortcuts_.size());
      const Shortcut& s = shortcuts_[shortcut_idx++];
      const Variable projected = s.bn->Forward(s.conv->Forward(residual));
      x = nn::Relu(nn::Add(x, projected));
      residual = x;
    }
  }
  return head_->Forward(nn::GlobalAvgPool(x));
}

std::vector<nn::Module*> InceptionNetwork::Children() {
  std::vector<nn::Module*> children;
  for (const auto& m : modules_) children.push_back(m.get());
  for (const Shortcut& s : shortcuts_) {
    children.push_back(s.conv.get());
    children.push_back(s.bn.get());
  }
  children.push_back(head_.get());
  return children;
}

InceptionTimeClassifier::InceptionTimeClassifier(InceptionTimeConfig config,
                                                 std::uint64_t seed)
    : config_(std::move(config)), seed_(seed) {
  TSAUG_CHECK(config_.ensemble_size >= 1);
}

core::Status InceptionTimeClassifier::TryFit(const core::Dataset& train) {
  core::Rng rng(seed_ ^ 0x9e3779b97f4a7c15ull);
  const auto [train_part, val_part] =
      train.StratifiedSplit(1.0 - config_.validation_fraction, rng);
  return TryFitWithValidation(train_part, val_part);
}

core::Status InceptionTimeClassifier::TryFitWithValidation(
    const core::Dataset& train, const core::Dataset& validation) {
  // An all-singleton training set splits into an empty validation part:
  // degenerate data, not programmer error, so it fails typed.
  if (train.empty() || validation.empty()) {
    return core::DegenerateInputError(
        std::string("inception_time: empty ") +
        (train.empty() ? "training" : "validation") + " set");
  }
  train_length_ = train.max_length();
  num_classes_ = std::max(train.num_classes(), validation.num_classes());

  const nn::Tensor x_train =
      DatasetToTensor(train, train_length_, /*z_normalize=*/true);
  const nn::Tensor x_val =
      DatasetToTensor(validation, train_length_, /*z_normalize=*/true);

  ensemble_.clear();
  train_results_.clear();
  for (int member = 0; member < config_.ensemble_size; ++member) {
    core::Rng rng(seed_ + 1000003ull * static_cast<unsigned long long>((member + 1)));
    auto net = std::make_unique<InceptionNetwork>(
        train.num_channels(), num_classes_, config_, rng);
    core::StatusOr<nn::TrainResult> result =
        nn::TryTrainClassifier(*net, x_train, train.labels(), x_val,
                               validation.labels(), config_.trainer, rng);
    if (!result.ok()) {
      core::Status status = result.status();
      return status.AddContext("inception_time member " +
                               std::to_string(member));
    }
    train_results_.push_back(std::move(result).value());
    ensemble_.push_back(std::move(net));
  }
  return core::OkStatus();
}

std::vector<int> InceptionTimeClassifier::Predict(const core::Dataset& test) {
  TSAUG_CHECK(!ensemble_.empty());
  const nn::Tensor x =
      DatasetToTensor(test, train_length_, /*z_normalize=*/true);
  const int n = x.dim(0);

  // Average the ensemble members' softmax probabilities.
  nn::Tensor mean_probs({n, num_classes_});
  constexpr int kBatch = 64;
  for (const auto& net : ensemble_) {
    net->SetTraining(false);
    for (int start = 0; start < n; start += kBatch) {
      const int end = std::min(n, start + kBatch);
      std::vector<int> idx(static_cast<size_t>(end - start));
      for (int i = start; i < end; ++i) idx[static_cast<size_t>(i - start)] = i;
      const nn::Tensor logits =
          net->Forward(Variable(nn::GatherBatch(x, idx))).value();
      const nn::Tensor probs = nn::Softmax(logits);
      for (int i = 0; i < probs.dim(0); ++i) {
        for (int k = 0; k < num_classes_; ++k) {
          mean_probs.at(start + i, k) +=
              probs.at(i, k) / config_.ensemble_size;
        }
      }
    }
  }
  std::vector<int> predictions(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    int best = 0;
    for (int k = 1; k < num_classes_; ++k) {
      if (mean_probs.at(i, k) > mean_probs.at(i, best)) best = k;
    }
    predictions[static_cast<size_t>(i)] = best;
  }
  return predictions;
}

}  // namespace tsaug::classify
