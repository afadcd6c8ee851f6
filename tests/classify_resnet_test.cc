#include "classify/resnet.h"

#include <gtest/gtest.h>

#include "core/faultpoint.h"
#include "data/synthetic.h"

namespace tsaug::classify {
namespace {

ResNetConfig TinyResNet() {
  ResNetConfig config;
  config.block_filters = {4, 6, 6};
  config.trainer.max_epochs = 30;
  config.trainer.early_stopping_patience = 30;
  config.trainer.learning_rate = 3e-3;
  config.trainer.batch_size = 16;
  return config;
}

TEST(ResidualBlock, OutputShape) {
  core::Rng rng(1);
  ResidualBlock block(3, 5, rng);
  EXPECT_EQ(block.out_channels(), 5);
  nn::Variable x(nn::Tensor({2, 3, 16}, 0.5));
  EXPECT_EQ(block.Forward(x).shape(), (std::vector<int>{2, 5, 16}));
}

TEST(ResNetNetwork, LogitsShapeAndGradients) {
  core::Rng rng(2);
  ResNetNetwork net(2, 3, TinyResNet(), rng);
  nn::Tensor x({3, 2, 20});
  core::Rng data_rng(3);
  for (double& v : x.data()) v = data_rng.Normal();
  nn::Variable logits = net.Forward(nn::Variable(x));
  EXPECT_EQ(logits.shape(), (std::vector<int>{3, 3}));

  nn::Variable loss = nn::SoftmaxCrossEntropy(logits, {0, 1, 2});
  loss.Backward();
  int touched = 0;
  for (const nn::Variable& p : net.AllParameters()) {
    double norm = 0.0;
    for (size_t i = 0; i < p.grad().numel(); ++i) norm += std::abs(p.grad()[i]);
    touched += norm > 0.0 ? 1 : 0;
  }
  EXPECT_EQ(touched, static_cast<int>(net.AllParameters().size()));
}

TEST(ResNetClassifier, LearnsSeparableClasses) {
  data::SyntheticSpec spec;
  spec.num_classes = 2;
  spec.train_counts = {18, 18};
  spec.test_counts = {8, 8};
  spec.num_channels = 2;
  spec.length = 24;
  spec.class_separation = 1.5;
  spec.seed = 4;
  const data::TrainTest data = data::MakeSynthetic(spec);

  ResNetClassifier clf(TinyResNet(), 5);
  clf.Fit(data.train);
  EXPECT_GE(clf.Score(data.test), 0.7);
  EXPECT_GT(clf.train_result().best_val_accuracy, 0.5);
}

TEST(ResNetClassifier, ExplicitValidationSplit) {
  data::SyntheticSpec spec;
  spec.num_classes = 2;
  spec.train_counts = {12, 12};
  spec.test_counts = {4, 4};
  spec.num_channels = 1;
  spec.length = 16;
  spec.class_separation = 1.5;
  spec.seed = 6;
  const data::TrainTest data = data::MakeSynthetic(spec);

  core::Rng rng(7);
  const auto [train_part, val_part] = data.train.StratifiedSplit(2.0 / 3.0, rng);
  ResNetClassifier clf(TinyResNet(), 8);
  ASSERT_TRUE(clf.TryFitWithValidation(train_part, val_part).ok());
  EXPECT_EQ(clf.Predict(data.test).size(), 8u);
}

TEST(ResNetClassifier, DivergedTrainingFailsTyped) {
  data::SyntheticSpec spec;
  spec.num_classes = 2;
  spec.train_counts = {12, 12};
  spec.test_counts = {4, 4};
  spec.num_channels = 1;
  spec.length = 16;
  spec.seed = 9;
  const data::TrainTest data = data::MakeSynthetic(spec);
  ResNetClassifier clf(TinyResNet(), 10);
  // Every batch loss is poisoned, so the divergence retries run out.
  core::fault::SetSpec("trainer.step:1+");
  const core::Status status = clf.TryFit(data.train);
  core::fault::Clear();
  EXPECT_FALSE(status.ok());
}

}  // namespace
}  // namespace tsaug::classify
