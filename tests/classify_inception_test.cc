#include "classify/inception_time.h"

#include <gtest/gtest.h>

#include "core/faultpoint.h"
#include "data/synthetic.h"

namespace tsaug::classify {
namespace {

InceptionTimeConfig TinyConfig() {
  InceptionTimeConfig config;
  config.num_filters = 4;
  config.depth = 3;
  config.kernel_sizes = {4, 8};
  config.bottleneck_channels = 4;
  config.ensemble_size = 1;
  config.trainer.max_epochs = 40;
  config.trainer.early_stopping_patience = 12;
  config.trainer.batch_size = 16;
  config.trainer.learning_rate = 5e-3;  // skip LR finder in unit tests
  return config;
}

TEST(InceptionModule, OutputShape) {
  core::Rng rng(1);
  InceptionTimeConfig config = TinyConfig();
  InceptionModule module(3, config, rng);
  EXPECT_EQ(module.out_channels(), 4 * 3);  // 2 conv branches + pool branch
  nn::Variable x(nn::Tensor({2, 3, 20}, 0.5));
  nn::Variable y = module.Forward(x);
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 12, 20}));
}

TEST(InceptionModule, UnivariateSkipsBottleneck) {
  core::Rng rng(2);
  InceptionTimeConfig config = TinyConfig();
  InceptionModule module(1, config, rng);
  nn::Variable x(nn::Tensor({1, 1, 16}, 1.0));
  EXPECT_EQ(module.Forward(x).shape(), (std::vector<int>{1, 12, 16}));
}

TEST(InceptionNetwork, LogitsShapeAndGradFlow) {
  core::Rng rng(3);
  InceptionTimeConfig config = TinyConfig();
  InceptionNetwork net(2, 3, config, rng);
  nn::Tensor x({4, 2, 24});
  core::Rng data_rng(4);
  for (double& v : x.data()) v = data_rng.Normal();
  nn::Variable logits = net.Forward(nn::Variable(x));
  EXPECT_EQ(logits.shape(), (std::vector<int>{4, 3}));

  nn::Variable loss = nn::SoftmaxCrossEntropy(logits, {0, 1, 2, 0});
  loss.Backward();
  int touched = 0;
  for (const nn::Variable& p : net.AllParameters()) {
    double norm = 0.0;
    for (size_t i = 0; i < p.grad().numel(); ++i) norm += std::abs(p.grad()[i]);
    touched += norm > 0.0 ? 1 : 0;
  }
  // Every parameter tensor should receive gradient.
  EXPECT_EQ(touched, static_cast<int>(net.AllParameters().size()));
}

TEST(InceptionNetwork, ResidualNetworkHasShortcuts) {
  // Children: one per module, a 1x1 conv and a batch norm per shortcut
  // (one every third module), and the head.
  core::Rng rng(5);
  InceptionTimeConfig config = TinyConfig();
  for (int depth : {2, 3, 6}) {
    config.depth = depth;
    InceptionNetwork net(2, 2, config, rng);
    EXPECT_EQ(net.Children().size(),
              static_cast<size_t>(depth + 2 * (depth / 3) + 1));
  }
}

TEST(InceptionTimeClassifier, LearnsSeparableClasses) {
  data::SyntheticSpec spec;
  spec.num_classes = 2;
  spec.train_counts = {18, 18};
  spec.test_counts = {8, 8};
  spec.num_channels = 2;
  spec.length = 32;
  spec.class_separation = 1.5;
  spec.seed = 6;
  const data::TrainTest data = data::MakeSynthetic(spec);

  InceptionTimeClassifier clf(TinyConfig(), /*seed=*/1);
  ASSERT_TRUE(clf.TryFit(data.train).ok());
  EXPECT_GE(clf.Score(data.test), 0.7);
  ASSERT_EQ(clf.train_results().size(), 1u);
  EXPECT_GT(clf.train_results()[0].best_val_accuracy, 0.5);
}

TEST(InceptionTimeClassifier, FitWithValidationUsesGivenSplit) {
  data::SyntheticSpec spec;
  spec.num_classes = 2;
  spec.train_counts = {12, 12};
  spec.test_counts = {6, 6};
  spec.num_channels = 1;
  spec.length = 24;
  spec.class_separation = 1.5;
  spec.seed = 8;
  const data::TrainTest data = data::MakeSynthetic(spec);

  core::Rng rng(9);
  const auto [train_part, val_part] = data.train.StratifiedSplit(2.0 / 3.0, rng);
  InceptionTimeClassifier clf(TinyConfig(), 2);
  ASSERT_TRUE(clf.TryFitWithValidation(train_part, val_part).ok());
  const std::vector<int> predictions = clf.Predict(data.test);
  EXPECT_EQ(predictions.size(), 12u);
}

TEST(InceptionTimeClassifier, DivergedTrainingFailsTyped) {
  data::SyntheticSpec spec;
  spec.num_classes = 2;
  spec.train_counts = {12, 12};
  spec.test_counts = {4, 4};
  spec.num_channels = 1;
  spec.length = 16;
  spec.seed = 9;
  const data::TrainTest data = data::MakeSynthetic(spec);
  InceptionTimeClassifier clf(TinyConfig(), 10);
  // Every batch loss is poisoned, so the divergence retries run out.
  core::fault::SetSpec("trainer.step:1+");
  const core::Status status = clf.TryFit(data.train);
  core::fault::Clear();
  EXPECT_EQ(status.code(), core::StatusCode::kDiverged) << status.ToString();
}

TEST(InceptionTimeClassifier, SingletonClassesFailTyped) {
  // One member per class: the stratified split leaves validation empty,
  // which is degenerate data and must fail typed, not abort.
  data::SyntheticSpec spec;
  spec.num_classes = 3;
  spec.train_counts = {1, 1, 1};
  spec.test_counts = {1, 1, 1};
  spec.num_channels = 2;
  spec.length = 16;
  spec.seed = 14;
  const data::TrainTest data = data::MakeSynthetic(spec);
  InceptionTimeClassifier clf(TinyConfig(), 3);
  const core::Status status = clf.TryFit(data.train);
  EXPECT_EQ(status.code(), core::StatusCode::kDegenerateInput)
      << status.ToString();
  EXPECT_EQ(clf.TryFitWithValidation(core::Dataset(3), data.train).code(),
            core::StatusCode::kDegenerateInput);
}

TEST(Trainer, EarlyStoppingRestoresBestState) {
  // The trainer must never return with worse-than-best validation weights.
  data::SyntheticSpec spec;
  spec.num_classes = 2;
  spec.train_counts = {10, 10};
  spec.test_counts = {5, 5};
  spec.num_channels = 1;
  spec.length = 16;
  spec.seed = 10;
  const data::TrainTest data = data::MakeSynthetic(spec);

  core::Rng rng(11);
  InceptionTimeConfig config = TinyConfig();
  config.trainer.max_epochs = 10;
  InceptionNetwork net(1, 2, config, rng);
  const nn::Tensor x_train = DatasetToTensor(data.train, 16, true);
  const nn::Tensor x_val = DatasetToTensor(data.test, 16, true);
  const nn::TrainResult result = nn::TryTrainClassifier(
      net, x_train, data.train.labels(), x_val, data.test.labels(),
      config.trainer, rng).value();
  const double final_accuracy =
      nn::Evaluate(net, x_val, data.test.labels()).accuracy;
  EXPECT_NEAR(final_accuracy, result.best_val_accuracy, 1e-12);
}

TEST(Trainer, LearningRateFinderReturnsInRange) {
  data::SyntheticSpec spec;
  spec.num_classes = 2;
  spec.train_counts = {12, 12};
  spec.test_counts = {2, 2};
  spec.num_channels = 1;
  spec.length = 16;
  spec.seed = 12;
  const data::TrainTest data = data::MakeSynthetic(spec);

  core::Rng rng(13);
  InceptionTimeConfig config = TinyConfig();
  InceptionNetwork net(1, 2, config, rng);
  const nn::Tensor x = DatasetToTensor(data.train, 16, true);
  const std::vector<nn::Tensor> before = net.GetState();
  const double lr = nn::FindLearningRate(net, x, data.train.labels(), 8, rng);
  EXPECT_GE(lr, 1e-5);
  EXPECT_LE(lr, 1.0);
  // The range test must restore the network state.
  const std::vector<nn::Tensor> after = net.GetState();
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) EXPECT_EQ(before[i], after[i]);
}

}  // namespace
}  // namespace tsaug::classify
