#include "nn/trainer.h"

#include <cmath>

#include <gtest/gtest.h>

namespace tsaug::nn {
namespace {

/// Minimal logistic-regression-style net over [n, 1, T]: GAP + Linear.
class TinyNet : public SequenceClassifierNet {
 public:
  TinyNet(int channels, int classes, core::Rng& rng)
      : linear_(channels, classes, rng), classes_(classes) {}

  Variable Forward(const Variable& batch) override {
    return linear_.Forward(GlobalAvgPool(batch));
  }
  int num_classes() const override { return classes_; }
  std::vector<Module*> Children() override { return {&linear_}; }

 private:
  Linear linear_;
  int classes_;
};

// Class k has channel mean ~= 2k.
void MakeData(int n, Tensor* x, std::vector<int>* y, std::uint64_t seed) {
  core::Rng rng(seed);
  *x = Tensor({n, 1, 8});
  y->resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int label = i % 2;
    (*y)[static_cast<size_t>(i)] = label;
    for (int t = 0; t < 8; ++t) {
      x->at(i, 0, t) = 2.0 * label + rng.Normal(0, 0.3);
    }
  }
}

TEST(GatherBatch, CopiesRequestedRows) {
  Tensor x({3, 2, 2});
  for (size_t i = 0; i < x.numel(); ++i) x[i] = static_cast<double>(i);
  const Tensor batch = GatherBatch(x, {2, 0});
  EXPECT_EQ(batch.shape(), (std::vector<int>{2, 2, 2}));
  EXPECT_DOUBLE_EQ(batch.at(0, 0, 0), x.at(2, 0, 0));
  EXPECT_DOUBLE_EQ(batch.at(1, 1, 1), x.at(0, 1, 1));
}

TEST(TrainClassifier, LearnsLinearlySeparableTask) {
  Tensor x_train;
  std::vector<int> y_train;
  MakeData(40, &x_train, &y_train, 1);
  Tensor x_val;
  std::vector<int> y_val;
  MakeData(16, &x_val, &y_val, 2);

  core::Rng rng(3);
  TinyNet net(1, 2, rng);
  TrainerConfig config;
  config.max_epochs = 60;
  config.early_stopping_patience = 60;
  config.learning_rate = 0.05;
  config.batch_size = 8;
  const TrainResult result =
      TryTrainClassifier(net, x_train, y_train, x_val, y_val, config, rng)
          .value();
  EXPECT_GE(result.best_val_accuracy, 0.9);
  EXPECT_EQ(static_cast<int>(result.epoch_train_losses.size()),
            result.epochs_run);
  // Loss decreased overall.
  EXPECT_LT(result.epoch_train_losses.back(),
            result.epoch_train_losses.front());
}

TEST(TrainClassifier, EarlyStoppingLimitsEpochs) {
  Tensor x_train;
  std::vector<int> y_train;
  MakeData(20, &x_train, &y_train, 4);
  // Validation labels are pure noise: accuracy cannot improve steadily.
  Tensor x_val;
  std::vector<int> y_val;
  MakeData(10, &x_val, &y_val, 5);
  core::Rng label_rng(6);
  for (int& label : y_val) label = label_rng.Int(0, 1);

  core::Rng rng(7);
  TinyNet net(1, 2, rng);
  TrainerConfig config;
  config.max_epochs = 200;
  config.early_stopping_patience = 5;
  config.learning_rate = 0.05;
  const TrainResult result =
      TryTrainClassifier(net, x_train, y_train, x_val, y_val, config, rng)
          .value();
  EXPECT_LT(result.epochs_run, 200);
}

// Argmax predictions and mean cross-entropy of one full-batch forward.
void DirectEvaluation(SequenceClassifierNet& net, const Tensor& x,
                      const std::vector<int>& y, double* accuracy,
                      double* loss) {
  std::vector<int> all(y.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  const Variable logits = net.Forward(Variable(GatherBatch(x, all)));
  int correct = 0;
  for (int i = 0; i < logits.value().dim(0); ++i) {
    int best = 0;
    for (int k = 1; k < logits.value().dim(1); ++k) {
      if (logits.value().at(i, k) > logits.value().at(i, best)) best = k;
    }
    if (best == y[static_cast<size_t>(i)]) ++correct;
  }
  *accuracy = static_cast<double>(correct) / static_cast<double>(y.size());
  *loss = SoftmaxCrossEntropy(logits, y).value().scalar();
}

TEST(Evaluate, MatchesDirectForward) {
  core::Rng rng(8);
  TinyNet net(1, 2, rng);
  Tensor x;
  std::vector<int> y;
  MakeData(12, &x, &y, 9);
  const Evaluation eval = Evaluate(net, x, y, /*batch_size=*/5);
  double accuracy = 0.0;
  double loss = 0.0;
  DirectEvaluation(net, x, y, &accuracy, &loss);
  EXPECT_EQ(eval.accuracy, accuracy);
  EXPECT_NEAR(eval.loss, loss, 1e-9);
  EXPECT_GE(eval.accuracy, 0.0);
  EXPECT_LE(eval.accuracy, 1.0);
}

TEST(Evaluate, BatchBoundaryExact) {
  // n not divisible by the batch size: every instance is still scored
  // once, and the mean weighs the short last batch by its size.
  core::Rng rng(12);
  TinyNet net(3, 3, rng);
  Tensor x3({7, 3, 8});
  for (double& v : x3.data()) v = rng.Normal();
  const std::vector<int> labels = {0, 1, 2, 0, 1, 2, 0};
  const Evaluation batched = Evaluate(net, x3, labels, /*batch_size=*/3);
  const Evaluation whole = Evaluate(net, x3, labels, /*batch_size=*/7);
  double accuracy = 0.0;
  double loss = 0.0;
  DirectEvaluation(net, x3, labels, &accuracy, &loss);
  EXPECT_EQ(batched.accuracy, accuracy);
  EXPECT_EQ(whole.accuracy, accuracy);
  EXPECT_NEAR(batched.loss, loss, 1e-12);
  EXPECT_NEAR(whole.loss, loss, 1e-12);
}

TEST(Evaluate, EmptySetScoresZero) {
  core::Rng rng(15);
  TinyNet net(1, 2, rng);
  const Evaluation eval = Evaluate(net, Tensor({0, 1, 8}), {});
  EXPECT_EQ(eval.accuracy, 0.0);
  EXPECT_EQ(eval.loss, 0.0);
}

}  // namespace
}  // namespace tsaug::nn
