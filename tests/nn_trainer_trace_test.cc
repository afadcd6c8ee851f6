// Observability of the training loop: TrainResult wall-time fields, the
// trace counters/scopes the trainer emits, state restoration around
// FindLearningRate, and the early-stopping patience path.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/trace.h"
#include "nn/trainer.h"

namespace tsaug::nn {
namespace {

namespace trace = core::trace;

/// Restores the tracing toggle a test flipped.
class TraceToggleGuard {
 public:
  TraceToggleGuard() : saved_(trace::Enabled()) {}
  ~TraceToggleGuard() {
    if (saved_) {
      trace::Enable();
    } else {
      trace::Disable();
    }
  }

 private:
  bool saved_;
};

const trace::ScopeStats* FindScope(const std::vector<trace::ScopeStats>& list,
                                   const std::string& name) {
  for (const trace::ScopeStats& s : list) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

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

TEST(TrainResultTiming, EpochSecondsPopulatedWithoutTracing) {
  TraceToggleGuard guard;
  trace::Disable();  // TrainResult timings are independent of the toggle
  Tensor x_train;
  std::vector<int> y_train;
  MakeData(24, &x_train, &y_train, 1);
  Tensor x_val;
  std::vector<int> y_val;
  MakeData(8, &x_val, &y_val, 2);

  core::Rng rng(3);
  TinyNet net(1, 2, rng);
  TrainerConfig config;
  config.max_epochs = 10;
  config.early_stopping_patience = 10;
  config.learning_rate = 0.05;
  config.batch_size = 8;
  const TrainResult result =
      TryTrainClassifier(net, x_train, y_train, x_val, y_val, config, rng)
          .value();

  ASSERT_GT(result.epochs_run, 0);
  EXPECT_EQ(static_cast<int>(result.epoch_seconds.size()), result.epochs_run);
  for (double seconds : result.epoch_seconds) EXPECT_GE(seconds, 0.0);
  // A fixed learning rate means no range test ran.
  EXPECT_DOUBLE_EQ(result.lr_search_seconds, 0.0);
}

TEST(TrainResultTiming, LrSearchTimedWhenRangeTestRuns) {
  TraceToggleGuard guard;
  trace::Disable();
  Tensor x_train;
  std::vector<int> y_train;
  MakeData(24, &x_train, &y_train, 4);
  Tensor x_val;
  std::vector<int> y_val;
  MakeData(8, &x_val, &y_val, 5);

  core::Rng rng(6);
  TinyNet net(1, 2, rng);
  TrainerConfig config;
  config.max_epochs = 3;
  config.early_stopping_patience = 3;
  config.learning_rate = 0.0;  // triggers FindLearningRate
  config.batch_size = 8;
  const TrainResult result =
      TryTrainClassifier(net, x_train, y_train, x_val, y_val, config, rng)
          .value();

  EXPECT_GT(result.learning_rate, 0.0);
  EXPECT_GE(result.lr_search_seconds, 0.0);
  EXPECT_EQ(static_cast<int>(result.epoch_seconds.size()), result.epochs_run);
}

TEST(TrainerTracing, EmitsEpochScopesAndCounters) {
  TraceToggleGuard guard;
  trace::Reset();
  trace::Enable();
  Tensor x_train;
  std::vector<int> y_train;
  MakeData(24, &x_train, &y_train, 7);
  Tensor x_val;
  std::vector<int> y_val;
  MakeData(8, &x_val, &y_val, 8);

  core::Rng rng(9);
  TinyNet net(1, 2, rng);
  TrainerConfig config;
  config.max_epochs = 5;
  config.early_stopping_patience = 5;
  config.learning_rate = 0.05;
  config.batch_size = 8;
  const TrainResult result =
      TryTrainClassifier(net, x_train, y_train, x_val, y_val, config, rng)
          .value();

  EXPECT_EQ(trace::CounterValue("train.epochs"),
            static_cast<std::int64_t>(result.epochs_run));
  // 24 samples at batch size 8 = 3 batches per epoch.
  EXPECT_EQ(trace::CounterValue("train.batches"),
            static_cast<std::int64_t>(3 * result.epochs_run));
  EXPECT_EQ(trace::CounterValue("train.lr_range_tests"), 0);

  const std::vector<trace::ScopeStats> scopes = trace::MergedScopes();
  const trace::ScopeStats* classifier = FindScope(scopes, "train.classifier");
  ASSERT_NE(classifier, nullptr);
  EXPECT_EQ(classifier->count, 1);
  const trace::ScopeStats* epoch =
      FindScope(classifier->children, "train.epoch");
  ASSERT_NE(epoch, nullptr);
  EXPECT_EQ(epoch->count, static_cast<std::int64_t>(result.epochs_run));
  EXPECT_GE(classifier->total_ns, epoch->total_ns);
}

TEST(TrainerTracing, FindLearningRateCountsStepsAndRestoresState) {
  TraceToggleGuard guard;
  trace::Reset();
  trace::Enable();
  Tensor x;
  std::vector<int> y;
  MakeData(24, &x, &y, 10);

  core::Rng rng(11);
  TinyNet net(1, 2, rng);
  const std::vector<Tensor> before = net.GetState();
  core::Rng lr_rng(12);
  const double lr = FindLearningRate(net, x, y, /*batch_size=*/8, lr_rng);
  EXPECT_GT(lr, 0.0);

  // The range test restores the network it perturbed.
  const std::vector<Tensor> after = net.GetState();
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_TRUE(before[i] == after[i]) << "state tensor " << i << " differs";
  }

  EXPECT_EQ(trace::CounterValue("train.lr_range_tests"), 1);
  const std::int64_t steps = trace::CounterValue("train.lr_steps");
  EXPECT_GE(steps, 1);
  EXPECT_LE(steps, 40);  // the default sweep length; divergence may abort

  const std::vector<trace::ScopeStats> scopes = trace::MergedScopes();
  const trace::ScopeStats* find_lr = FindScope(scopes, "train.find_lr");
  ASSERT_NE(find_lr, nullptr);
  EXPECT_EQ(find_lr->count, 1);
  // The range test alone runs no training epochs.
  EXPECT_EQ(FindScope(scopes, "train.classifier"), nullptr);
  EXPECT_EQ(trace::CounterValue("train.epochs"), 0);
}

TEST(TrainerTracing, EarlyStoppingPatienceRestoresBestWeights) {
  TraceToggleGuard guard;
  trace::Reset();
  trace::Enable();
  Tensor x_train;
  std::vector<int> y_train;
  MakeData(20, &x_train, &y_train, 13);
  // Validation labels are pure noise so accuracy cannot improve steadily
  // and the patience counter actually runs out.
  Tensor x_val;
  std::vector<int> y_val;
  MakeData(10, &x_val, &y_val, 14);
  core::Rng label_rng(15);
  for (int& label : y_val) label = label_rng.Int(0, 1);

  core::Rng rng(16);
  TinyNet net(1, 2, rng);
  TrainerConfig config;
  config.max_epochs = 200;
  config.early_stopping_patience = 4;
  config.learning_rate = 0.05;
  config.batch_size = 8;
  const TrainResult result =
      TryTrainClassifier(net, x_train, y_train, x_val, y_val, config, rng)
          .value();

  EXPECT_LT(result.epochs_run, config.max_epochs);
  // One timing entry per epoch actually run, including the final epoch
  // that triggered the stop.
  EXPECT_EQ(static_cast<int>(result.epoch_seconds.size()), result.epochs_run);
  EXPECT_EQ(trace::CounterValue("train.epochs"),
            static_cast<std::int64_t>(result.epochs_run));
  // Best weights restored: re-evaluating reproduces the reported best.
  EXPECT_DOUBLE_EQ(Evaluate(net, x_val, y_val).accuracy,
                   result.best_val_accuracy);
}

}  // namespace
}  // namespace tsaug::nn
