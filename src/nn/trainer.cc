#include "nn/trainer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "core/cancel.h"
#include "core/faultpoint.h"
#include "core/trace.h"

namespace tsaug::nn {
namespace {

std::vector<std::vector<int>> MakeBatches(int n, int batch_size,
                                          core::Rng& rng) {
  std::vector<int> order(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
  rng.Shuffle(order);
  std::vector<std::vector<int>> batches;
  for (int start = 0; start < n; start += batch_size) {
    const int end = std::min(n, start + batch_size);
    batches.emplace_back(order.begin() + start, order.begin() + end);
  }
  return batches;
}

std::vector<int> GatherLabels(const std::vector<int>& labels,
                              const std::vector<int>& indices) {
  std::vector<int> out;
  out.reserve(indices.size());
  for (int i : indices) out.push_back(labels[static_cast<size_t>(i)]);
  return out;
}

}  // namespace

Tensor GatherBatch(const Tensor& x, const std::vector<int>& indices) {
  TSAUG_CHECK(x.ndim() == 3);
  const int c = x.dim(1);
  const int time = x.dim(2);
  Tensor batch({static_cast<int>(indices.size()), c, time});
  for (size_t b = 0; b < indices.size(); ++b) {
    TSAUG_CHECK(indices[b] >= 0 && indices[b] < x.dim(0));
    for (int ch = 0; ch < c; ++ch) {
      for (int t = 0; t < time; ++t) {
        batch.at(static_cast<int>(b), ch, t) = x.at(indices[b], ch, t);
      }
    }
  }
  return batch;
}

double FindLearningRate(SequenceClassifierNet& net, const Tensor& x,
                        const std::vector<int>& labels, int batch_size,
                        core::Rng& rng) {
  constexpr double min_lr = 1e-5;
  constexpr double max_lr = 1.0;
  constexpr int steps = 40;
  TSAUG_TRACE_SCOPE("train.find_lr");
  core::trace::AddCount("train.lr_range_tests");
  const std::vector<Tensor> initial_state = net.GetState();
  net.SetTraining(true);

  Adam optimizer(net.AllParameters(), min_lr);
  const double growth = std::pow(max_lr / min_lr, 1.0 / (steps - 1));

  double lr = min_lr;
  double smoothed = 0.0;
  double best_loss = std::numeric_limits<double>::infinity();
  double best_lr = min_lr;
  constexpr double kBeta = 0.7;

  std::vector<std::vector<int>> batches;
  size_t batch_cursor = 0;
  for (int step = 0; step < steps; ++step) {
    if (batch_cursor >= batches.size()) {
      batches = MakeBatches(x.dim(0), batch_size, rng);
      batch_cursor = 0;
    }
    const std::vector<int>& idx = batches[batch_cursor++];
    core::trace::AddCount("train.lr_steps");

    optimizer.set_learning_rate(lr);
    optimizer.ZeroGrad();
    Variable input(GatherBatch(x, idx));
    Variable loss = SoftmaxCrossEntropy(net.Forward(input), GatherLabels(labels, idx));
    loss.Backward();
    optimizer.Step();

    const double raw = loss.value().scalar();
    smoothed = step == 0 ? raw : kBeta * smoothed + (1.0 - kBeta) * raw;
    if (smoothed < best_loss) {
      best_loss = smoothed;
      best_lr = lr;
    }
    if (step > 5 && (smoothed > 4.0 * best_loss || !std::isfinite(raw))) {
      break;  // diverged
    }
    lr *= growth;
  }

  net.SetState(initial_state);
  // Valley rule: an order of magnitude below the minimum-loss rate.
  return std::max(best_lr / 10.0, min_lr);
}

core::StatusOr<TrainResult> TryTrainClassifier(
    SequenceClassifierNet& net, const Tensor& x_train,
    const std::vector<int>& y_train, const Tensor& x_val,
    const std::vector<int>& y_val, const TrainerConfig& config,
    core::Rng& rng) {
  TSAUG_CHECK(x_train.ndim() == 3);
  TSAUG_CHECK(x_train.dim(0) == static_cast<int>(y_train.size()));
  TSAUG_CHECK(x_val.dim(0) == static_cast<int>(y_val.size()));

  TSAUG_TRACE_SCOPE("train.classifier");
  TrainResult result;
  if (config.learning_rate > 0.0) {
    result.learning_rate = config.learning_rate;
  } else {
    const core::trace::Stopwatch lr_watch;
    result.learning_rate =
        FindLearningRate(net, x_train, y_train, config.batch_size, rng);
    result.lr_search_seconds = lr_watch.Seconds();
  }

  Adam optimizer(net.AllParameters(), result.learning_rate);
  std::vector<Tensor> best_state = net.GetState();
  double best_val_loss = std::numeric_limits<double>::infinity();
  int epochs_since_best = 0;

  for (int epoch = 0; epoch < config.max_epochs; ++epoch) {
    // Cooperative cancellation / per-cell deadline poll (core/cancel.h):
    // epoch granularity keeps the check off the hot batch loop while a
    // stopped or over-budget cell still returns within one epoch.
    TSAUG_RETURN_IF_ERROR(core::CheckStop("trainer.epoch"));
    TSAUG_TRACE_SCOPE("train.epoch");
    const core::trace::Stopwatch epoch_watch;
    net.SetTraining(true);
    double epoch_loss = 0.0;
    int batches_run = 0;
    bool diverged = false;
    for (const std::vector<int>& idx :
         MakeBatches(x_train.dim(0), config.batch_size, rng)) {
      optimizer.ZeroGrad();
      Variable input(GatherBatch(x_train, idx));
      Variable loss =
          SoftmaxCrossEntropy(net.Forward(input), GatherLabels(y_train, idx));
      loss.Backward();
      optimizer.Step();
      double raw = loss.value().scalar();
      if (core::fault::ShouldFail("trainer.step")) {
        // Simulate a numerically blown-up batch through the same detection
        // path a real one takes.
        raw = std::numeric_limits<double>::quiet_NaN();
      }
      if (!std::isfinite(raw)) {
        diverged = true;
        break;
      }
      epoch_loss += raw;
      ++batches_run;
    }
    const double mean_loss = epoch_loss / std::max(1, batches_run);
    // "Exploding" = two orders of magnitude above the first epoch's loss
    // level; relative, so it is scale-free across datasets.
    if (!diverged && !result.epoch_train_losses.empty() &&
        mean_loss >
            100.0 * (std::fabs(result.epoch_train_losses.front()) + 1.0)) {
      diverged = true;
    }
    result.epochs_run = epoch + 1;
    if (diverged) {
      if (result.divergence_retries >= kMaxDivergenceRetries) {
        return core::DivergedError(
            "trainer: loss diverged at epoch " + std::to_string(epoch) +
            " after " + std::to_string(result.divergence_retries) +
            " recoveries");
      }
      // Recovery policy: back to the best checkpoint, half the step size,
      // fresh Adam moments (the old ones chase the diverged trajectory).
      ++result.divergence_retries;
      core::trace::AddCount("train.divergence_recovered");
      net.SetState(best_state);
      result.learning_rate *= 0.5;
      optimizer = Adam(net.AllParameters(), result.learning_rate);
      epochs_since_best = 0;
      continue;
    }
    result.epoch_train_losses.push_back(mean_loss);
    core::trace::AddCount("train.epochs");
    core::trace::AddCount("train.batches", batches_run);

    const auto [val_accuracy, val_loss] =
        Evaluate(net, x_val, y_val, config.batch_size);
    if (val_accuracy > result.best_val_accuracy) {
      result.best_val_accuracy = val_accuracy;
      result.best_epoch = epoch;
      best_val_loss = val_loss;
      best_state = net.GetState();
      epochs_since_best = 0;
    } else {
      // Small validation sets quantise accuracy coarsely; on ties, keep the
      // snapshot with the lower validation loss (the paper's patience
      // counter still only resets on an accuracy improvement).
      if (val_accuracy == result.best_val_accuracy &&
          val_loss < best_val_loss) {
        best_val_loss = val_loss;
        result.best_epoch = epoch;
        best_state = net.GetState();
      }
      ++epochs_since_best;
    }
    result.epoch_seconds.push_back(epoch_watch.Seconds());
    if (epochs_since_best >= config.early_stopping_patience) break;
  }

  net.SetState(best_state);
  net.SetTraining(false);
  return result;
}

Evaluation Evaluate(SequenceClassifierNet& net, const Tensor& x,
                    const std::vector<int>& labels, int batch_size) {
  TSAUG_CHECK(x.dim(0) == static_cast<int>(labels.size()));
  if (labels.empty()) return {};
  net.SetTraining(false);
  const int n = x.dim(0);
  int correct = 0;
  double total = 0.0;
  for (int start = 0; start < n; start += batch_size) {
    const int end = std::min(n, start + batch_size);
    std::vector<int> idx(static_cast<size_t>(end - start));
    for (int i = start; i < end; ++i) idx[static_cast<size_t>(i - start)] = i;
    const std::vector<int> batch_labels = GatherLabels(labels, idx);
    const Variable logits = net.Forward(Variable(GatherBatch(x, idx)));
    for (int i = 0; i < end - start; ++i) {
      int best = 0;
      for (int k = 1; k < logits.value().dim(1); ++k) {
        if (logits.value().at(i, k) > logits.value().at(i, best)) best = k;
      }
      if (best == batch_labels[static_cast<size_t>(i)]) ++correct;
    }
    total += SoftmaxCrossEntropy(logits, batch_labels).value().scalar() *
             (end - start);
  }
  return {static_cast<double>(correct) / static_cast<double>(n), total / n};
}

}  // namespace tsaug::nn
