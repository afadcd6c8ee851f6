#ifndef TSAUG_NN_TRAINER_H_
#define TSAUG_NN_TRAINER_H_

#include <vector>

#include "core/rng.h"
#include "core/status.h"
#include "nn/layers.h"
#include "nn/optimizer.h"

namespace tsaug::nn {

/// A network that maps a batch of series [n, channels, time] to class
/// logits [n, num_classes]. InceptionTime implements this.
class SequenceClassifierNet : public Module {
 public:
  virtual Variable Forward(const Variable& batch) = 0;
  virtual int num_classes() const = 0;
};

/// Training schedule mirroring the paper's setup: 200 epochs max, early
/// stopping after 30 epochs without validation-accuracy improvement, best
/// weights restored, learning rate chosen by a range test when not given.
struct TrainerConfig {
  int max_epochs = 200;
  int early_stopping_patience = 30;
  int batch_size = 32;
  /// 0 means: run the cyclical learning-rate range test (Smith 2017) and
  /// use the valley rule (lr at minimum smoothed loss / 10).
  double learning_rate = 0.0;
};

/// Divergence recovery budget: an epoch whose loss goes non-finite or
/// explodes restores the best checkpoint, halves the learning rate and
/// retries, up to this many times before TryTrainClassifier reports
/// kDiverged.
inline constexpr int kMaxDivergenceRetries = 2;

struct TrainResult {
  double best_val_accuracy = 0.0;
  int best_epoch = -1;
  int epochs_run = 0;
  double learning_rate = 0.0;  // the rate actually used (after halvings)
  /// Times training diverged and was recovered (checkpoint restored,
  /// learning rate halved). Bounded by kMaxDivergenceRetries.
  int divergence_retries = 0;
  std::vector<double> epoch_train_losses;
  /// Wall time of each epoch (train + validation), seconds on the steady
  /// clock. Always populated — independent of the core::trace toggle —
  /// and never fed back into training, so it cannot affect results.
  std::vector<double> epoch_seconds;
  /// Wall time of the learning-rate range test (0 when a fixed rate was
  /// configured).
  double lr_search_seconds = 0.0;
};

/// Gathers `indices` of `x` [N,C,T] into a batch tensor [b,C,T].
Tensor GatherBatch(const Tensor& x, const std::vector<int>& indices);

/// Learning-rate range test: sweeps lr exponentially from 1e-5 to 1 over
/// 40 mini-batches, tracks smoothed loss, aborts on divergence, returns
/// valley lr. The network state is restored afterwards.
double FindLearningRate(SequenceClassifierNet& net, const Tensor& x,
                        const std::vector<int>& labels, int batch_size,
                        core::Rng& rng);

/// Trains `net` on (x_train, y_train), early-stopping on accuracy over
/// (x_val, y_val), and leaves the best-validation weights loaded.
///
/// Recovery policy: when an epoch's training loss goes non-finite or
/// explodes (also reachable via the "trainer.step" fault point, which
/// poisons one batch loss), the best checkpoint is restored, the learning
/// rate is halved, the Adam state is reset, and training continues; after
/// kMaxDivergenceRetries such recoveries the next divergence returns
/// kDiverged.
[[nodiscard]] core::StatusOr<TrainResult> TryTrainClassifier(
    SequenceClassifierNet& net, const Tensor& x_train,
    const std::vector<int>& y_train, const Tensor& x_val,
    const std::vector<int>& y_val, const TrainerConfig& config,
    core::Rng& rng);

/// Validation metrics of `net` on a labelled tensor.
struct Evaluation {
  double accuracy = 0.0;  ///< share of rows whose logit argmax is the label
  double loss = 0.0;      ///< mean softmax cross-entropy
};

/// Accuracy and mean cross-entropy of `net` over `x` in eval mode, both
/// from one forward per batch (no gradients kept). An empty set scores 0.
Evaluation Evaluate(SequenceClassifierNet& net, const Tensor& x,
                    const std::vector<int>& labels, int batch_size = 64);

}  // namespace tsaug::nn

#endif  // TSAUG_NN_TRAINER_H_
