#ifndef TSAUG_AUGMENT_TIMEGAN_H_
#define TSAUG_AUGMENT_TIMEGAN_H_

#include <memory>
#include <string>

#include "augment/augmenter.h"
#include "augment/class_models.h"
#include "nn/layers.h"

namespace tsaug::augment {

/// Hyperparameters of TimeGAN (Yoon et al., NeurIPS'19), defaults matching
/// the paper's setup where feasible: latent dimension 10, learning rate
/// 5e-4, batch size 32 (gamma is fixed at 1). The paper trains for
/// 2500/2500/1000 iterations (see PaperScaleTimeGanConfig()); the default
/// here is scaled down so unit tests and single-core benches stay
/// tractable.
struct TimeGanConfig {
  int hidden_dim = 10;
  int num_layers = 2;
  double learning_rate = 5e-4;
  int batch_size = 32;
  int embedding_iterations = 300;
  int supervised_iterations = 300;
  int joint_iterations = 150;
  /// Series longer than this are resampled down before GAN training (BPTT
  /// cost is linear in length); samples are resampled back afterwards.
  int max_sequence_length = 24;
  std::uint64_t seed = 0;
};

/// The paper's training schedule: 2500 embedding, 2500 supervised and 1000
/// joint iterations.
TimeGanConfig PaperScaleTimeGanConfig();

/// TimeGAN: a sequence GAN with a learned latent space.
///
/// Five networks (each a stacked GRU plus a per-step head): an embedder
/// X->H and recovery H->X trained as an autoencoder; a generator Z->E_hat
/// and supervisor H->H' capturing stepwise dynamics; and a discriminator
/// over latent sequences. Training follows the original three phases:
/// (1) reconstruction, (2) supervised next-step loss on real embeddings,
/// (3) joint adversarial training with moment matching.
class TimeGan {
 public:
  explicit TimeGan(TimeGanConfig config);

  /// Trains on the given (single-class) series, as the paper does: one GAN
  /// per class so generated series follow that class's distribution.
  /// Returns kDiverged when a training phase produces a non-finite loss,
  /// kDegenerateInput for unusable inputs (empty class, length < 2), and
  /// kInjectedFault under the "timegan.fit" fault point.
  [[nodiscard]] core::Status TryFit(const std::vector<core::TimeSeries>& series);

  bool fitted() const { return fitted_; }

  /// Draws `count` synthetic series (at the training sequence length,
  /// inverse min-max scaled back to data units).
  std::vector<core::TimeSeries> Sample(int count, core::Rng& rng);

  /// Per-phase final losses, for diagnostics and tests.
  struct TrainingDiagnostics {
    double reconstruction_loss = 0.0;  // end of phase 1
    double supervised_loss = 0.0;      // end of phase 2
    double generator_loss = 0.0;       // end of phase 3
    double discriminator_loss = 0.0;   // end of phase 3
  };
  const TrainingDiagnostics& diagnostics() const { return diagnostics_; }

 private:
  nn::Variable Embed(const nn::Variable& x) const;
  nn::Variable Recover(const nn::Variable& h) const;
  nn::Variable Generate(const nn::Variable& z) const;
  nn::Variable Supervise(const nn::Variable& h) const;
  nn::Variable Discriminate(const nn::Variable& h) const;
  nn::Variable SupervisedLoss(const nn::Variable& h) const;

  nn::Tensor SampleBatch(int batch, core::Rng& rng) const;  // real data
  nn::Tensor SampleNoise(int batch, core::Rng& rng) const;

  TimeGanConfig config_;
  int num_features_ = 0;
  int sequence_length_ = 0;
  std::vector<double> feature_min_;
  std::vector<double> feature_max_;
  std::vector<nn::Tensor> scaled_;  // [T, F] per training instance

  // Networks (created in Fit).
  std::unique_ptr<nn::Gru> embedder_gru_;
  std::unique_ptr<nn::TimeDistributed> embedder_head_;
  std::unique_ptr<nn::Gru> recovery_gru_;
  std::unique_ptr<nn::TimeDistributed> recovery_head_;
  std::unique_ptr<nn::Gru> generator_gru_;
  std::unique_ptr<nn::TimeDistributed> generator_head_;
  std::unique_ptr<nn::Gru> supervisor_gru_;
  std::unique_ptr<nn::TimeDistributed> supervisor_head_;
  std::unique_ptr<nn::Gru> discriminator_gru_;
  std::unique_ptr<nn::TimeDistributed> discriminator_head_;

  TrainingDiagnostics diagnostics_;
  bool fitted_ = false;
};

/// The taxonomy's generative/neural augmenter: one TimeGAN per class,
/// cached across TryGenerate() calls. Prefit() trains the requested classes'
/// GANs concurrently on the thread pool; a class not prefitted is trained
/// lazily on first use (see ClassModelCache).
///
/// When a fallback augmenter is configured, a class whose GAN training
/// diverges degrades gracefully: the fallback generates that class's
/// samples instead (counted under the "timegan.fallback" trace counter)
/// and the failure is remembered so the GAN is not retrained every call.
/// Without a fallback the Status is returned to the caller.
class TimeGanAugmenter : public Augmenter {
 public:
  explicit TimeGanAugmenter(TimeGanConfig config = {},
                            std::unique_ptr<Augmenter> fallback = nullptr);

  std::string name() const override { return "timegan"; }
  TaxonomyBranch branch() const override {
    return TaxonomyBranch::kGenerativeNeural;
  }
  core::StatusOr<std::vector<core::TimeSeries>> DoGenerate(
      const core::Dataset& train, int label, int count,
      core::Rng& rng) override;

  void Prefit(const core::Dataset& train,
              const std::vector<int>& labels) override;

  /// Drops the per-class model cache (call when switching datasets).
  void Invalidate() override {
    models_.Clear();
    if (fallback_ != nullptr) fallback_->Invalidate();
  }

 private:
  /// Fitted GANs, and the classes whose training failed (served by
  /// fallback_ from then on).
  ClassModelCache<TimeGan> models_;
  std::unique_ptr<Augmenter> fallback_;
};

}  // namespace tsaug::augment

#endif  // TSAUG_AUGMENT_TIMEGAN_H_
