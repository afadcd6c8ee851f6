#ifndef TSAUG_AUGMENT_VAE_H_
#define TSAUG_AUGMENT_VAE_H_

#include <memory>
#include <string>

#include "augment/augmenter.h"
#include "augment/class_models.h"
#include "nn/layers.h"

namespace tsaug::augment {

/// Hyperparameters of the variational autoencoder augmenter (the
/// taxonomy's neural-generative slot next to TimeGAN, cf. Kirchbuchner et
/// al. / DeVries & Taylor latent-space augmentation). Training always uses
/// KL weight beta 0.5, Adam at 2e-3 and batches of 16.
struct VaeConfig {
  int hidden_dim = 32;
  int latent_dim = 8;
  int epochs = 200;
  std::uint64_t seed = 0;
};

/// A dense VAE over flattened, per-feature standardised series.
///
/// Encoder: Linear-ReLU -> (mu, logvar); z = mu + exp(logvar/2) * eps;
/// Decoder: Linear-ReLU-Linear. Loss = MSE + beta * KL(q(z|x) || N(0,I)).
class Vae {
 public:
  explicit Vae(VaeConfig config);

  /// Trains on flattened instances (rows). Standardisation statistics are
  /// learned here and inverted at sampling time. Polls the cooperative
  /// stop token once per epoch, so a cancelled or over-deadline cell
  /// returns kCancelled / kDeadlineExceeded instead of training to the end.
  [[nodiscard]] core::Status TryFit(const std::vector<std::vector<double>>& instances);

  bool fitted() const { return decoder_out_ != nullptr; }

  /// Decodes `count` draws of z ~ N(0, I) back to data space.
  std::vector<std::vector<double>> Sample(int count, core::Rng& rng);

  /// Final training loss (reconstruction + beta*KL), for diagnostics.
  double final_loss() const { return final_loss_; }

 private:
  VaeConfig config_;
  int input_dim_ = 0;
  std::vector<double> feature_mean_;
  std::vector<double> feature_std_;
  std::unique_ptr<nn::Linear> encoder_hidden_;
  std::unique_ptr<nn::Linear> encoder_mu_;
  std::unique_ptr<nn::Linear> encoder_logvar_;
  std::unique_ptr<nn::Linear> decoder_hidden_;
  std::unique_ptr<nn::Linear> decoder_out_;
  double final_loss_ = 0.0;
};

/// Per-class VAE augmenter with the same per-class model cache as TimeGAN:
/// Prefit() trains the requested classes concurrently, any other class is
/// trained on first use, and a failed fit is cached and re-reported.
class VaeAugmenter : public Augmenter {
 public:
  explicit VaeAugmenter(VaeConfig config = {});

  std::string name() const override { return "vae"; }
  TaxonomyBranch branch() const override {
    return TaxonomyBranch::kGenerativeNeural;
  }
  core::StatusOr<std::vector<core::TimeSeries>> DoGenerate(
      const core::Dataset& train, int label, int count,
      core::Rng& rng) override;
  void Prefit(const core::Dataset& train,
              const std::vector<int>& labels) override;
  void Invalidate() override { models_.Clear(); }

 private:
  ClassModelCache<Vae> models_;
};

}  // namespace tsaug::augment

#endif  // TSAUG_AUGMENT_VAE_H_
