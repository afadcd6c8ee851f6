#include "augment/vae.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/cancel.h"
#include "core/preprocess.h"
#include "core/status.h"
#include "nn/optimizer.h"

namespace tsaug::augment {

using nn::Tensor;
using nn::Variable;

namespace {

constexpr double kBeta = 0.5;  // weight of the KL term
constexpr double kLearningRate = 2e-3;
constexpr int kBatchSize = 16;

}  // namespace

Vae::Vae(VaeConfig config) : config_(std::move(config)) {
  TSAUG_CHECK(config_.hidden_dim >= 1 && config_.latent_dim >= 1);
  TSAUG_CHECK(config_.epochs >= 1);
}

core::Status Vae::TryFit(const std::vector<std::vector<double>>& instances) {
  if (instances.empty()) {
    return core::DegenerateInputError("vae: no instances to fit");
  }
  input_dim_ = static_cast<int>(instances[0].size());
  const int n = static_cast<int>(instances.size());
  core::Rng rng(config_.seed ^ 0xfae5ull);

  // Per-feature standardisation.
  feature_mean_.assign(static_cast<size_t>(input_dim_), 0.0);
  feature_std_.assign(static_cast<size_t>(input_dim_), 0.0);
  for (const auto& row : instances) {
    TSAUG_CHECK(static_cast<int>(row.size()) == input_dim_);
    for (int d = 0; d < input_dim_; ++d) feature_mean_[static_cast<size_t>(d)] += row[static_cast<size_t>(d)] / n;
  }
  for (const auto& row : instances) {
    for (int d = 0; d < input_dim_; ++d) {
      feature_std_[static_cast<size_t>(d)] += std::pow(row[static_cast<size_t>(d)] - feature_mean_[static_cast<size_t>(d)], 2) / n;
    }
  }
  for (double& s : feature_std_) s = std::max(1e-6, std::sqrt(s));

  Tensor data({n, input_dim_});
  for (int i = 0; i < n; ++i) {
    for (int d = 0; d < input_dim_; ++d) {
      data.at(i, d) = (instances[static_cast<size_t>(i)][static_cast<size_t>(d)] - feature_mean_[static_cast<size_t>(d)]) / feature_std_[static_cast<size_t>(d)];
    }
  }

  encoder_hidden_ =
      std::make_unique<nn::Linear>(input_dim_, config_.hidden_dim, rng);
  encoder_mu_ =
      std::make_unique<nn::Linear>(config_.hidden_dim, config_.latent_dim, rng);
  encoder_logvar_ =
      std::make_unique<nn::Linear>(config_.hidden_dim, config_.latent_dim, rng);
  decoder_hidden_ =
      std::make_unique<nn::Linear>(config_.latent_dim, config_.hidden_dim, rng);
  decoder_out_ =
      std::make_unique<nn::Linear>(config_.hidden_dim, input_dim_, rng);

  std::vector<Variable> params;
  for (nn::Module* m : std::initializer_list<nn::Module*>{
           encoder_hidden_.get(), encoder_mu_.get(), encoder_logvar_.get(),
           decoder_hidden_.get(), decoder_out_.get()}) {
    const auto sub = m->AllParameters();
    params.insert(params.end(), sub.begin(), sub.end());
  }
  nn::Adam optimizer(params, kLearningRate);

  const int batch = std::min(kBatchSize, n);
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    TSAUG_RETURN_IF_ERROR(core::CheckStop("vae.epoch"));
    optimizer.ZeroGrad();
    // Sample a batch with replacement.
    Tensor x({batch, input_dim_});
    for (int b = 0; b < batch; ++b) {
      const int pick = rng.Index(n);
      for (int d = 0; d < input_dim_; ++d) x.at(b, d) = data.at(pick, d);
    }
    const Variable input(x);
    const Variable hidden = nn::Relu(encoder_hidden_->Forward(input));
    const Variable mu = encoder_mu_->Forward(hidden);
    const Variable logvar = encoder_logvar_->Forward(hidden);

    // Reparameterisation: z = mu + exp(logvar/2) * eps.
    Tensor eps({batch, config_.latent_dim});
    for (double& v : eps.data()) v = rng.Normal();
    const Variable z = nn::Add(
        mu, nn::Mul(nn::Exp(nn::ScaleBy(logvar, 0.5)), Variable(eps)));

    const Variable reconstruction =
        decoder_out_->Forward(nn::Relu(decoder_hidden_->Forward(z)));
    const Variable recon_loss = nn::MseLoss(reconstruction, x);

    // KL(q || N(0,I)) = -0.5 * mean(1 + logvar - mu^2 - exp(logvar)).
    const Variable kl = nn::ScaleBy(
        nn::Mean(nn::Sub(nn::AddConst(logvar, 1.0),
                         nn::Add(nn::Mul(mu, mu), nn::Exp(logvar)))),
        -0.5);
    Variable loss = nn::Add(recon_loss, nn::ScaleBy(kl, kBeta));
    loss.Backward();
    optimizer.Step();
    final_loss_ = loss.value().scalar();
  }
  return core::OkStatus();
}

std::vector<std::vector<double>> Vae::Sample(int count, core::Rng& rng) {
  TSAUG_CHECK(fitted());
  Tensor z({count, config_.latent_dim});
  for (double& v : z.data()) v = rng.Normal();
  const Variable decoded =
      decoder_out_->Forward(nn::Relu(decoder_hidden_->Forward(Variable(z))));
  std::vector<std::vector<double>> out(static_cast<size_t>(count),
                                       std::vector<double>(static_cast<size_t>(input_dim_)));
  for (int i = 0; i < count; ++i) {
    for (int d = 0; d < input_dim_; ++d) {
      out[static_cast<size_t>(i)][static_cast<size_t>(d)] =
          decoded.value().at(i, d) * feature_std_[static_cast<size_t>(d)] + feature_mean_[static_cast<size_t>(d)];
    }
  }
  return out;
}

VaeAugmenter::VaeAugmenter(VaeConfig config)
    : models_(config.seed,
              [config](const core::Dataset& train,
                       const std::vector<int>& members, std::uint64_t seed)
                  -> core::StatusOr<std::unique_ptr<Vae>> {
                const int length = train.max_length();
                std::vector<std::vector<double>> instances;
                instances.reserve(members.size());
                for (int i : members) {
                  core::TimeSeries s = core::ImputeLinear(train.series(i));
                  if (s.length() != length) {
                    s = core::ResampleToLength(s, length);
                  }
                  instances.push_back(s.Flatten());
                }
                VaeConfig class_config = config;
                class_config.seed = seed;
                auto model = std::make_unique<Vae>(class_config);
                TSAUG_RETURN_IF_ERROR(model->TryFit(instances));
                return model;
              }) {}

void VaeAugmenter::Prefit(const core::Dataset& train,
                          const std::vector<int>& labels) {
  models_.Prefit("augment." + name() + ".prefit", train, labels);
}

core::StatusOr<std::vector<core::TimeSeries>> VaeAugmenter::DoGenerate(
    const core::Dataset& train, int label, int count, core::Rng& rng) {
  core::StatusOr<Vae*> model = models_.Get(train, label);
  if (!model.ok()) return model.status();

  const int channels = train.num_channels();
  const int length = train.max_length();
  std::vector<core::TimeSeries> out;
  out.reserve(static_cast<size_t>(count));
  for (std::vector<double>& flat : (*model)->Sample(count, rng)) {
    out.push_back(core::TimeSeries::FromFlat(flat, channels, length));
  }
  return out;
}

}  // namespace tsaug::augment
