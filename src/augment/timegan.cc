#include "augment/timegan.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "core/cancel.h"
#include "core/faultpoint.h"
#include "core/preprocess.h"
#include "core/trace.h"
#include "nn/optimizer.h"

namespace tsaug::augment {

using nn::Tensor;
using nn::Variable;

namespace {

// Weight of the unsupervised adversarial terms on the generator's
// pre-supervisor output E_hat (Yoon et al.'s gamma).
constexpr double kGamma = 1.0;

}  // namespace

TimeGanConfig PaperScaleTimeGanConfig() {
  TimeGanConfig config;
  config.embedding_iterations = 2500;
  config.supervised_iterations = 2500;
  config.joint_iterations = 1000;
  return config;
}

TimeGan::TimeGan(TimeGanConfig config) : config_(std::move(config)) {
  TSAUG_CHECK(config_.hidden_dim >= 1 && config_.num_layers >= 1);
  TSAUG_CHECK(config_.batch_size >= 1);
}

Variable TimeGan::Embed(const Variable& x) const {
  return nn::Sigmoid(embedder_head_->Forward(embedder_gru_->Forward(x)));
}

Variable TimeGan::Recover(const Variable& h) const {
  return nn::Sigmoid(recovery_head_->Forward(recovery_gru_->Forward(h)));
}

Variable TimeGan::Generate(const Variable& z) const {
  return nn::Sigmoid(generator_head_->Forward(generator_gru_->Forward(z)));
}

Variable TimeGan::Supervise(const Variable& h) const {
  return nn::Sigmoid(supervisor_head_->Forward(supervisor_gru_->Forward(h)));
}

Variable TimeGan::Discriminate(const Variable& h) const {
  // Per-step real/fake logits [n, T, 1].
  return discriminator_head_->Forward(discriminator_gru_->Forward(h));
}

// Supervised next-step loss: mean over t of ||supervisor(h)_t - h_{t+1}||^2.
Variable TimeGan::SupervisedLoss(const Variable& h) const {
  const int time = h.value().dim(1);
  TSAUG_CHECK(time >= 2);
  const Variable predicted = Supervise(h);
  std::vector<Variable> errors;
  errors.reserve(static_cast<size_t>(time - 1));
  for (int t = 0; t + 1 < time; ++t) {
    const Variable diff =
        nn::Sub(nn::SelectTime(predicted, t), nn::SelectTime(h, t + 1));
    errors.push_back(nn::Mean(nn::Mul(diff, diff)));
  }
  Variable total = errors[0];
  for (size_t i = 1; i < errors.size(); ++i) total = nn::Add(total, errors[i]);
  return nn::ScaleBy(total, 1.0 / static_cast<double>(errors.size()));
}

Tensor TimeGan::SampleBatch(int batch, core::Rng& rng) const {
  Tensor out({batch, sequence_length_, num_features_});
  for (int b = 0; b < batch; ++b) {
    const Tensor& instance =
        scaled_[static_cast<size_t>(rng.Index(static_cast<int>(scaled_.size())))];
    for (int t = 0; t < sequence_length_; ++t) {
      for (int f = 0; f < num_features_; ++f) {
        out.at(b, t, f) = instance.at(t, f);
      }
    }
  }
  return out;
}

Tensor TimeGan::SampleNoise(int batch, core::Rng& rng) const {
  Tensor z({batch, sequence_length_, num_features_});
  for (double& v : z.data()) v = rng.Uniform(0.0, 1.0);
  return z;
}

core::Status TimeGan::TryFit(const std::vector<core::TimeSeries>& series) {
  if (core::fault::ShouldFail("timegan.fit")) {
    return core::fault::InjectedAt("timegan.fit");
  }
  if (series.empty()) {
    return core::DegenerateInputError("timegan: no training series");
  }
  core::Rng rng(config_.seed ^ 0x7161a9ull);

  // ---- Data preparation: rectangularise, cap length, min-max scale. ----
  num_features_ = series[0].num_channels();
  int max_length = 0;
  for (const core::TimeSeries& s : series) {
    TSAUG_CHECK(s.num_channels() == num_features_);
    max_length = std::max(max_length, s.length());
  }
  sequence_length_ = std::min(max_length, config_.max_sequence_length);
  if (sequence_length_ < 2) {
    return core::DegenerateInputError(
        "timegan: sequence length " + std::to_string(sequence_length_) +
        " too short for stepwise dynamics");
  }

  feature_min_.assign(static_cast<size_t>(num_features_), std::numeric_limits<double>::infinity());
  feature_max_.assign(static_cast<size_t>(num_features_),
                      -std::numeric_limits<double>::infinity());
  std::vector<core::TimeSeries> prepared;
  prepared.reserve(series.size());
  for (const core::TimeSeries& s : series) {
    core::TimeSeries p = core::ImputeLinear(s);
    if (p.length() != sequence_length_) {
      p = core::ResampleToLength(p, sequence_length_);
    }
    for (int f = 0; f < num_features_; ++f) {
      for (double v : p.channel(f)) {
        feature_min_[static_cast<size_t>(f)] = std::min(feature_min_[static_cast<size_t>(f)], v);
        feature_max_[static_cast<size_t>(f)] = std::max(feature_max_[static_cast<size_t>(f)], v);
      }
    }
    prepared.push_back(std::move(p));
  }
  scaled_.clear();
  for (const core::TimeSeries& p : prepared) {
    Tensor instance({sequence_length_, num_features_});
    for (int t = 0; t < sequence_length_; ++t) {
      for (int f = 0; f < num_features_; ++f) {
        const double range = feature_max_[static_cast<size_t>(f)] - feature_min_[static_cast<size_t>(f)];
        instance.at(t, f) =
            range > 1e-12 ? (p.at(f, t) - feature_min_[static_cast<size_t>(f)]) / range : 0.5;
      }
    }
    scaled_.push_back(std::move(instance));
  }

  // ---- Networks. ----
  const int h = config_.hidden_dim;
  embedder_gru_ =
      std::make_unique<nn::Gru>(num_features_, h, config_.num_layers, rng);
  embedder_head_ = std::make_unique<nn::TimeDistributed>(h, h, rng);
  recovery_gru_ = std::make_unique<nn::Gru>(h, h, config_.num_layers, rng);
  recovery_head_ = std::make_unique<nn::TimeDistributed>(h, num_features_, rng);
  generator_gru_ =
      std::make_unique<nn::Gru>(num_features_, h, config_.num_layers, rng);
  generator_head_ = std::make_unique<nn::TimeDistributed>(h, h, rng);
  supervisor_gru_ = std::make_unique<nn::Gru>(
      h, h, std::max(1, config_.num_layers - 1), rng);
  supervisor_head_ = std::make_unique<nn::TimeDistributed>(h, h, rng);
  discriminator_gru_ =
      std::make_unique<nn::Gru>(h, h, config_.num_layers, rng);
  discriminator_head_ = std::make_unique<nn::TimeDistributed>(h, 1, rng);

  auto params_of = [](std::initializer_list<nn::Module*> modules) {
    std::vector<Variable> params;
    for (nn::Module* m : modules) {
      const std::vector<Variable> sub = m->AllParameters();
      params.insert(params.end(), sub.begin(), sub.end());
    }
    return params;
  };
  const auto autoencoder_params =
      params_of({embedder_gru_.get(), embedder_head_.get(),
                 recovery_gru_.get(), recovery_head_.get()});
  const auto generator_params =
      params_of({generator_gru_.get(), generator_head_.get(),
                 supervisor_gru_.get(), supervisor_head_.get()});
  const auto discriminator_params =
      params_of({discriminator_gru_.get(), discriminator_head_.get()});
  auto zero_all = [&] {
    for (nn::Module* m : std::initializer_list<nn::Module*>{
             embedder_gru_.get(), embedder_head_.get(), recovery_gru_.get(),
             recovery_head_.get(), generator_gru_.get(), generator_head_.get(),
             supervisor_gru_.get(), supervisor_head_.get(),
             discriminator_gru_.get(), discriminator_head_.get()}) {
      m->ZeroGrad();
    }
  };

  nn::Adam autoencoder_opt(autoencoder_params, config_.learning_rate);
  nn::Adam supervisor_opt(generator_params, config_.learning_rate);
  nn::Adam generator_opt(generator_params, config_.learning_rate);
  nn::Adam embedder_joint_opt(autoencoder_params, config_.learning_rate);
  nn::Adam discriminator_opt(discriminator_params, config_.learning_rate);

  const int batch =
      std::min<int>(config_.batch_size, static_cast<int>(scaled_.size()));

  // ---- Phase 1: embedding (autoencoder reconstruction). ----
  for (int iter = 0; iter < config_.embedding_iterations; ++iter) {
    TSAUG_RETURN_IF_ERROR(core::CheckStop("timegan.embed"));
    zero_all();
    const Tensor x = SampleBatch(batch, rng);
    const Variable reconstruction = Recover(Embed(Variable(x)));
    Variable loss = nn::ScaleBy(nn::Sqrt(nn::MseLoss(reconstruction, x)), 10.0);
    loss.Backward();
    autoencoder_opt.Step();
    diagnostics_.reconstruction_loss = loss.value().scalar();
    if (!std::isfinite(diagnostics_.reconstruction_loss)) {
      return core::DivergedError(
          "timegan: non-finite reconstruction loss at embedding iteration " +
          std::to_string(iter));
    }
  }

  // ---- Phase 2: supervised loss on real embeddings. ----
  for (int iter = 0; iter < config_.supervised_iterations; ++iter) {
    TSAUG_RETURN_IF_ERROR(core::CheckStop("timegan.supervise"));
    zero_all();
    const Tensor x = SampleBatch(batch, rng);
    Variable loss = SupervisedLoss(Embed(Variable(x)));
    loss.Backward();
    supervisor_opt.Step();
    diagnostics_.supervised_loss = loss.value().scalar();
    if (!std::isfinite(diagnostics_.supervised_loss)) {
      return core::DivergedError(
          "timegan: non-finite supervised loss at iteration " +
          std::to_string(iter));
    }
  }

  // ---- Phase 3: joint adversarial training. ----
  for (int iter = 0; iter < config_.joint_iterations; ++iter) {
    TSAUG_RETURN_IF_ERROR(core::CheckStop("timegan.joint"));
    // Generator (twice per discriminator step, as in the original).
    for (int g = 0; g < 2; ++g) {
      zero_all();
      const Tensor x = SampleBatch(batch, rng);
      const Variable e_hat = Generate(Variable(SampleNoise(batch, rng)));
      const Variable h_hat = Supervise(e_hat);
      const Variable x_hat = Recover(h_hat);

      const Variable y_fake = Discriminate(h_hat);
      const Variable y_fake_e = Discriminate(e_hat);
      const Tensor ones(y_fake.value().shape(), 1.0);

      // Moment matching against the real batch's per-feature statistics.
      std::vector<double> target_mean(static_cast<size_t>(num_features_), 0.0);
      std::vector<double> target_std(static_cast<size_t>(num_features_), 0.0);
      const int cells = batch * sequence_length_;
      for (int b = 0; b < batch; ++b) {
        for (int t = 0; t < sequence_length_; ++t) {
          for (int f = 0; f < num_features_; ++f) {
            target_mean[static_cast<size_t>(f)] += x.at(b, t, f) / cells;
          }
        }
      }
      for (int b = 0; b < batch; ++b) {
        for (int t = 0; t < sequence_length_; ++t) {
          for (int f = 0; f < num_features_; ++f) {
            const double d = x.at(b, t, f) - target_mean[static_cast<size_t>(f)];
            target_std[static_cast<size_t>(f)] += d * d / cells;
          }
        }
      }
      for (double& v : target_std) v = std::sqrt(v + 1e-6);
      const Variable moments = nn::MomentMatchLoss(
          nn::Reshape(x_hat, {batch * sequence_length_, num_features_}),
          // Broadcast targets per (t,f) cell collapsed to features.
          target_mean, target_std);

      const Variable supervised = SupervisedLoss(Embed(Variable(x)));
      Variable loss = nn::Add(
          nn::Add(nn::BceWithLogitsLoss(y_fake, ones),
                  nn::ScaleBy(nn::BceWithLogitsLoss(y_fake_e, ones),
                              kGamma)),
          nn::Add(nn::ScaleBy(nn::Sqrt(supervised), 100.0),
                  nn::ScaleBy(moments, 100.0)));
      loss.Backward();
      generator_opt.Step();
      diagnostics_.generator_loss = loss.value().scalar();
      if (!std::isfinite(diagnostics_.generator_loss)) {
        return core::DivergedError(
            "timegan: non-finite generator loss at joint iteration " +
            std::to_string(iter));
      }
    }

    // Embedder refresh: reconstruction + a slice of the supervised loss.
    {
      zero_all();
      const Tensor x = SampleBatch(batch, rng);
      const Variable h_emb = Embed(Variable(x));
      const Variable reconstruction = Recover(h_emb);
      Variable loss =
          nn::Add(nn::ScaleBy(nn::Sqrt(nn::MseLoss(reconstruction, x)), 10.0),
                  nn::ScaleBy(SupervisedLoss(h_emb), 0.1));
      loss.Backward();
      embedder_joint_opt.Step();
    }

    // Discriminator (only when it is too weak, per the original).
    {
      zero_all();
      const Tensor x = SampleBatch(batch, rng);
      const Variable h_real = Embed(Variable(x));
      const Variable e_hat = Generate(Variable(SampleNoise(batch, rng)));
      const Variable h_hat = Supervise(e_hat);

      const Variable y_real = Discriminate(h_real);
      const Variable y_fake = Discriminate(h_hat);
      const Variable y_fake_e = Discriminate(e_hat);
      const Tensor ones(y_real.value().shape(), 1.0);
      const Tensor zeros(y_fake.value().shape(), 0.0);
      Variable loss = nn::Add(
          nn::BceWithLogitsLoss(y_real, ones),
          nn::Add(nn::BceWithLogitsLoss(y_fake, zeros),
                  nn::ScaleBy(nn::BceWithLogitsLoss(y_fake_e, zeros),
                              kGamma)));
      diagnostics_.discriminator_loss = loss.value().scalar();
      if (!std::isfinite(diagnostics_.discriminator_loss)) {
        return core::DivergedError(
            "timegan: non-finite discriminator loss at joint iteration " +
            std::to_string(iter));
      }
      if (diagnostics_.discriminator_loss > 0.15) {
        loss.Backward();
        discriminator_opt.Step();
      }
    }
  }
  fitted_ = true;
  return core::OkStatus();
}

std::vector<core::TimeSeries> TimeGan::Sample(int count, core::Rng& rng) {
  TSAUG_CHECK(fitted_);
  std::vector<core::TimeSeries> out;
  out.reserve(static_cast<size_t>(count));
  for (int start = 0; start < count; start += config_.batch_size) {
    const int batch = std::min(config_.batch_size, count - start);
    const Variable x_hat =
        Recover(Supervise(Generate(Variable(SampleNoise(batch, rng)))));
    for (int b = 0; b < batch; ++b) {
      core::TimeSeries series(num_features_, sequence_length_);
      for (int f = 0; f < num_features_; ++f) {
        const double range = feature_max_[static_cast<size_t>(f)] - feature_min_[static_cast<size_t>(f)];
        for (int t = 0; t < sequence_length_; ++t) {
          const double scaled = x_hat.value().at(b, t, f);
          series.at(f, t) =
              range > 1e-12 ? feature_min_[static_cast<size_t>(f)] + scaled * range
                            : feature_min_[static_cast<size_t>(f)];
        }
      }
      out.push_back(std::move(series));
    }
  }
  return out;
}

TimeGanAugmenter::TimeGanAugmenter(TimeGanConfig config,
                                   std::unique_ptr<Augmenter> fallback)
    : models_(config.seed,
              [config](const core::Dataset& train,
                       const std::vector<int>& members, std::uint64_t seed)
                  -> core::StatusOr<std::unique_ptr<TimeGan>> {
                std::vector<core::TimeSeries> class_series;
                class_series.reserve(members.size());
                for (int i : members) class_series.push_back(train.series(i));
                TimeGanConfig class_config = config;
                class_config.seed = seed;
                auto model = std::make_unique<TimeGan>(class_config);
                TSAUG_RETURN_IF_ERROR(model->TryFit(class_series));
                return model;
              }),
      fallback_(std::move(fallback)) {}

void TimeGanAugmenter::Prefit(const core::Dataset& train,
                              const std::vector<int>& labels) {
  models_.Prefit("augment." + name() + ".prefit", train, labels);
}

core::StatusOr<std::vector<core::TimeSeries>> TimeGanAugmenter::DoGenerate(
    const core::Dataset& train, int label, int count, core::Rng& rng) {
  // A class whose GAN failed to train goes straight to the fallback (or
  // re-reports its Status) instead of retraining every call.
  core::StatusOr<TimeGan*> model = models_.Get(train, label);
  if (!model.ok()) {
    if (fallback_ == nullptr) {
      core::Status status = model.status();
      return status.AddContext("timegan (no fallback)");
    }
    core::trace::AddCount("timegan.fallback");
    core::StatusOr<std::vector<core::TimeSeries>> degraded =
        fallback_->TryGenerate(train, label, count, rng);
    if (!degraded.ok()) {
      core::Status status = degraded.status();
      return status.AddContext("timegan fallback(" + fallback_->name() + ")");
    }
    return degraded;
  }

  std::vector<core::TimeSeries> samples = (*model)->Sample(count, rng);
  // GAN training may have shortened sequences; resample to dataset length.
  const int target_length = train.max_length();
  for (core::TimeSeries& s : samples) {
    if (s.length() != target_length) {
      s = core::ResampleToLength(s, target_length);
    }
  }
  return samples;
}

}  // namespace tsaug::augment
