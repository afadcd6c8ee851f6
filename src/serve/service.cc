#include "serve/service.h"

#include <utility>

#include "augment/pipeline.h"
#include "core/rng.h"
#include "core/trace.h"

namespace tsaug::serve {

ServiceConfig DefaultServiceConfig() {
  ServiceConfig config;
  config.dataset.name = "serve_default";
  config.dataset.num_classes = 2;
  config.dataset.train_counts = {16, 12};
  config.dataset.test_counts = {4, 4};
  config.dataset.num_channels = 2;
  config.dataset.length = 32;
  config.dataset.class_separation = 1.3;
  config.dataset.seed = 11;
  return config;
}

Service::Service(const ServiceConfig& config)
    : data_(data::MakeSynthetic(config.dataset)),
      model_(config.rocket_kernels, config.rocket_seed) {
  for (augment::TaxonomyEntry& entry :
       augment::BuildTaxonomy(config.include_timegan)) {
    techniques_.push_back(std::move(entry.augmenter));
  }
  for (const std::shared_ptr<augment::Augmenter>& technique : techniques_) {
    by_name_[technique->name()] = technique.get();
  }
  // Fitting at construction makes every later score batch a pure
  // transform+predict: the model (like the dataset) is part of the
  // registry, deterministic in the config seeds.
  const core::Status fitted = model_.TryFit(data_.train);
  TSAUG_CHECK_MSG(fitted.ok(), "serve: %s", fitted.ToString().c_str());
}

augment::Augmenter* Service::FindTechnique(const std::string& name) {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

std::vector<AugmentResponse> Service::ExecuteAugmentBatch(
    const std::vector<const AugmentRequest*>& batch) {
  TSAUG_TRACE_SCOPE("serve.execute.augment");
  std::vector<AugmentResponse> responses(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const AugmentRequest& request = *batch[i];
    AugmentResponse& response = responses[i];
    response.request_id = request.request_id;
    augment::Augmenter* technique = FindTechnique(request.technique);
    if (technique == nullptr) {
      response.status = core::InvalidArgumentError(
          "serve: unknown technique \"" + request.technique + "\"");
      continue;
    }
    if (request.label < 0 || request.label >= data_.train.num_classes()) {
      response.status = core::InvalidArgumentError(
          "serve: label " + std::to_string(request.label) +
          " outside [0, " + std::to_string(data_.train.num_classes()) + ")");
      continue;
    }
    // A fresh generator per request: the response depends on the request's
    // own seed, never on what else shares the batch.
    core::Rng rng(request.seed);
    core::StatusOr<std::vector<core::TimeSeries>> generated =
        technique->TryGenerate(data_.train, request.label, request.count, rng);
    if (!generated.ok()) {
      response.status = generated.status();
      continue;
    }
    response.series = std::move(generated).value();
  }
  return responses;
}

std::vector<ScoreResponse> Service::ExecuteScoreBatch(
    const std::vector<const ScoreRequest*>& batch) {
  TSAUG_TRACE_SCOPE("serve.execute.score");
  std::vector<ScoreResponse> responses(batch.size());
  const int channels = num_channels();
  const int length = series_length();
  // Admissible requests are coalesced into one Dataset so the whole batch
  // flows through a single ROCKET transform (one tensor, PPV/max kernels
  // across all rows) and one ridge predict — the cross-request batching
  // the queue exists to enable. Each row's features and scores depend
  // only on that row, so the per-request labels are identical to running
  // each request alone.
  core::Dataset batched(data_.train.num_classes());
  std::vector<size_t> admitted;
  for (size_t i = 0; i < batch.size(); ++i) {
    const ScoreRequest& request = *batch[i];
    responses[i].request_id = request.request_id;
    if (request.series.num_channels() != channels ||
        request.series.length() != length) {
      responses[i].status = core::InvalidArgumentError(
          "serve: series geometry " +
          std::to_string(request.series.num_channels()) + "x" +
          std::to_string(request.series.length()) +
          " does not match the registered dataset " +
          std::to_string(channels) + "x" + std::to_string(length));
      continue;
    }
    // Ingest policy for NaN/Inf payloads: reject typed (the connection
    // stays open — only this request fails) unless the request opted into
    // sanitize-on-ingest, in which case non-finite samples become NaN and
    // the model's ordinary missing-value imputation handles them.
    core::Status finite = ValidateScoreRequestFinite(request);
    if (!finite.ok()) {
      responses[i].status = std::move(finite);
      continue;
    }
    if (request.sanitize_non_finite) {
      core::TimeSeries sanitized = request.series;
      SanitizeNonFinite(sanitized);
      batched.Add(std::move(sanitized), /*label=*/0);  // label unused
    } else {
      batched.Add(request.series, /*label=*/0);  // label unused by Predict
    }
    admitted.push_back(i);
  }
  if (admitted.empty()) return responses;
  const std::vector<int> labels = model_.Predict(batched);
  for (size_t row = 0; row < admitted.size(); ++row) {
    responses[admitted[row]].label = labels[row];
  }
  return responses;
}

}  // namespace tsaug::serve
