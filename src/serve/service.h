#ifndef TSAUG_SERVE_SERVICE_H_
#define TSAUG_SERVE_SERVICE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "augment/augmenter.h"
#include "classify/rocket.h"
#include "core/dataset.h"
#include "data/synthetic.h"
#include "serve/frame.h"

namespace tsaug::serve {

/// What the server registers at startup: the training dataset (synthetic,
/// deterministic in its seed), the taxonomy of augmentation techniques
/// operating on it, and a ROCKET+ridge model fitted to it for scoring.
struct ServiceConfig {
  /// The registered training data. Defaults (DefaultServiceConfig) are a
  /// small 2-class set so server startup is instant; paper-scale serving
  /// raises the counts/kernels via flags.
  data::SyntheticSpec dataset;
  int rocket_kernels = 200;
  std::uint64_t rocket_seed = 7;
  /// TimeGAN's per-request training cost is seconds, not microseconds —
  /// off by default so a mistyped technique name cannot stall a batch.
  bool include_timegan = false;
};

/// The default serving corpus every binary (server, loadgen, bench, e2e
/// test) shares, so client-generated score payloads match the model's
/// fitted geometry without a handshake.
ServiceConfig DefaultServiceConfig();

/// The request executor behind the batching queue: owns the registered
/// dataset, techniques and model, and runs whole batches through the
/// kernel-backed hot paths.
///
/// Determinism contract: every response is a function of its own
/// request's fields (technique, label, count, seed — or the series
/// payload) plus the registry fixed at construction. Batch composition
/// and order never leak in: augment requests each draw from a fresh
/// core::Rng(seed), and score requests become independent rows of one
/// batched ROCKET transform (per-row PPV/max + per-row ridge scores).
/// That is what makes cross-request batching safe — the e2e suite
/// compares batched responses bitwise against a single-client run.
///
/// Thread safety: Execute* are called from the server's single dispatch
/// thread. They are not otherwise synchronised (several augmenters cache
/// per-class fitted state), so do not call them concurrently.
class Service {
 public:
  explicit Service(const ServiceConfig& config);

  /// Runs one batch of augment requests (request order preserved).
  /// Per-request failures (unknown technique, bad label, degenerate
  /// class) come back inside the response's Status.
  std::vector<AugmentResponse> ExecuteAugmentBatch(
      const std::vector<const AugmentRequest*>& batch);

  /// Runs one batch of score requests as a single rectangular tensor
  /// through the ROCKET transform and ridge scorer. Requests whose series
  /// geometry does not match the registered dataset get a per-request
  /// kInvalidArgument.
  std::vector<ScoreResponse> ExecuteScoreBatch(
      const std::vector<const ScoreRequest*>& batch);

  const core::Dataset& train() const { return data_.train; }
  int num_channels() const { return data_.train.num_channels(); }
  int series_length() const { return data_.train.max_length(); }

 private:
  augment::Augmenter* FindTechnique(const std::string& name);

  data::TrainTest data_;
  std::vector<std::shared_ptr<augment::Augmenter>> techniques_;
  std::map<std::string, augment::Augmenter*> by_name_;
  classify::RocketClassifier model_;
};

}  // namespace tsaug::serve

#endif  // TSAUG_SERVE_SERVICE_H_
