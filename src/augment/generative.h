#ifndef TSAUG_AUGMENT_GENERATIVE_H_
#define TSAUG_AUGMENT_GENERATIVE_H_

#include <string>

#include "augment/augmenter.h"

namespace tsaug::augment {

/// Statistical generative model: fits a multivariate Gaussian (shrinkage
/// covariance over flattened series) per class and samples from it — the
/// simplest member of the taxonomy's generative/statistical branch.
class GaussianGenerator : public Augmenter {
 public:
  GaussianGenerator() = default;
  std::string name() const override { return "gaussian_gen"; }
  TaxonomyBranch branch() const override {
    return TaxonomyBranch::kGenerativeStatistical;
  }
  core::StatusOr<std::vector<core::TimeSeries>> DoGenerate(
      const core::Dataset& train, int label, int count,
      core::Rng& rng) override;
};

/// Probabilistic autoregressive generator (the taxonomy's WaveNet/DeepAR
/// slot, Eq. (1)): factorises P(x) = prod_t P(x_t | x_{<t}) with a
/// per-channel AR(p) model fitted by Yule-Walker on the class's residuals
/// around the class mean curve; sampling runs the fitted recursion forward
/// with Gaussian innovations.
class ArGenerator : public Augmenter {
 public:
  explicit ArGenerator(int order = 3);
  std::string name() const override { return "ar_gen"; }
  TaxonomyBranch branch() const override {
    return TaxonomyBranch::kGenerativeProbabilistic;
  }
  core::StatusOr<std::vector<core::TimeSeries>> DoGenerate(
      const core::Dataset& train, int label, int count,
      core::Rng& rng) override;

 private:
  int order_;
};

/// Yule-Walker AR(p) fit of a zero-mean signal: returns the coefficients
/// (phi_1..phi_p) and sets `innovation_variance` to the residual variance.
/// kSingular when the autocovariance system cannot be solved (a signal
/// holding NaN or inf). Exposed for tests and the generative benches.
[[nodiscard]] core::StatusOr<std::vector<double>> FitAutoregressive(
    const std::vector<double>& signal, int order,
    double* innovation_variance);

}  // namespace tsaug::augment

#endif  // TSAUG_AUGMENT_GENERATIVE_H_
