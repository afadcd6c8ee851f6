#ifndef TSAUG_AUGMENT_GENERATIVE_H_
#define TSAUG_AUGMENT_GENERATIVE_H_

#include <string>
#include <vector>

#include "augment/augmenter.h"
#include "linalg/matrix.h"

namespace tsaug::augment {

/// Appends `count` draws mean + L z to `out`, each reshaped to channels x
/// length, with z ~ N(0, I) drawn one dimension after another. mean and
/// L L^T are the column means and the shrinkage covariance of the rows of
/// `points` (at least two), factored by Cholesky with 1e-9 diagonal
/// jitter, then 1e-4 more if that fails; kSingular, prefixed by `what`,
/// if both fail. GaussianGenerator samples a class this way and Ohit each
/// of its clusters.
[[nodiscard]] core::Status AppendGaussianDraws(
    const linalg::Matrix& points, int count, int channels, int length,
    const std::string& what, core::Rng& rng,
    std::vector<core::TimeSeries>& out);

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
