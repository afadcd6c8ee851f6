#ifndef TSAUG_LINALG_RIDGE_H_
#define TSAUG_LINALG_RIDGE_H_

#include <vector>

#include "core/status.h"
#include "linalg/matrix.h"

namespace tsaug::linalg {

/// A ridge problem after column centring: the column means of X and Y,
/// the centred Xc and Yc, and optionally the unregularised n x n Gram
/// Xc Xc^T. RidgeClassifierCV builds one per fit and shares it between
/// its LOOCV eigendecomposition and every final-solve attempt, so the
/// centring and the O(n^2 d) Gram are computed once per fit.
struct CenteredRidgeProblem {
  /// Centres `x` (n x d) and `y` (n x k); computes `gram` only when
  /// `with_gram` is set.
  CenteredRidgeProblem(const Matrix& x, const Matrix& y, bool with_gram);

  /// More features than samples: the solve runs on the n x n Gram.
  bool dual() const { return xc.cols() > xc.rows(); }

  std::vector<double> x_means;
  std::vector<double> y_means;
  Matrix xc;
  Matrix yc;
  Matrix gram;  // Xc Xc^T, or empty when not requested
};

/// Multi-output ridge regression with intercept.
///
/// Solves min_W ||X W - Y||^2 + alpha ||W||^2 on column-centred data,
/// automatically choosing the primal formulation (features <= samples,
/// solve (X^T X + aI) W = X^T Y) or the dual one (samples < features,
/// solve (X X^T + aI) C = Y, W = X^T C). The dual path is what makes
/// ROCKET's 20k-dimensional feature spaces tractable.
class RidgeRegression {
 public:
  /// Fits on `x` (n x d) against targets `y` (n x k). Returns kSingular
  /// when the regularised Gram matrix cannot be factorised even after the
  /// jitter schedule (fault point: "ridge.solve").
  [[nodiscard]] core::Status TryFit(const Matrix& x, const Matrix& y, double alpha);

  /// TryFit on an already-centred problem. The dual solve reuses
  /// `problem.gram` when it is present; the result is bit-identical to
  /// TryFit on the uncentred inputs.
  [[nodiscard]] core::Status TryFit(const CenteredRidgeProblem& problem,
                                    double alpha);

  /// Predicted targets for `x` (n x d) -> (n x k).
  Matrix Predict(const Matrix& x) const;

  const Matrix& weights() const { return weights_; }          // d x k
  const std::vector<double>& intercept() const { return intercept_; }
  bool fitted() const { return !weights_.empty(); }

 private:
  Matrix weights_;
  std::vector<double> intercept_;
};

/// One-vs-rest ridge classifier with leave-one-out cross-validated alpha,
/// the classifier the paper pairs with ROCKET (sklearn RidgeClassifierCV).
///
/// Labels are encoded as {-1, +1} indicator targets; alpha is selected by
/// the closed-form LOOCV identity on the eigendecomposition of the centred
/// Gram matrix, so the whole alpha grid costs one O(n^3) decomposition.
class RidgeClassifierCV {
 public:
  /// Default grid matches sklearn's ROCKET pairing: 10 points, log-spaced
  /// over [1e-3, 1e3].
  RidgeClassifierCV();
  explicit RidgeClassifierCV(std::vector<double> alphas);

  /// Fits on feature rows `x` with integer labels in [0, num_classes).
  ///
  /// Recovery policies (both observable through the accessors below):
  ///  - an eigendecomposition that fails (kDiverged, e.g. on non-finite
  ///    features) or an injected "ridge.loocv" fault degrades to the
  ///    default mid-grid alpha instead of failing;
  ///  - a singular final solve escalates alpha tenfold up to a bounded
  ///    number of retries before reporting kSingular.
  [[nodiscard]] core::Status TryFit(const Matrix& x, const std::vector<int>& labels,
                      int num_classes);

  /// Class decision scores, one row per instance (n x num_classes).
  Matrix DecisionFunction(const Matrix& x) const;

  /// Predicted labels (argmax of decision scores).
  std::vector<int> Predict(const Matrix& x) const;

  /// Accuracy on a labelled feature matrix.
  double Score(const Matrix& x, const std::vector<int>& labels) const;

  double best_alpha() const { return best_alpha_; }
  int num_classes() const { return num_classes_; }

  /// Times the last TryFit escalated alpha after a singular solve.
  int solve_retries() const { return solve_retries_; }
  /// True when the last TryFit abandoned LOOCV alpha selection.
  bool loocv_fell_back() const { return loocv_fallback_; }
  /// Sum of squared leave-one-out residuals at each grid alpha, from the
  /// last TryFit's LOOCV sweep (empty when the sweep did not run).
  const std::vector<double>& loo_errors() const { return loo_errors_; }
  /// The final regression, fitted at best_alpha().
  const RidgeRegression& model() const { return model_; }

 private:
  std::vector<double> alphas_;
  RidgeRegression model_;
  double best_alpha_ = 1.0;
  int num_classes_ = 0;
  int solve_retries_ = 0;
  bool loocv_fallback_ = false;
  std::vector<double> loo_errors_;
};

/// {-1,+1} one-vs-rest indicator targets for integer labels.
Matrix EncodeLabels(const std::vector<int>& labels, int num_classes);

}  // namespace tsaug::linalg

#endif  // TSAUG_LINALG_RIDGE_H_
