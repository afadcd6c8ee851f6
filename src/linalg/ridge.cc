#include "linalg/ridge.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/faultpoint.h"
#include "core/trace.h"
#include "linalg/decomposition.h"

namespace tsaug::linalg {

CenteredRidgeProblem::CenteredRidgeProblem(const Matrix& x, const Matrix& y,
                                           bool with_gram)
    : x_means(x.ColMeans()), y_means(y.ColMeans()), xc(x), yc(y) {
  TSAUG_CHECK(x.rows() == y.rows());
  TSAUG_CHECK(x.rows() > 0);
  xc.CenterColumns(x_means);
  yc.CenterColumns(y_means);
  if (with_gram) gram = Gram(xc);
}

core::Status RidgeRegression::TryFit(const Matrix& x, const Matrix& y,
                                     double alpha) {
  return TryFit(CenteredRidgeProblem(x, y, /*with_gram=*/false), alpha);
}

core::Status RidgeRegression::TryFit(const CenteredRidgeProblem& problem,
                                     double alpha) {
  TSAUG_CHECK(alpha >= 0.0);

  if (core::fault::ShouldFail("ridge.solve")) {
    return core::fault::InjectedAt("ridge.solve");
  }

  const Matrix& xc = problem.xc;
  const Matrix& yc = problem.yc;
  if (!problem.dual()) {
    // Primal: (Xc^T Xc + aI) W = Xc^T Yc.
    Matrix gram = MatMulTransposeA(xc, xc);
    AddDiagonal(gram, alpha);
    core::StatusOr<Matrix> solved =
        TryCholeskySolveJittered(gram, MatMulTransposeA(xc, yc));
    if (!solved.ok()) {
      core::Status status = solved.status();
      return status.AddContext("ridge.solve(primal)");
    }
    weights_ = std::move(solved).value();
  } else {
    // Dual: (Xc Xc^T + aI) C = Yc, W = Xc^T C.
    Matrix gram = problem.gram.empty() ? Gram(xc) : problem.gram;
    AddDiagonal(gram, alpha);
    core::StatusOr<Matrix> solved = TryCholeskySolveJittered(gram, yc);
    if (!solved.ok()) {
      core::Status status = solved.status();
      return status.AddContext("ridge.solve(dual)");
    }
    weights_ = MatMulTransposeA(xc, std::move(solved).value());
  }

  intercept_.assign(static_cast<size_t>(yc.cols()), 0.0);
  for (int k = 0; k < yc.cols(); ++k) {
    double shift = problem.y_means[static_cast<size_t>(k)];
    for (int d = 0; d < xc.cols(); ++d) shift -= problem.x_means[static_cast<size_t>(d)] * weights_(d, k);
    intercept_[static_cast<size_t>(k)] = shift;
  }
  return core::OkStatus();
}

Matrix RidgeRegression::Predict(const Matrix& x) const {
  TSAUG_CHECK(fitted());
  TSAUG_CHECK(x.cols() == weights_.rows());
  Matrix out = MatMul(x, weights_);
  for (int i = 0; i < out.rows(); ++i) {
    for (int k = 0; k < out.cols(); ++k) out(i, k) += intercept_[static_cast<size_t>(k)];
  }
  return out;
}

Matrix EncodeLabels(const std::vector<int>& labels, int num_classes) {
  Matrix y(static_cast<int>(labels.size()), num_classes, -1.0);
  for (int i = 0; i < y.rows(); ++i) {
    TSAUG_CHECK(labels[static_cast<size_t>(i)] >= 0 && labels[static_cast<size_t>(i)] < num_classes);
    y(i, labels[static_cast<size_t>(i)]) = 1.0;
  }
  return y;
}

namespace {

/// Relative gap between the best and second-best LOO error below which a
/// fit counts as a near-tie ("ridge.loocv_near_tie").
constexpr double kNearTie = 1e-9;

/// Index of the eigenvector of Q closest (in angle) to the all-ones
/// direction. Column-centring puts the ones vector in the Gram matrix's
/// null space; that direction corresponds to the unpenalised intercept and
/// must be excluded from the LOOCV identity (as sklearn's _RidgeGCV does),
/// or its 1/alpha term swamps the G^{-1} diagonal as alpha -> 0.
///
/// Returns -1 when the null space has more than one dimension (fewer
/// features than samples - 1, or repeated rows): its eigenvectors are then
/// an arbitrary basis of that space, none of them the ones direction, and
/// LooError projects the ones direction out explicitly instead.
int InterceptDimension(const Matrix& q, const std::vector<double>& eigenvalues) {
  const double largest =
      *std::max_element(eigenvalues.begin(), eigenvalues.end());
  int null_dims = 0;
  for (double v : eigenvalues) {
    if (v <= 1e-9 * largest) ++null_dims;
  }
  if (null_dims > 1) return -1;
  int best = 0;
  double best_abs = -1.0;
  for (int j = 0; j < q.cols(); ++j) {
    double dot = 0.0;
    for (int i = 0; i < q.rows(); ++i) dot += q(i, j);
    if (std::fabs(dot) > best_abs) {
      best_abs = std::fabs(dot);
      best = j;
    }
  }
  return best;
}

/// Sum of squared leave-one-out residuals of kernel ridge with the given
/// regulariser, from the eigendecomposition of the centred Gram matrix.
/// `qty` = Q^T Yc. Identity: e_i = c_i / G^{-1}_{ii} with
/// c = G^{-1} Yc and G = K + alpha I, the ones (intercept) direction
/// removed from G^{-1}. The eigendirection `intercept_dim` carries zero
/// weight; with intercept_dim = -1 every direction keeps its weight and
/// the ones direction's share, 1/(alpha n), comes off the diagonal (its
/// share of c is zero, since Yc is centred).
double LooError(const Matrix& q, const std::vector<double>& eigenvalues,
                const Matrix& qty, double alpha, int intercept_dim) {
  const int n = q.rows();
  const int k = qty.cols();

  std::vector<double> inv_eig(static_cast<size_t>(n));
  for (int j = 0; j < n; ++j) {
    inv_eig[static_cast<size_t>(j)] = j == intercept_dim ? 0.0 : 1.0 / (eigenvalues[static_cast<size_t>(j)] + alpha);
  }
  const double ones_share = intercept_dim < 0 ? 1.0 / (alpha * n) : 0.0;

  // c = Q diag(w) Q^T Yc with w = inv_eig.
  Matrix scaled = qty;  // rows indexed by eigenvalue
  for (int j = 0; j < n; ++j) {
    for (int t = 0; t < k; ++t) scaled(j, t) *= inv_eig[static_cast<size_t>(j)];
  }
  const Matrix dual = MatMul(q, scaled);  // n x k

  double error = 0.0;
  for (int i = 0; i < n; ++i) {
    double ginv_ii = 0.0;
    for (int j = 0; j < n; ++j) {
      ginv_ii += q(i, j) * q(i, j) * inv_eig[static_cast<size_t>(j)];
    }
    ginv_ii -= ones_share;
    if (ginv_ii <= 0.0) return std::numeric_limits<double>::infinity();
    for (int t = 0; t < k; ++t) {
      const double residual = dual(i, t) / ginv_ii;
      error += residual * residual;
    }
  }
  return error;
}

}  // namespace

RidgeClassifierCV::RidgeClassifierCV() {
  // 10 log-spaced points over [1e-3, 1e3], the ROCKET paper's grid.
  for (int i = 0; i < 10; ++i) {
    alphas_.push_back(std::pow(10.0, -3.0 + 6.0 * i / 9.0));
  }
}

RidgeClassifierCV::RidgeClassifierCV(std::vector<double> alphas)
    : alphas_(std::move(alphas)) {
  TSAUG_CHECK(!alphas_.empty());
}

core::Status RidgeClassifierCV::TryFit(const Matrix& x,
                                       const std::vector<int>& labels,
                                       int num_classes) {
  TSAUG_CHECK(x.rows() == static_cast<int>(labels.size()));
  TSAUG_CHECK(num_classes >= 2);
  num_classes_ = num_classes;
  solve_retries_ = 0;
  loocv_fallback_ = false;
  loo_errors_.clear();
  const Matrix y = EncodeLabels(labels, num_classes);

  best_alpha_ = alphas_[alphas_.size() / 2];
  // Recovery policy: LOOCV alpha selection is an optimisation, not a
  // requirement — an eigendecomposition that fails (kDiverged on a
  // non-finite Gram) or an injected "ridge.loocv" fault falls back to the
  // default mid-grid alpha rather than failing the fit.
  const bool loocv_wanted = x.rows() >= 3 && alphas_.size() > 1;
  bool loocv_usable = loocv_wanted && !core::fault::ShouldFail("ridge.loocv");
  // One centring and one Gram serve the LOOCV sweep and every final-solve
  // attempt below; the primal solve has no use for the n x n Gram.
  const CenteredRidgeProblem problem(x, y,
                                     loocv_usable || x.cols() > x.rows());
  if (loocv_usable) {
    std::vector<double> eigenvalues;
    Matrix q;
    loocv_usable = SymmetricEigen(problem.gram, &eigenvalues, &q).ok();
    if (loocv_usable) {
      // Clamp tiny negative eigenvalues from roundoff.
      for (double& v : eigenvalues) v = std::max(v, 0.0);
      const Matrix qty = MatMulTransposeA(q, problem.yc);
      const int intercept_dim = InterceptDimension(q, eigenvalues);

      double best_error = std::numeric_limits<double>::infinity();
      double second_error = std::numeric_limits<double>::infinity();
      for (double alpha : alphas_) {
        const double error =
            LooError(q, eigenvalues, qty, alpha, intercept_dim);
        loo_errors_.push_back(error);
        if (error < best_error) {
          second_error = best_error;
          best_error = error;
          best_alpha_ = alpha;
        } else if (error < second_error) {
          second_error = error;
        }
      }
      // A runner-up this close could swap places under a roundoff-level
      // change to the eigendecomposition, flipping best_alpha.
      if (second_error - best_error <= kNearTie * best_error) {
        core::trace::AddCount("ridge.loocv_near_tie");
      }
    }
  }
  if (loocv_wanted && !loocv_usable) {
    loocv_fallback_ = true;
    best_alpha_ = alphas_[alphas_.size() / 2];
    core::trace::AddCount("ridge.loocv_fallback");
  }

  // Recovery policy: a singular solve at the selected alpha escalates the
  // regulariser tenfold per retry — each step makes the system strictly
  // better conditioned — before giving up with kSingular.
  constexpr int kMaxAlphaEscalations = 3;
  double alpha = best_alpha_;
  core::Status status;
  for (int attempt = 0; attempt <= kMaxAlphaEscalations; ++attempt) {
    status = model_.TryFit(problem, alpha);
    if (status.ok()) {
      best_alpha_ = alpha;
      return status;
    }
    if (status.code() != core::StatusCode::kSingular &&
        status.code() != core::StatusCode::kInjectedFault) {
      return status.AddContext("ridge.fit");
    }
    ++solve_retries_;
    core::trace::AddCount("ridge.alpha_escalated");
    alpha *= 10.0;
  }
  return status.AddContext("ridge.fit: alpha escalation exhausted");
}

Matrix RidgeClassifierCV::DecisionFunction(const Matrix& x) const {
  return model_.Predict(x);
}

std::vector<int> RidgeClassifierCV::Predict(const Matrix& x) const {
  const Matrix scores = DecisionFunction(x);
  std::vector<int> labels(static_cast<size_t>(scores.rows()));
  for (int i = 0; i < scores.rows(); ++i) {
    // Non-finite scores are skipped defensively: a NaN compares false
    // against everything, which would otherwise silently elect class 0.
    int best = -1;
    for (int k = 0; k < scores.cols(); ++k) {
      if (!std::isfinite(scores(i, k))) continue;
      if (best < 0 || scores(i, k) > scores(i, best)) best = k;
    }
    labels[static_cast<size_t>(i)] = best < 0 ? 0 : best;
  }
  return labels;
}

double RidgeClassifierCV::Score(const Matrix& x,
                                const std::vector<int>& labels) const {
  TSAUG_CHECK(x.rows() == static_cast<int>(labels.size()));
  if (labels.empty()) return 0.0;
  const std::vector<int> predicted = Predict(x);
  int correct = 0;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (predicted[i] == labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(labels.size());
}

}  // namespace tsaug::linalg
