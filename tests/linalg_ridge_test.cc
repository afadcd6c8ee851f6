#include "linalg/ridge.h"

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/faultpoint.h"
#include "core/rng.h"
#include "core/trace.h"

namespace tsaug::linalg {
namespace {

TEST(RidgeRegression, RecoversLinearMapAtSmallAlpha) {
  core::Rng rng(1);
  Matrix x(60, 3);
  for (double& v : x.data()) v = rng.Normal();
  // y = 2*x0 - x1 + 0.5*x2 + 3.
  Matrix y(60, 1);
  for (int i = 0; i < 60; ++i) {
    y(i, 0) = 2.0 * x(i, 0) - x(i, 1) + 0.5 * x(i, 2) + 3.0;
  }
  RidgeRegression model;
  ASSERT_TRUE(model.TryFit(x, y, 1e-8).ok());
  EXPECT_NEAR(model.weights()(0, 0), 2.0, 1e-4);
  EXPECT_NEAR(model.weights()(1, 0), -1.0, 1e-4);
  EXPECT_NEAR(model.weights()(2, 0), 0.5, 1e-4);
  EXPECT_NEAR(model.intercept()[0], 3.0, 1e-4);
}

TEST(RidgeRegression, PrimalAndDualAgree) {
  core::Rng rng(2);
  Matrix x_tall(40, 5);
  for (double& v : x_tall.data()) v = rng.Normal();
  Matrix y(40, 2);
  for (double& v : y.data()) v = rng.Normal();

  RidgeRegression primal;
  // 5 features <= 40 samples -> primal
  ASSERT_TRUE(primal.TryFit(x_tall, y, 0.7).ok());

  // Same problem fed through the dual path by transposing the role: build a
  // wide matrix from the same data by fitting on fewer samples than
  // features is not the same problem, so instead verify the dual algebra
  // directly: fit a wide system and check the normal equations hold.
  Matrix x_wide(6, 30);
  for (double& v : x_wide.data()) v = rng.Normal();
  Matrix y_wide(6, 1);
  for (double& v : y_wide.data()) v = rng.Normal();
  RidgeRegression dual;
  const double alpha = 0.3;
  ASSERT_TRUE(dual.TryFit(x_wide, y_wide, alpha).ok());
  // Optimality of centred ridge: Xc^T (Yc - Xc W) = alpha W.
  Matrix xc = x_wide;
  xc.CenterColumns(x_wide.ColMeans());
  Matrix yc = y_wide;
  yc.CenterColumns(y_wide.ColMeans());
  Matrix residual = Sub(yc, MatMul(xc, dual.weights()));
  Matrix lhs = MatMulTransposeA(xc, residual);
  EXPECT_LT(MaxAbsDiff(lhs, Scale(dual.weights(), alpha)), 1e-8);
}

TEST(RidgeRegression, LargerAlphaShrinksWeights) {
  core::Rng rng(3);
  Matrix x(30, 4);
  for (double& v : x.data()) v = rng.Normal();
  Matrix y(30, 1);
  for (int i = 0; i < 30; ++i) y(i, 0) = x(i, 0) + rng.Normal(0, 0.1);
  RidgeRegression small;
  ASSERT_TRUE(small.TryFit(x, y, 1e-6).ok());
  RidgeRegression large;
  ASSERT_TRUE(large.TryFit(x, y, 1e3).ok());
  double small_norm = 0.0;
  double large_norm = 0.0;
  for (double v : small.weights().data()) small_norm += v * v;
  for (double v : large.weights().data()) large_norm += v * v;
  EXPECT_LT(large_norm, small_norm);
}

TEST(EncodeLabels, PlusMinusOne) {
  Matrix y = EncodeLabels({0, 2, 1}, 3);
  EXPECT_DOUBLE_EQ(y(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(y(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(y(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(y(2, 1), 1.0);
}

Matrix GaussianBlobs(const std::vector<int>& labels, double separation,
                     core::Rng& rng) {
  Matrix x(static_cast<int>(labels.size()), 2);
  for (int i = 0; i < x.rows(); ++i) {
    x(i, 0) = labels[static_cast<size_t>(i)] * separation + rng.Normal(0, 0.4);
    x(i, 1) = (labels[static_cast<size_t>(i)] % 2 == 0 ? 1 : -1) * separation / 2 + rng.Normal(0, 0.4);
  }
  return x;
}

TEST(RidgeClassifierCV, SeparatesGaussianBlobs) {
  core::Rng rng(4);
  std::vector<int> labels;
  for (int i = 0; i < 90; ++i) labels.push_back(i % 3);
  Matrix x = GaussianBlobs(labels, 4.0, rng);

  RidgeClassifierCV clf;
  ASSERT_TRUE(clf.TryFit(x, labels, 3).ok());
  EXPECT_GT(clf.Score(x, labels), 0.95);

  std::vector<int> test_labels;
  for (int i = 0; i < 30; ++i) test_labels.push_back(i % 3);
  Matrix x_test = GaussianBlobs(test_labels, 4.0, rng);
  EXPECT_GT(clf.Score(x_test, test_labels), 0.9);
}

TEST(RidgeClassifierCV, SelectsAlphaFromGrid) {
  core::Rng rng(5);
  std::vector<int> labels;
  for (int i = 0; i < 40; ++i) labels.push_back(i % 2);
  Matrix x = GaussianBlobs(labels, 2.0, rng);
  RidgeClassifierCV clf({0.01, 1.0, 100.0});
  ASSERT_TRUE(clf.TryFit(x, labels, 2).ok());
  EXPECT_TRUE(clf.best_alpha() == 0.01 || clf.best_alpha() == 1.0 ||
              clf.best_alpha() == 100.0);
}

TEST(RidgeClassifierCV, LoocvPrefersRegularizationUnderNoise) {
  // Pure-noise features with few samples and many dims: LOOCV should pick a
  // large alpha rather than the smallest.
  core::Rng rng(6);
  Matrix x(12, 40);
  for (double& v : x.data()) v = rng.Normal();
  std::vector<int> labels;
  for (int i = 0; i < 12; ++i) labels.push_back(i % 2);
  RidgeClassifierCV clf({1e-6, 1e3});
  ASSERT_TRUE(clf.TryFit(x, labels, 2).ok());
  EXPECT_DOUBLE_EQ(clf.best_alpha(), 1e3);
}

TEST(RidgeClassifierCV, DecisionFunctionShape) {
  core::Rng rng(7);
  std::vector<int> labels = {0, 1, 2, 0, 1, 2, 0, 1, 2};
  Matrix x = GaussianBlobs(labels, 3.0, rng);
  RidgeClassifierCV clf;
  ASSERT_TRUE(clf.TryFit(x, labels, 3).ok());
  Matrix scores = clf.DecisionFunction(x);
  EXPECT_EQ(scores.rows(), 9);
  EXPECT_EQ(scores.cols(), 3);
}

TEST(RidgeClassifierCV, WideFeatureMatrix) {
  // More features than samples (the ROCKET regime) must work via the dual.
  core::Rng rng(8);
  Matrix x(20, 200);
  std::vector<int> labels;
  for (int i = 0; i < 20; ++i) {
    labels.push_back(i % 2);
    for (int j = 0; j < 200; ++j) {
      x(i, j) = rng.Normal() + (i % 2) * 0.8;
    }
  }
  RidgeClassifierCV clf;
  ASSERT_TRUE(clf.TryFit(x, labels, 2).ok());
  EXPECT_GT(clf.Score(x, labels), 0.9);
}

/// Sum of squared leave-one-out residuals by brute force: n ridge refits,
/// each on every row but one, scored on the row left out.
double ExplicitLooError(const Matrix& x, const Matrix& y, double alpha) {
  const int n = x.rows();
  double error = 0.0;
  for (int out = 0; out < n; ++out) {
    Matrix x_rest(n - 1, x.cols());
    Matrix y_rest(n - 1, y.cols());
    Matrix x_out(1, x.cols());
    for (int i = 0, r = 0; i < n; ++i) {
      Matrix& xd = i == out ? x_out : x_rest;
      const int row = i == out ? 0 : r++;
      for (int j = 0; j < x.cols(); ++j) xd(row, j) = x(i, j);
      if (i != out) {
        for (int k = 0; k < y.cols(); ++k) y_rest(row, k) = y(i, k);
      }
    }
    RidgeRegression model;
    EXPECT_TRUE(model.TryFit(x_rest, y_rest, alpha).ok());
    const Matrix predicted = model.Predict(x_out);
    for (int k = 0; k < y.cols(); ++k) {
      const double residual = y(out, k) - predicted(0, k);
      error += residual * residual;
    }
  }
  return error;
}

void ExpectLoocvMatchesRefits(const Matrix& x, const std::vector<int>& labels,
                              int num_classes) {
  const std::vector<double> alphas = {1e-2, 0.3, 1.0, 10.0, 300.0};
  RidgeClassifierCV clf(alphas);
  ASSERT_TRUE(clf.TryFit(x, labels, num_classes).ok());
  ASSERT_FALSE(clf.loocv_fell_back());
  ASSERT_EQ(clf.loo_errors().size(), alphas.size());
  const Matrix y = EncodeLabels(labels, num_classes);
  size_t best = 0;
  for (size_t a = 0; a < alphas.size(); ++a) {
    const double explicit_error = ExplicitLooError(x, y, alphas[a]);
    EXPECT_NEAR(clf.loo_errors()[a], explicit_error, 1e-6 * explicit_error)
        << "alpha " << alphas[a];
    if (clf.loo_errors()[a] < clf.loo_errors()[best]) best = a;
  }
  EXPECT_EQ(clf.best_alpha(), alphas[best]);
}

// Oracle for the closed-form LOOCV shortcut (eigendecomposition of the
// centred Gram, intercept direction excluded): it must equal n explicit
// leave-one-out refits, intercept re-estimated each time.
TEST(RidgeClassifierCV, LoocvShortcutMatchesExplicitRefitsDual) {
  core::Rng rng(21);
  Matrix x(14, 40);  // more features than samples: dual solve
  std::vector<int> labels;
  for (int i = 0; i < x.rows(); ++i) {
    labels.push_back(i % 3);
    for (int j = 0; j < x.cols(); ++j) {
      x(i, j) = rng.Normal() + 0.5 * (i % 3) * (j % 2);
    }
  }
  ExpectLoocvMatchesRefits(x, labels, 3);
}

TEST(RidgeClassifierCV, LoocvShortcutMatchesExplicitRefitsPrimal) {
  core::Rng rng(22);
  std::vector<int> labels;
  for (int i = 0; i < 24; ++i) labels.push_back(i % 2);
  Matrix x(24, 5);  // more samples than features: primal solve
  for (int i = 0; i < x.rows(); ++i) {
    for (int j = 0; j < x.cols(); ++j) {
      x(i, j) = rng.Normal() + (j == 0 ? 1.5 * labels[static_cast<size_t>(i)] : 0.0);
    }
  }
  ExpectLoocvMatchesRefits(x, labels, 2);
}

// Repeated rows (random oversampling, SMOTE at gap 0) give a wide matrix
// a null space of more than one dimension too.
TEST(RidgeClassifierCV, LoocvShortcutMatchesExplicitRefitsRepeatedRows) {
  core::Rng rng(25);
  Matrix x(12, 30);
  std::vector<int> labels;
  for (int i = 0; i < x.rows(); ++i) {
    labels.push_back(i % 2);
    for (int j = 0; j < x.cols(); ++j) {
      x(i, j) = i >= 9 ? x(i - 9, j) : rng.Normal() + 0.7 * (i % 2);
    }
  }
  ExpectLoocvMatchesRefits(x, labels, 2);
}

/// The classifier's final model must be the plain regression at the
/// selected alpha, bit for bit: the shared centring and Gram are a
/// reuse, not a different computation.
void ExpectFinalModelIsPlainRegression(const RidgeClassifierCV& clf,
                                       const Matrix& x,
                                       const std::vector<int>& labels,
                                       int num_classes) {
  RidgeRegression reference;
  ASSERT_TRUE(reference
                  .TryFit(x, EncodeLabels(labels, num_classes),
                          clf.best_alpha())
                  .ok());
  EXPECT_EQ(clf.model().weights(), reference.weights());
  EXPECT_EQ(clf.model().intercept(), reference.intercept());
  EXPECT_EQ(clf.DecisionFunction(x), reference.Predict(x));
}

TEST(RidgeClassifierCV, FinalModelBitIdenticalToRegressionAtBestAlpha) {
  core::Rng rng(23);
  std::vector<int> labels;
  for (int i = 0; i < 16; ++i) labels.push_back(i % 4);
  Matrix wide(16, 60);
  for (double& v : wide.data()) v = rng.Normal();
  Matrix tall = GaussianBlobs(labels, 2.0, rng);
  for (const Matrix* x : {&wide, &tall}) {
    RidgeClassifierCV clf;
    ASSERT_TRUE(clf.TryFit(*x, labels, 4).ok());
    EXPECT_EQ(clf.solve_retries(), 0);
    ExpectFinalModelIsPlainRegression(clf, *x, labels, 4);
  }
}

TEST(RidgeClassifierCV, EscalatedFinalModelBitIdenticalToRegression) {
  core::Rng rng(24);
  std::vector<int> labels;
  for (int i = 0; i < 12; ++i) labels.push_back(i % 2);
  Matrix x(12, 30);
  for (double& v : x.data()) v = rng.Normal();

  RidgeClassifierCV unfaulted;
  ASSERT_TRUE(unfaulted.TryFit(x, labels, 2).ok());

  // The first final solve fails: alpha escalates tenfold and the retry
  // reuses the same centring and Gram.
  core::fault::SetSpec("ridge.solve:1");
  RidgeClassifierCV clf;
  const core::Status status = clf.TryFit(x, labels, 2);
  core::fault::Clear();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(clf.solve_retries(), 1);
  EXPECT_EQ(clf.best_alpha(), unfaulted.best_alpha() * 10.0);
  ExpectFinalModelIsPlainRegression(clf, x, labels, 2);
}

double MidGridAlpha() {
  // The default grid's middle point, alphas[10 / 2].
  return std::pow(10.0, -3.0 + 6.0 * 5 / 9.0);
}

/// Enables tracing with fresh counters for one test and restores the
/// previous toggle afterwards.
class CountersOn {
 public:
  CountersOn() : was_enabled_(core::trace::Enabled()) {
    core::trace::Reset();
    core::trace::Enable();
  }
  ~CountersOn() {
    if (!was_enabled_) core::trace::Disable();
    core::trace::Reset();
  }

 private:
  bool was_enabled_;
};

TEST(RidgeClassifierCV, InjectedLoocvFaultFallsBackToMidGridAlpha) {
  core::Rng rng(26);
  std::vector<int> labels;
  for (int i = 0; i < 12; ++i) labels.push_back(i % 2);
  Matrix x(12, 30);
  for (double& v : x.data()) v = rng.Normal();
  CountersOn counters;
  core::fault::SetSpec("ridge.loocv:1");
  RidgeClassifierCV clf;
  const core::Status status = clf.TryFit(x, labels, 2);
  core::fault::Clear();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(clf.loocv_fell_back());
  EXPECT_TRUE(clf.loo_errors().empty());
  EXPECT_EQ(clf.best_alpha(), MidGridAlpha());
  EXPECT_EQ(core::trace::CounterValue("ridge.loocv_fallback"), 1);
  ExpectFinalModelIsPlainRegression(clf, x, labels, 2);
}

TEST(RidgeClassifierCV, NonFiniteFeaturesFallBackAndFailTyped) {
  // A non-finite feature makes the Gram non-finite: the eigensolver
  // returns kDiverged, LOOCV falls back to the mid-grid alpha, and the
  // final solve cannot factorise at any escalated alpha.
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    for (const int cols : {5, 40}) {  // primal and dual final solve
      SCOPED_TRACE(std::to_string(bad) + " cols=" + std::to_string(cols));
      core::Rng rng(27);
      std::vector<int> labels;
      for (int i = 0; i < 14; ++i) labels.push_back(i % 2);
      Matrix x(14, cols);
      for (double& v : x.data()) v = rng.Normal();
      x(3, 2) = bad;
      RidgeClassifierCV clf;
      const core::Status status = clf.TryFit(x, labels, 2);
      EXPECT_EQ(status.code(), core::StatusCode::kSingular)
          << status.ToString();
      EXPECT_TRUE(clf.loocv_fell_back());
      EXPECT_TRUE(clf.loo_errors().empty());
      EXPECT_EQ(clf.best_alpha(), MidGridAlpha());
    }
  }
}

TEST(RidgeClassifierCV, NearTieBetweenBestAndRunnerUpIsCounted) {
  core::Rng rng(28);
  std::vector<int> labels;
  Matrix x(16, 24);
  for (int i = 0; i < x.rows(); ++i) {
    labels.push_back(i % 2);
    for (int j = 0; j < x.cols(); ++j) x(i, j) = rng.Normal() + 0.6 * (i % 2);
  }
  const auto near_ties = [&](std::vector<double> alphas) {
    CountersOn counters;
    RidgeClassifierCV clf(std::move(alphas));
    EXPECT_TRUE(clf.TryFit(x, labels, 2).ok());
    EXPECT_FALSE(clf.loocv_fell_back());
    return core::trace::CounterValue("ridge.loocv_near_tie");
  };
  // Alphas 1e-12 apart give LOO errors far less than 1e-9 apart, in
  // either order; an exact tie counts too, and a wide gap does not.
  EXPECT_EQ(near_ties({1.0, 1.0 + 1e-12}), 1);
  EXPECT_EQ(near_ties({1.0 + 1e-12, 1.0}), 1);
  EXPECT_EQ(near_ties({0.3, 0.3}), 1);
  EXPECT_EQ(near_ties({1e-3, 1e3}), 0);
}

}  // namespace
}  // namespace tsaug::linalg
