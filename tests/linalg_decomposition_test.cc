#include "linalg/decomposition.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/rng.h"

namespace tsaug::linalg {
namespace {

Matrix RandomSpd(int n, core::Rng& rng) {
  Matrix a(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) a(i, j) = rng.Normal();
  }
  Matrix spd = MatMulTransposeA(a, a);
  AddDiagonal(spd, 0.5);
  return spd;
}

TEST(Cholesky, FactorReconstructs) {
  core::Rng rng(1);
  Matrix a = RandomSpd(6, rng);
  Matrix l = a;
  ASSERT_TRUE(CholeskyFactor(l));
  EXPECT_LT(MaxAbsDiff(MatMulTransposeB(l, l), a), 1e-9);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a = Matrix::FromRows({{0, 1}, {1, 0}});
  EXPECT_FALSE(CholeskyFactor(a));
}

TEST(CholeskySolve, SolvesLinearSystem) {
  core::Rng rng(2);
  Matrix a = RandomSpd(5, rng);
  Matrix x_true(5, 2);
  for (double& v : x_true.data()) v = rng.Normal();
  Matrix b = MatMul(a, x_true);
  Matrix x = CholeskySolve(a, b);
  ASSERT_FALSE(x.empty());
  EXPECT_LT(MaxAbsDiff(x, x_true), 1e-8);
}

TEST(TryCholeskySolveJittered, HandlesSemiDefinite) {
  // Rank-1 PSD matrix; plain Cholesky fails, jitter rescues it.
  Matrix a = Matrix::FromRows({{1, 1}, {1, 1}});
  Matrix b = Matrix::FromRows({{1}, {1}});
  Matrix x = TryCholeskySolveJittered(a, b).value();
  ASSERT_FALSE(x.empty());
  // Solution of (A + eps I) x = b stays close to a least-norm solution.
  Matrix residual = Sub(MatMul(a, x), b);
  EXPECT_LT(MaxAbsDiff(residual, Matrix(2, 1)), 1e-3);
}

TEST(SymmetricEigen, DiagonalMatrix) {
  Matrix a = Matrix::FromRows({{3, 0}, {0, 1}});
  std::vector<double> w;
  Matrix v;
  SymmetricEigen(a, &w, &v);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_NEAR(w[0], 1.0, 1e-12);
  EXPECT_NEAR(w[1], 3.0, 1e-12);
}

TEST(SymmetricEigen, ReconstructsMatrix) {
  core::Rng rng(3);
  Matrix a = RandomSpd(8, rng);
  std::vector<double> w;
  Matrix v;
  SymmetricEigen(a, &w, &v);
  // A = V diag(w) V^T.
  Matrix vw = v;
  for (int i = 0; i < vw.rows(); ++i) {
    for (int j = 0; j < vw.cols(); ++j) vw(i, j) *= w[static_cast<size_t>(j)];
  }
  EXPECT_LT(MaxAbsDiff(MatMulTransposeB(vw, v), a), 1e-8);
}

TEST(SymmetricEigen, VectorsOrthonormal) {
  core::Rng rng(4);
  Matrix a = RandomSpd(7, rng);
  std::vector<double> w;
  Matrix v;
  SymmetricEigen(a, &w, &v);
  EXPECT_LT(MaxAbsDiff(MatMulTransposeA(v, v), Matrix::Identity(7)), 1e-9);
}

TEST(SymmetricEigen, EigenvaluesAscending) {
  core::Rng rng(5);
  Matrix a = RandomSpd(9, rng);
  std::vector<double> w;
  Matrix v;
  SymmetricEigen(a, &w, &v);
  for (size_t i = 1; i < w.size(); ++i) EXPECT_LE(w[i - 1], w[i]);
}

TEST(SampleCovariance, MatchesHandComputation) {
  // Two points (0,0), (2,2): mean (1,1); cov (denominator n) = [[1,1],[1,1]].
  Matrix x = Matrix::FromRows({{0, 0}, {2, 2}});
  Matrix cov = SampleCovariance(x);
  EXPECT_LT(MaxAbsDiff(cov, Matrix::FromRows({{1, 1}, {1, 1}})), 1e-12);
}

TEST(ShrinkageCovariance, InterpolatesTowardScaledIdentity) {
  core::Rng rng(6);
  // Few samples in high dimension: shrinkage should be substantial and the
  // result SPD (Cholesky succeeds) where the sample covariance is singular.
  Matrix x(4, 12);
  for (double& v : x.data()) v = rng.Normal();
  double gamma = 0.0;
  Matrix sigma = ShrinkageCovariance(x, &gamma);
  EXPECT_GT(gamma, 0.0);
  EXPECT_LE(gamma, 1.0);
  Matrix l = sigma;
  EXPECT_TRUE(CholeskyFactor(l));
}

TEST(ShrinkageCovariance, NearZeroShrinkageForManyAnisotropicSamples) {
  // With abundant samples of strongly anisotropic data, OAS should trust
  // the sample covariance (shrinking toward a scaled identity would be
  // badly biased, and the estimator knows it).
  core::Rng rng(7);
  Matrix x(4000, 3);
  for (int i = 0; i < x.rows(); ++i) {
    x(i, 0) = rng.Normal(0, 10.0);
    x(i, 1) = rng.Normal(0, 1.0);
    x(i, 2) = rng.Normal(0, 0.1);
  }
  double gamma = 1.0;
  Matrix sigma = ShrinkageCovariance(x, &gamma);
  EXPECT_LT(gamma, 0.05);
  EXPECT_NEAR(sigma(0, 0), 100.0, 10.0);
}

}  // namespace
}  // namespace tsaug::linalg
