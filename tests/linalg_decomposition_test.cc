#include "linalg/decomposition.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/kernels/kernels.h"
#include "core/parallel.h"
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

/// The textbook cyclic Jacobi that SymmetricEigen reorganises for cache
/// locality: same rotations, same order, same arithmetic, with V stored
/// plainly and every update done in place on the matrix. SymmetricEigen
/// must reproduce its bits exactly.
void ReferenceJacobi(const Matrix& a, std::vector<double>* eigenvalues,
                     Matrix* eigenvectors, int max_sweeps = 64) {
  const int n = a.rows();
  Matrix d = a;
  Matrix v = Matrix::Identity(n);
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (int p = 0; p < n; ++p) {
      for (int q = p + 1; q < n; ++q) off += d(p, q) * d(p, q);
    }
    if (off < 1e-22 * n * n) break;
    for (int p = 0; p < n - 1; ++p) {
      for (int q = p + 1; q < n; ++q) {
        const double apq = d(p, q);
        if (std::fabs(apq) < 1e-300) continue;
        const double app = d(p, p);
        const double aqq = d(q, q);
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (int k = 0; k < n; ++k) {
          const double dkp = d(k, p);
          const double dkq = d(k, q);
          d(k, p) = c * dkp - s * dkq;
          d(k, q) = s * dkp + c * dkq;
        }
        for (int k = 0; k < n; ++k) {
          const double dpk = d(p, k);
          const double dqk = d(q, k);
          d(p, k) = c * dpk - s * dqk;
          d(q, k) = s * dpk + c * dqk;
        }
        for (int k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }
  std::vector<int> order(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
  std::sort(order.begin(), order.end(),
            [&](int i, int j) { return d(i, i) < d(j, j); });
  eigenvalues->resize(static_cast<size_t>(n));
  *eigenvectors = Matrix(n, n);
  for (int j = 0; j < n; ++j) {
    const int src = order[static_cast<size_t>(j)];
    (*eigenvalues)[static_cast<size_t>(j)] = d(src, src);
    for (int i = 0; i < n; ++i) (*eigenvectors)(i, j) = v(i, src);
  }
}

/// X X^T for a rows x cols X of N(0, 1) entries: rank min(rows, cols),
/// so a wide X (cols < rows) leaves a null space of rows - cols.
Matrix RandomGram(int rows, int cols, std::uint64_t seed) {
  core::Rng rng(seed);
  Matrix x(rows, cols);
  for (double& v : x.data()) v = rng.Normal();
  return MatMulTransposeB(x, x);
}

/// Runs `body` under every available backend at 1, 2 and 8 threads, then
/// restores both settings.
void ForEachBackendAndThreadCount(
    const std::function<void(const std::string&)>& body) {
  const core::kernels::Backend saved_backend = core::kernels::ActiveBackend();
  const int saved_threads = core::GetNumThreads();
  std::vector<core::kernels::Backend> backends = {
      core::kernels::Backend::kScalar};
  if (core::kernels::SimdAvailable()) {
    backends.push_back(core::kernels::Backend::kSimd);
  }
  for (core::kernels::Backend backend : backends) {
    for (int threads : {1, 2, 8}) {
      core::kernels::SetBackend(backend);
      core::SetNumThreads(threads);
      body(std::string(core::kernels::BackendName(backend)) + " x" +
           std::to_string(threads));
    }
  }
  core::kernels::SetBackend(saved_backend);
  core::SetNumThreads(saved_threads);
}

void ExpectSameEigenBits(const Matrix& a, int max_sweeps,
                         const std::string& label) {
  SCOPED_TRACE(label);
  std::vector<double> want_w;
  Matrix want_v;
  ReferenceJacobi(a, &want_w, &want_v, max_sweeps);
  ForEachBackendAndThreadCount([&](const std::string& setting) {
    SCOPED_TRACE(setting);
    std::vector<double> w;
    Matrix v;
    SymmetricEigen(a, &w, &v, max_sweeps);
    ASSERT_EQ(w.size(), want_w.size());
    ASSERT_EQ(v.rows(), want_v.rows());
    ASSERT_EQ(v.cols(), want_v.cols());
    EXPECT_EQ(0, std::memcmp(w.data(), want_w.data(),
                             w.size() * sizeof(double)));
    EXPECT_EQ(0, std::memcmp(v.data().data(), want_v.data().data(),
                             v.size() * sizeof(double)));
  });
}

TEST(SymmetricEigen, MatchesReferenceJacobiBitForBit) {
  for (int n : {1, 2, 3, 7, 64, 130}) {
    core::Rng rng(static_cast<std::uint64_t>(100 + n));
    ExpectSameEigenBits(RandomSpd(n, rng), 64, "spd n=" + std::to_string(n));
  }
}

TEST(SymmetricEigen, MatchesReferenceOnWideGrams) {
  // Ridge LOOCV decomposes the Gram of more features than rows and the
  // reverse; a wide X gives a Gram with a multi-dimensional null space.
  ExpectSameEigenBits(RandomGram(9, 4, 21), 64, "gram 9x4");
  ExpectSameEigenBits(RandomGram(40, 13, 22), 64, "gram 40x13");
  ExpectSameEigenBits(RandomGram(70, 2, 23), 64, "gram 70x2");
}

TEST(SymmetricEigen, MatchesReferenceWithExactZeroOffDiagonals) {
  // Block-diagonal: every cross-block pair takes the 1e-300 skip.
  core::Rng rng(31);
  const Matrix block_a = RandomSpd(5, rng);
  const Matrix block_b = RandomSpd(6, rng);
  Matrix a(11, 11);
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) a(i, j) = block_a(i, j);
  }
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 6; ++j) a(5 + i, 5 + j) = block_b(i, j);
  }
  ExpectSameEigenBits(a, 64, "block diagonal");
  ExpectSameEigenBits(Matrix::FromRows({{2, 0, 0}, {0, -1, 0}, {0, 0, 2}}),
                      64, "diagonal");
  ExpectSameEigenBits(Matrix(4, 4), 64, "zero");
}

TEST(SymmetricEigen, MatchesReferenceWithRepeatedEigenvalues) {
  // 2 I + J (J all ones) has eigenvalue 2 with multiplicity n - 1.
  for (int n : {4, 17}) {
    Matrix a(n, n, 1.0);
    AddDiagonal(a, 2.0);
    ExpectSameEigenBits(a, 64, "2I+J n=" + std::to_string(n));
  }
}

TEST(SymmetricEigen, MatchesReferenceWhenUnconverged) {
  // One sweep stops far from convergence: the working matrix's full state
  // (not just its converged diagonal) reaches the output.
  for (int n : {7, 64}) {
    core::Rng rng(static_cast<std::uint64_t>(200 + n));
    ExpectSameEigenBits(RandomSpd(n, rng), 1, "1 sweep n=" + std::to_string(n));
  }
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
