#include "linalg/decomposition.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <utility>
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
  EXPECT_LT(MaxAbsDiff(MatMul(l, l.Transposed()), a), 1e-9);
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
  ASSERT_TRUE(SymmetricEigen(a, &w, &v).ok());
  ASSERT_EQ(w.size(), 2u);
  EXPECT_NEAR(w[0], 1.0, 1e-12);
  EXPECT_NEAR(w[1], 3.0, 1e-12);
}

TEST(SymmetricEigen, ReconstructsMatrix) {
  core::Rng rng(3);
  Matrix a = RandomSpd(8, rng);
  std::vector<double> w;
  Matrix v;
  ASSERT_TRUE(SymmetricEigen(a, &w, &v).ok());
  // A = V diag(w) V^T.
  Matrix vw = v;
  for (int i = 0; i < vw.rows(); ++i) {
    for (int j = 0; j < vw.cols(); ++j) vw(i, j) *= w[static_cast<size_t>(j)];
  }
  EXPECT_LT(MaxAbsDiff(MatMul(vw, v.Transposed()), a), 1e-8);
}

TEST(SymmetricEigen, VectorsOrthonormal) {
  core::Rng rng(4);
  Matrix a = RandomSpd(7, rng);
  std::vector<double> w;
  Matrix v;
  ASSERT_TRUE(SymmetricEigen(a, &w, &v).ok());
  EXPECT_LT(MaxAbsDiff(MatMulTransposeA(v, v), Matrix::Identity(7)), 1e-9);
}

TEST(SymmetricEigen, EigenvaluesAscending) {
  core::Rng rng(5);
  Matrix a = RandomSpd(9, rng);
  std::vector<double> w;
  Matrix v;
  ASSERT_TRUE(SymmetricEigen(a, &w, &v).ok());
  for (size_t i = 1; i < w.size(); ++i) EXPECT_LE(w[i - 1], w[i]);
}

/// Ascending eigenvalues by the textbook cyclic Jacobi, a different
/// algorithm from SymmetricEigen's tridiagonal QL, slow but simple enough
/// to trust. It runs in long double so that its own rounding stays far
/// below the tolerance the solver is held to: in double the two differ by
/// 3.2 eps max|lambda| at n = 3.
std::vector<double> ReferenceJacobi(const Matrix& a) {
  using Real = long double;
  const int n = a.rows();
  const size_t un = static_cast<size_t>(n);
  std::vector<Real> d(un * un);
  const auto at = [&d, un](int r, int c) -> Real& {
    return d[static_cast<size_t>(r) * un + static_cast<size_t>(c)];
  };
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) at(i, j) = a(i, j);
  }
  for (int sweep = 0; sweep < 64; ++sweep) {
    Real off = 0.0;
    for (int p = 0; p < n; ++p) {
      for (int q = p + 1; q < n; ++q) off += at(p, q) * at(p, q);
    }
    if (off < 1e-30L * n * n) break;
    for (int p = 0; p < n - 1; ++p) {
      for (int q = p + 1; q < n; ++q) {
        const Real apq = at(p, q);
        if (std::fabs(apq) < 1e-300L) continue;
        const Real theta = (at(q, q) - at(p, p)) / (2.0L * apq);
        const Real t = (theta >= 0.0L ? 1.0L : -1.0L) /
                       (std::fabs(theta) + std::sqrt(theta * theta + 1.0L));
        const Real c = 1.0L / std::sqrt(t * t + 1.0L);
        const Real s = t * c;
        for (int k = 0; k < n; ++k) {
          const Real dkp = at(k, p);
          const Real dkq = at(k, q);
          at(k, p) = c * dkp - s * dkq;
          at(k, q) = s * dkp + c * dkq;
        }
        for (int k = 0; k < n; ++k) {
          const Real dpk = at(p, k);
          const Real dqk = at(q, k);
          at(p, k) = c * dpk - s * dqk;
          at(q, k) = s * dpk + c * dqk;
        }
      }
    }
  }
  std::vector<double> eigenvalues(un);
  for (int i = 0; i < n; ++i) {
    eigenvalues[static_cast<size_t>(i)] = static_cast<double>(at(i, i));
  }
  std::sort(eigenvalues.begin(), eigenvalues.end());
  return eigenvalues;
}

/// X X^T for a rows x cols X of N(0, 1) entries: rank min(rows, cols),
/// so a wide X (cols < rows) leaves a null space of rows - cols.
Matrix RandomGram(int rows, int cols, std::uint64_t seed) {
  core::Rng rng(seed);
  Matrix x(rows, cols);
  for (double& v : x.data()) v = rng.Normal();
  return Gram(x);
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

/// Oracle check of SymmetricEigen on `a`: eigenvalues ascending and within
/// n eps max|lambda| of the reference Jacobi's, the residual
/// max |A V - V diag(w)| within n eps max|lambda|, and max |V^T V - I|
/// within n eps.
void ExpectEigenMatchesOracle(const Matrix& a, const std::string& label) {
  SCOPED_TRACE(label);
  const int n = a.rows();
  const std::vector<double> want_w = ReferenceJacobi(a);
  std::vector<double> w;
  Matrix v;
  ASSERT_TRUE(SymmetricEigen(a, &w, &v).ok());
  ASSERT_EQ(w.size(), want_w.size());
  ASSERT_EQ(v.rows(), n);
  ASSERT_EQ(v.cols(), n);

  double scale = 0.0;
  for (double x : want_w) scale = std::max(scale, std::fabs(x));
  const double eps = std::numeric_limits<double>::epsilon();
  const double value_tol = n * eps * scale;
  for (size_t j = 0; j < w.size(); ++j) {
    EXPECT_LE(std::fabs(w[j] - want_w[j]), value_tol) << "eigenvalue " << j;
    if (j > 0) {
      EXPECT_LE(w[j - 1], w[j]);
    }
  }
  Matrix vw = v;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) vw(i, j) *= w[static_cast<size_t>(j)];
  }
  EXPECT_LE(MaxAbsDiff(MatMul(a, v), vw), value_tol);
  EXPECT_LE(MaxAbsDiff(MatMulTransposeA(v, v), Matrix::Identity(n)), n * eps);
}

TEST(SymmetricEigen, MatchesReferenceJacobiOnSpd) {
  for (int n : {1, 2, 3, 7, 64, 130}) {
    core::Rng rng(static_cast<std::uint64_t>(100 + n));
    ExpectEigenMatchesOracle(RandomSpd(n, rng), "spd n=" + std::to_string(n));
  }
}

TEST(SymmetricEigen, MatchesReferenceOnWideGrams) {
  // Ridge LOOCV decomposes the Gram of more features than rows and the
  // reverse; a wide X gives a Gram with a multi-dimensional null space.
  ExpectEigenMatchesOracle(RandomGram(9, 4, 21), "gram 9x4");
  ExpectEigenMatchesOracle(RandomGram(40, 13, 22), "gram 40x13");
  ExpectEigenMatchesOracle(RandomGram(70, 2, 23), "gram 70x2");
}

/// Block-diagonal: the reduction meets rows that are already zero.
Matrix BlockDiagonal() {
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
  return a;
}

TEST(SymmetricEigen, MatchesReferenceWithExactZeroOffDiagonals) {
  ExpectEigenMatchesOracle(BlockDiagonal(), "block diagonal");
  ExpectEigenMatchesOracle(
      Matrix::FromRows({{2, 0, 0}, {0, -1, 0}, {0, 0, 2}}), "diagonal");
  ExpectEigenMatchesOracle(Matrix(4, 4), "zero");
}

/// 2 I + J (J all ones) has eigenvalue 2 with multiplicity n - 1.
Matrix TwoIPlusJ(int n) {
  Matrix a(n, n, 1.0);
  AddDiagonal(a, 2.0);
  return a;
}

TEST(SymmetricEigen, MatchesReferenceWithRepeatedEigenvalues) {
  for (int n : {4, 17}) {
    ExpectEigenMatchesOracle(TwoIPlusJ(n), "2I+J n=" + std::to_string(n));
  }
}

/// EISPACK tred2 + tql2 as JAMA writes them: V stored plainly, column
/// updates strided, only the lower triangle of the working matrix kept.
/// SymmetricEigen reorganises this storage (both triangles, Q^T rows for
/// the rotations, row_panel_matmul for the matrix-vector products) and
/// must reproduce its bits exactly.
void ReferenceTridiagonalQl(const Matrix& a, std::vector<double>* eigenvalues,
                            Matrix* eigenvectors) {
  const int n = a.rows();
  Matrix v = a;
  std::vector<double> dv(static_cast<size_t>(n));
  std::vector<double> ev(static_cast<size_t>(n));
  double* d = dv.data();
  double* e = ev.data();
  for (int j = 0; j < n; ++j) d[j] = v(n - 1, j);
  for (int i = n - 1; i > 0; --i) {
    double scale = 0.0;
    double h = 0.0;
    for (int k = 0; k < i; ++k) scale += std::fabs(d[k]);
    if (scale == 0.0) {
      e[i] = d[i - 1];
      for (int j = 0; j < i; ++j) {
        d[j] = v(i - 1, j);
        v(i, j) = 0.0;
        v(j, i) = 0.0;
      }
    } else {
      for (int k = 0; k < i; ++k) {
        d[k] /= scale;
        h += d[k] * d[k];
      }
      double f = d[i - 1];
      double g = std::sqrt(h);
      if (f > 0) g = -g;
      e[i] = scale * g;
      h = h - f * g;
      d[i - 1] = f - g;
      for (int j = 0; j < i; ++j) e[j] = 0.0;
      for (int j = 0; j < i; ++j) {
        f = d[j];
        v(j, i) = f;
        g = e[j] + v(j, j) * f;
        for (int k = j + 1; k <= i - 1; ++k) {
          g += v(k, j) * d[k];
          e[k] += v(k, j) * f;
        }
        e[j] = g;
      }
      f = 0.0;
      for (int j = 0; j < i; ++j) {
        e[j] /= h;
        f += e[j] * d[j];
      }
      const double hh = f / (h + h);
      for (int j = 0; j < i; ++j) e[j] -= hh * d[j];
      for (int j = 0; j < i; ++j) {
        f = d[j];
        g = e[j];
        for (int k = j; k <= i - 1; ++k) v(k, j) -= (f * e[k] + g * d[k]);
        d[j] = v(i - 1, j);
        v(i, j) = 0.0;
      }
    }
    d[i] = h;
  }
  for (int i = 0; i < n - 1; ++i) {
    v(n - 1, i) = v(i, i);
    v(i, i) = 1.0;
    const double h = d[i + 1];
    if (h != 0.0) {
      for (int k = 0; k <= i; ++k) d[k] = v(k, i + 1) / h;
      for (int j = 0; j <= i; ++j) {
        double g = 0.0;
        for (int k = 0; k <= i; ++k) g += v(k, i + 1) * v(k, j);
        for (int k = 0; k <= i; ++k) v(k, j) -= g * d[k];
      }
    }
    for (int k = 0; k <= i; ++k) v(k, i + 1) = 0.0;
  }
  for (int j = 0; j < n; ++j) {
    d[j] = v(n - 1, j);
    v(n - 1, j) = 0.0;
  }
  v(n - 1, n - 1) = 1.0;
  e[0] = 0.0;

  for (int i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;
  double f = 0.0;
  double tst1 = 0.0;
  const double eps = std::numeric_limits<double>::epsilon();
  for (int l = 0; l < n; ++l) {
    tst1 = std::max(tst1, std::fabs(d[l]) + std::fabs(e[l]));
    int m = l;
    while (m < n) {
      if (std::fabs(e[m]) <= eps * tst1) break;
      ++m;
    }
    if (m > l) {
      do {
        double g = d[l];
        double p = (d[l + 1] - g) / (2.0 * e[l]);
        double r = std::hypot(p, 1.0);
        if (p < 0) r = -r;
        d[l] = e[l] / (p + r);
        d[l + 1] = e[l] * (p + r);
        const double dl1 = d[l + 1];
        double h = g - d[l];
        for (int i = l + 2; i < n; ++i) d[i] -= h;
        f = f + h;
        p = d[m];
        double c = 1.0;
        double c2 = c;
        double c3 = c;
        const double el1 = e[l + 1];
        double s = 0.0;
        double s2 = 0.0;
        for (int i = m - 1; i >= l; --i) {
          c3 = c2;
          c2 = c;
          s2 = s;
          g = c * e[i];
          h = c * p;
          r = std::hypot(p, e[i]);
          e[i + 1] = s * r;
          s = e[i] / r;
          c = p / r;
          p = c * d[i] - s * g;
          d[i + 1] = h + s * (c * g + s * d[i]);
          for (int k = 0; k < n; ++k) {
            h = v(k, i + 1);
            v(k, i + 1) = s * v(k, i) + c * h;
            v(k, i) = c * v(k, i) - s * h;
          }
        }
        p = -s * s2 * c3 * el1 * e[l] / dl1;
        e[l] = s * p;
        d[l] = c * p;
      } while (std::fabs(e[l]) > eps * tst1);
    }
    d[l] = d[l] + f;
    e[l] = 0.0;
  }
  for (int i = 0; i < n - 1; ++i) {
    int k = i;
    double p = d[i];
    for (int j = i + 1; j < n; ++j) {
      if (d[j] < p) {
        k = j;
        p = d[j];
      }
    }
    if (k != i) {
      d[k] = d[i];
      d[i] = p;
      for (int j = 0; j < n; ++j) std::swap(v(j, i), v(j, k));
    }
  }
  *eigenvalues = dv;
  *eigenvectors = v;
}

TEST(SymmetricEigen, MatchesReferenceTridiagonalQlBitForBit) {
  std::vector<std::pair<std::string, Matrix>> cases;
  for (int n : {1, 2, 3, 7, 64, 130}) {
    core::Rng rng(static_cast<std::uint64_t>(100 + n));
    cases.emplace_back("spd n=" + std::to_string(n), RandomSpd(n, rng));
  }
  cases.emplace_back("gram 9x4", RandomGram(9, 4, 21));
  cases.emplace_back("gram 40x13", RandomGram(40, 13, 22));
  cases.emplace_back("gram 70x2", RandomGram(70, 2, 23));
  cases.emplace_back("block diagonal", BlockDiagonal());
  cases.emplace_back("diagonal",
                     Matrix::FromRows({{2, 0, 0}, {0, -1, 0}, {0, 0, 2}}));
  cases.emplace_back("zero", Matrix(4, 4));
  cases.emplace_back("2I+J n=4", TwoIPlusJ(4));
  cases.emplace_back("2I+J n=17", TwoIPlusJ(17));
  for (const auto& [label, a] : cases) {
    SCOPED_TRACE(label);
    std::vector<double> want_w;
    Matrix want_v;
    ReferenceTridiagonalQl(a, &want_w, &want_v);
    ForEachBackendAndThreadCount([&](const std::string& setting) {
      SCOPED_TRACE(setting);
      std::vector<double> w;
      Matrix v;
      ASSERT_TRUE(SymmetricEigen(a, &w, &v).ok());
      ASSERT_EQ(w.size(), want_w.size());
      ASSERT_EQ(v.size(), want_v.size());
      EXPECT_EQ(0, std::memcmp(w.data(), want_w.data(),
                               w.size() * sizeof(double)));
      EXPECT_EQ(0, std::memcmp(v.data().data(), want_v.data().data(),
                               v.size() * sizeof(double)));
    });
  }
}

TEST(SymmetricEigen, NonFiniteInputIsDiverged) {
  core::Rng rng(41);
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    for (const auto& [i, j] : {std::pair{0, 0}, std::pair{5, 2},
                               std::pair{2, 5}, std::pair{6, 6}}) {
      Matrix a = RandomSpd(7, rng);
      a(i, j) = bad;
      a(j, i) = bad;
      std::vector<double> w = {1.0};
      Matrix v = Matrix::Identity(2);
      const core::Status status = SymmetricEigen(a, &w, &v);
      EXPECT_EQ(status.code(), core::StatusCode::kDiverged)
          << bad << " at " << i << "," << j;
      EXPECT_TRUE(w.empty());
      EXPECT_TRUE(v.empty());
    }
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
