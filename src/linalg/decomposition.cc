#include "linalg/decomposition.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "core/kernels/kernels.h"

namespace tsaug::linalg {

bool CholeskyFactor(Matrix& a) {
  TSAUG_CHECK(a.rows() == a.cols());
  const int n = a.rows();
  for (int j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (int k = 0; k < j; ++k) diag -= a(j, k) * a(j, k);
    if (diag <= 0.0 || !std::isfinite(diag)) return false;
    const double ljj = std::sqrt(diag);
    a(j, j) = ljj;
    for (int i = j + 1; i < n; ++i) {
      double sum = a(i, j);
      for (int k = 0; k < j; ++k) sum -= a(i, k) * a(j, k);
      a(i, j) = sum / ljj;
    }
    for (int i = 0; i < j; ++i) a(i, j) = 0.0;
  }
  return true;
}

Matrix CholeskySolve(Matrix a, const Matrix& b) {
  TSAUG_CHECK(a.rows() == b.rows());
  if (!CholeskyFactor(a)) return Matrix();
  const int n = a.rows();
  Matrix x = b;
  // Forward substitution: L z = B.
  for (int col = 0; col < x.cols(); ++col) {
    for (int i = 0; i < n; ++i) {
      double sum = x(i, col);
      for (int k = 0; k < i; ++k) sum -= a(i, k) * x(k, col);
      x(i, col) = sum / a(i, i);
    }
    // Back substitution: L^T x = z.
    for (int i = n - 1; i >= 0; --i) {
      double sum = x(i, col);
      for (int k = i + 1; k < n; ++k) sum -= a(k, i) * x(k, col);
      x(i, col) = sum / a(i, i);
    }
  }
  return x;
}

core::StatusOr<Matrix> TryCholeskySolveJittered(const Matrix& a,
                                                const Matrix& b,
                                                double initial_jitter) {
  double jitter = 0.0;
  for (int attempt = 0; attempt < 12; ++attempt) {
    Matrix regularized = a;
    if (jitter > 0.0) AddDiagonal(regularized, jitter);
    Matrix x = CholeskySolve(std::move(regularized), b);
    if (!x.empty()) return x;
    jitter = jitter == 0.0 ? initial_jitter : jitter * 10.0;
  }
  char context[96];
  std::snprintf(context, sizeof(context),
                "matrix not SPD even after jitter %g", jitter);
  return core::SingularError(context);
}

void SymmetricEigen(const Matrix& a, std::vector<double>* eigenvalues,
                    Matrix* eigenvectors, int max_sweeps) {
  TSAUG_CHECK(a.rows() == a.cols());
  const int n = a.rows();
  Matrix d = a;
  // V^T: rotating eigenvector columns p and q rotates two contiguous rows.
  Matrix vt = Matrix::Identity(n);
  // Column p of d, kept contiguous for the whole p loop and written back
  // when it ends; meanwhile d(k, p) lives in colp[k], d's own column p is
  // stale, and nothing reads it. The arithmetic, and its order, is the
  // textbook cyclic Jacobi's: only where the values live changes.
  std::vector<double> colp(static_cast<size_t>(n));
  const auto& kt = core::kernels::Active();

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (int p = 0; p < n; ++p) {
      for (int q = p + 1; q < n; ++q) off += d(p, q) * d(p, q);
    }
    if (off < 1e-22 * n * n) break;

    for (int p = 0; p < n - 1; ++p) {
      for (int k = 0; k < n; ++k) colp[static_cast<size_t>(k)] = d(k, p);
      double* row_p = d.row_data(p);
      for (int q = p + 1; q < n; ++q) {
        const double apq = d(p, q);
        if (std::fabs(apq) < 1e-300) continue;
        const double app = colp[static_cast<size_t>(p)];
        const double aqq = d(q, q);
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        // Columns p and q; only column q is strided.
        for (int k = 0; k < n; ++k) {
          const double dkp = colp[static_cast<size_t>(k)];
          const double dkq = d(k, q);
          colp[static_cast<size_t>(k)] = c * dkp - s * dkq;
          d(k, q) = s * dkp + c * dkq;
        }
        // Rows p and q: d(p, p) and d(q, p) are in colp, the rest in d.
        double* row_q = d.row_data(q);
        kt.rotate_rows(c, s, row_p, row_q, p);
        kt.rotate_rows(c, s, row_p + p + 1, row_q + p + 1, n - p - 1);
        const double dpp = colp[static_cast<size_t>(p)];
        const double dqp = colp[static_cast<size_t>(q)];
        colp[static_cast<size_t>(p)] = c * dpp - s * dqp;
        colp[static_cast<size_t>(q)] = s * dpp + c * dqp;
        kt.rotate_rows(c, s, vt.row_data(p), vt.row_data(q), n);
      }
      for (int k = 0; k < n; ++k) d(k, p) = colp[static_cast<size_t>(k)];
    }
  }

  // Sort eigenpairs ascending.
  std::vector<int> order(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
  std::sort(order.begin(), order.end(),
            [&](int i, int j) { return d(i, i) < d(j, j); });

  eigenvalues->resize(static_cast<size_t>(n));
  *eigenvectors = Matrix(n, n);
  for (int j = 0; j < n; ++j) {
    const int src = order[static_cast<size_t>(j)];
    (*eigenvalues)[static_cast<size_t>(j)] = d(src, src);
    const double* v = vt.row_data(src);
    for (int i = 0; i < n; ++i) (*eigenvectors)(i, j) = v[i];
  }
}

Matrix SampleCovariance(const Matrix& x) {
  TSAUG_CHECK(x.rows() > 0);
  Matrix centered = x;
  centered.CenterColumns(x.ColMeans());
  Matrix cov = MatMulTransposeA(centered, centered);
  return Scale(cov, 1.0 / x.rows());
}

Matrix ShrinkageCovariance(const Matrix& x, double* shrinkage) {
  const int n = x.rows();
  const int d = x.cols();
  Matrix s = SampleCovariance(x);

  double trace = 0.0;
  for (int i = 0; i < d; ++i) trace += s(i, i);
  const double mu = trace / d;

  double trace_s2 = 0.0;  // trace(S^2) = sum of squared entries (S symm.)
  for (double v : s.data()) trace_s2 += v * v;

  // OAS shrinkage intensity (Chen et al. 2010).
  const double numerator = (1.0 - 2.0 / d) * trace_s2 + trace * trace;
  const double denominator =
      (n + 1.0 - 2.0 / d) * (trace_s2 - trace * trace / d);
  double gamma = denominator > 0.0 ? numerator / denominator : 1.0;
  gamma = std::clamp(gamma, 0.0, 1.0);
  if (shrinkage != nullptr) *shrinkage = gamma;

  Matrix shrunk = Scale(s, 1.0 - gamma);
  AddDiagonal(shrunk, gamma * mu);
  return shrunk;
}

}  // namespace tsaug::linalg
