#include "linalg/decomposition.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
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

namespace {

// Householder reduction of the symmetric `w` to tridiagonal form
// T = Q^T A Q (EISPACK tred2, after JAMA), leaving Q in `w`. On return
// d[0..n) is T's diagonal and e[1..n) its subdiagonal. The active block
// (rows and columns [0, i) at step i) is kept in both triangles, exactly
// symmetric, so every loop runs along rows: A u is one row_panel_matmul
// call, and the rank-2 update subtracts d[j]*e[k] + e[j]*d[k] at (j, k)
// and the same two products, added in the other order, at (k, j). Step i
// leaves its Householder vector in column i, above the diagonal.
//
// The matrix-vector products sum each output in ascending order from
// +0.0, as the textbook loops do. row_panel_matmul skips a zero
// multiplier, which cannot change such a sum of finite terms: it never
// holds -0, so adding a +-0 product leaves it unchanged.
void Tridiagonalize(const core::kernels::KernelTable& kt, Matrix& w,
                    double* d, double* e) {
  const int n = w.rows();
  for (int j = 0; j < n; ++j) d[j] = w(n - 1, j);
  for (int i = n - 1; i > 0; --i) {
    double scale = 0.0;
    double h = 0.0;
    for (int k = 0; k < i; ++k) scale += std::fabs(d[k]);
    if (scale == 0.0) {
      e[i] = d[i - 1];
      for (int j = 0; j < i; ++j) {
        d[j] = w(i - 1, j);
        w(i, j) = 0.0;
        w(j, i) = 0.0;
      }
    } else {
      for (int k = 0; k < i; ++k) {
        d[k] /= scale;
        h += d[k] * d[k];
      }
      double f = d[i - 1];
      const double g = f > 0 ? -std::sqrt(h) : std::sqrt(h);
      e[i] = scale * g;
      h -= f * g;
      d[i - 1] = f - g;
      // e = A u / h, then e -= (u^T e / 2h) u.
      std::fill(e, e + i, 0.0);
      kt.row_panel_matmul(d, 1, i, w.row_data(0), n, e, i);
      f = 0.0;
      for (int j = 0; j < i; ++j) {
        e[j] /= h;
        f += e[j] * d[j];
      }
      const double hh = f / (h + h);
      for (int j = 0; j < i; ++j) e[j] -= hh * d[j];
      for (int j = 0; j < i; ++j) {
        double* row = w.row_data(j);
        for (int k = 0; k < i; ++k) row[k] -= d[j] * e[k] + e[j] * d[k];
      }
      for (int j = 0; j < i; ++j) {
        w(j, i) = d[j];
        w(i, j) = 0.0;
        d[j] = w(i - 1, j);
      }
    }
    d[i] = h;
  }

  // Accumulate Q: step i applies reflector i + 1 (u, in column i + 1) to
  // the leading (i + 1) x (i + 1) block. g = u^T Q is one row_panel_matmul
  // call, and Q -= (u / h) g is a rank-1 update along rows. d[i + 1] still
  // holds that reflector's h; d[0..i] is scratch.
  std::vector<double> diagonal(static_cast<size_t>(n));
  for (int j = 0; j < n; ++j) diagonal[static_cast<size_t>(j)] = w(j, j);
  std::vector<double> g(static_cast<size_t>(n));
  for (int i = 0; i < n - 1; ++i) {
    w(i, i) = 1.0;
    const double h = d[i + 1];
    if (h != 0.0) {
      for (int k = 0; k <= i; ++k) d[k] = w(k, i + 1) / h;
      std::fill(g.begin(), g.begin() + i + 1, 0.0);
      kt.row_panel_matmul(w.row_data(0) + i + 1, n, i + 1, w.row_data(0), n,
                          g.data(), i + 1);
      for (int k = 0; k <= i; ++k) {
        double* row = w.row_data(k);
        for (int j = 0; j <= i; ++j) row[j] -= g[static_cast<size_t>(j)] * d[k];
      }
    }
    for (int k = 0; k <= i; ++k) w(k, i + 1) = 0.0;
  }
  w(n - 1, n - 1) = 1.0;
  std::copy(diagonal.begin(), diagonal.end(), d);
  e[0] = 0.0;
}

// Implicit-shift QL on the tridiagonal (d, e) from Tridiagonalize (EISPACK
// tql2, after JAMA). Each Givens rotation of eigenvector columns i and
// i + 1 rotates rows i and i + 1 of `vt`. On return d holds the
// eigenvalues, unsorted. An eigenvalue gets kMaxIterations QL steps, as
// in EISPACK; one that needs more is kDiverged.
core::Status DiagonalizeTridiagonal(const core::kernels::KernelTable& kt,
                                    double* d, double* e, Matrix& vt) {
  constexpr int kMaxIterations = 30;
  const int n = vt.rows();
  for (int i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;
  const double eps = std::numeric_limits<double>::epsilon();
  double f = 0.0;
  double tst1 = 0.0;
  for (int l = 0; l < n; ++l) {
    tst1 = std::max(tst1, std::fabs(d[l]) + std::fabs(e[l]));
    int m = l;
    while (m < n - 1 && std::fabs(e[m]) > eps * tst1) ++m;
    for (int iteration = 0; m > l && std::fabs(e[l]) > eps * tst1;
         ++iteration) {
      if (iteration == kMaxIterations) {
        return core::DivergedError("SymmetricEigen: QL did not converge");
      }
      double g = d[l];
      double p = (d[l + 1] - g) / (2.0 * e[l]);
      double r = std::hypot(p, 1.0);
      if (p < 0) r = -r;
      d[l] = e[l] / (p + r);
      d[l + 1] = e[l] * (p + r);
      const double dl1 = d[l + 1];
      double h = g - d[l];
      for (int i = l + 2; i < n; ++i) d[i] -= h;
      f += h;

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
        kt.rotate_rows(c, s, vt.row_data(i), vt.row_data(i + 1), n);
      }
      p = -s * s2 * c3 * el1 * e[l] / dl1;
      e[l] = s * p;
      d[l] = c * p;
    }
    d[l] += f;
    e[l] = 0.0;
  }
  return core::OkStatus();
}

void TransposeInPlace(Matrix& m) {
  for (int i = 0; i < m.rows(); ++i) {
    for (int j = i + 1; j < m.cols(); ++j) std::swap(m(i, j), m(j, i));
  }
}

}  // namespace

core::Status SymmetricEigen(const Matrix& a, std::vector<double>* eigenvalues,
                            Matrix* eigenvectors) {
  TSAUG_CHECK(a.rows() == a.cols());
  const int n = a.rows();
  eigenvalues->clear();
  *eigenvectors = Matrix();
  Matrix q(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j <= i; ++j) {
      if (!std::isfinite(a(i, j))) {
        return core::DivergedError("SymmetricEigen: non-finite input");
      }
      q(i, j) = a(i, j);
      q(j, i) = a(i, j);
    }
  }
  if (n == 0) return core::OkStatus();
  const auto& kt = core::kernels::Active();
  std::vector<double> w(static_cast<size_t>(n));
  std::vector<double> e(static_cast<size_t>(n));
  Tridiagonalize(kt, q, w.data(), e.data());
  // QL rotates eigenvector columns, so it works on Q^T's rows.
  TransposeInPlace(q);
  TSAUG_RETURN_IF_ERROR(DiagonalizeTridiagonal(kt, w.data(), e.data(), q));

  // Selection sort, ascending; a tie keeps the earlier eigenpair first.
  for (int j = 0; j < n; ++j) {
    const auto min = std::min_element(w.begin() + j, w.end());
    const int k = static_cast<int>(min - w.begin());
    if (k != j) {
      std::swap(w[static_cast<size_t>(j)], *min);
      std::swap_ranges(q.row_data(j), q.row_data(j) + n, q.row_data(k));
    }
  }
  const auto finite = [](double v) { return std::isfinite(v); };
  if (!std::all_of(w.begin(), w.end(), finite) ||
      !std::all_of(q.data().begin(), q.data().end(), finite)) {
    return core::DivergedError("SymmetricEigen: non-finite result");
  }
  TransposeInPlace(q);
  *eigenvalues = std::move(w);
  *eigenvectors = std::move(q);
  return core::OkStatus();
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
