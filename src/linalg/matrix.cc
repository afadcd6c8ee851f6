#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>

#include "core/kernels/kernels.h"
#include "core/parallel.h"
#include "core/trace.h"

namespace tsaug::linalg {
namespace {

// Rows per ParallelFor chunk so each chunk carries at least ~32k
// multiply-adds; tiny products run inline with zero pool overhead.
std::int64_t RowGrain(std::int64_t flops_per_row) {
  constexpr std::int64_t kMinFlopsPerChunk = 32768;
  return std::max<std::int64_t>(1,
                                kMinFlopsPerChunk / std::max<std::int64_t>(
                                                        1, flops_per_row));
}

}  // namespace

Matrix Matrix::Identity(int n) {
  Matrix m(n, n);
  for (int i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::FromRows(
    std::initializer_list<std::initializer_list<double>> rows) {
  std::vector<std::vector<double>> copied;
  copied.reserve(rows.size());
  for (const auto& row : rows) copied.emplace_back(row);
  return FromRowVectors(copied);
}

Matrix Matrix::FromRowVectors(const std::vector<std::vector<double>>& rows) {
  TSAUG_CHECK(!rows.empty());
  Matrix m(static_cast<int>(rows.size()), static_cast<int>(rows[0].size()));
  for (int r = 0; r < m.rows(); ++r) {
    TSAUG_CHECK(static_cast<int>(rows[static_cast<size_t>(r)].size()) == m.cols());
    for (int c = 0; c < m.cols(); ++c) m(r, c) = rows[static_cast<size_t>(r)][static_cast<size_t>(c)];
  }
  return m;
}

std::vector<double> Matrix::Row(int r) const {
  const double* p = row_data(r);
  return std::vector<double>(p, p + cols_);
}

void Matrix::SetRow(int r, const std::vector<double>& values) {
  TSAUG_CHECK(static_cast<int>(values.size()) == cols_);
  std::copy(values.begin(), values.end(), row_data(r));
}

Matrix Matrix::Transposed() const {
  Matrix t(cols_, rows_);
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

std::vector<double> Matrix::ColMeans() const {
  std::vector<double> means(static_cast<size_t>(cols_), 0.0);
  if (rows_ == 0) return means;
  for (int r = 0; r < rows_; ++r) {
    const double* p = row_data(r);
    for (int c = 0; c < cols_; ++c) means[static_cast<size_t>(c)] += p[c];
  }
  for (double& m : means) m /= rows_;
  return means;
}

void Matrix::CenterColumns(const std::vector<double>& means) {
  TSAUG_CHECK(static_cast<int>(means.size()) == cols_);
  for (int r = 0; r < rows_; ++r) {
    double* p = row_data(r);
    for (int c = 0; c < cols_; ++c) p[c] -= means[static_cast<size_t>(c)];
  }
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  TSAUG_CHECK(a.cols() == b.rows());
  TSAUG_TRACE_SCOPE("linalg.matmul");
  Matrix c(a.rows(), b.cols());
  // i-k-j loop order keeps the inner loop streaming over contiguous rows;
  // each output row is an independent slice, so row-block parallelism is
  // bitwise deterministic at any thread count.
  if (a.empty() || b.empty()) return c;  // all sums empty; C stays zero
  const auto& kt = core::kernels::Active();
  const double* b0 = b.row_data(0);
  core::ParallelFor(
      0, a.rows(),
      RowGrain(static_cast<std::int64_t>(a.cols()) * b.cols()),
      [&](std::int64_t lo, std::int64_t hi) {
        for (int i = static_cast<int>(lo); i < static_cast<int>(hi); ++i) {
          kt.row_panel_matmul(a.row_data(i), 1, a.cols(), b0, b.cols(),
                              c.row_data(i), b.cols());
        }
      });
  return c;
}

Matrix MatMulTransposeA(const Matrix& a, const Matrix& b) {
  TSAUG_CHECK(a.rows() == b.rows());
  TSAUG_TRACE_SCOPE("linalg.matmul_ta");
  Matrix c(a.cols(), b.cols());
  // Iterate output rows (columns of A) so each row of C is written by
  // exactly one chunk; for a fixed (i, j) the accumulation over k stays
  // in ascending-k order, independent of the chunking. Column i of A is a
  // strided vector (stride = a.cols()) into the kernel.
  if (a.empty() || b.empty()) return c;  // all sums empty; C stays zero
  const auto& kt = core::kernels::Active();
  const double* a0 = a.row_data(0);
  const double* b0 = b.row_data(0);
  core::ParallelFor(
      0, a.cols(),
      RowGrain(static_cast<std::int64_t>(a.rows()) * b.cols()),
      [&](std::int64_t lo, std::int64_t hi) {
        for (int i = static_cast<int>(lo); i < static_cast<int>(hi); ++i) {
          kt.row_panel_matmul(a0 + i, a.cols(), a.rows(), b0, b.cols(),
                              c.row_data(i), b.cols());
        }
      });
  return c;
}

Matrix Gram(const Matrix& x) {
  TSAUG_TRACE_SCOPE("linalg.gram");
  const int m = x.rows();
  Matrix g(m, m);
  if (x.empty()) return g;  // all sums empty; G stays zero
  const auto& kt = core::kernels::Active();
  const std::int64_t n = x.cols();
  const double* x0 = x.row_data(0);
  double* g0 = g.row_data(0);
  // Rows go in blocks of four: block b owns G rows [4b, 4b + 4) and fills
  // their columns up to the block's diagonal as one dot_panel tile. Block
  // cost grows with b, so blocks are handed out heaviest first and
  // ParallelFor's dynamic chunks balance the triangle. Each entry is one
  // ascending-t sum, owned by one block: deterministic at any thread count.
  const std::int64_t blocks = (m + 3) / 4;
  core::ParallelFor(
      0, blocks, RowGrain(2 * n * (m + 4)),
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t k = lo; k < hi; ++k) {
          const std::int64_t i0 = 4 * (blocks - 1 - k);
          const std::int64_t a_rows = std::min<std::int64_t>(4, m - i0);
          kt.dot_panel(x0 + i0 * n, n, a_rows, x0, n, i0 + a_rows, n,
                       g0 + i0 * m, m);
        }
      });
  // x_i[t] * x_j[t] == x_j[t] * x_i[t] exactly, so G(j, i) for i < j is
  // the sum G(i, j) would have been; mirror the lower triangle (and the
  // diagonal blocks' upper corners) serially.
  for (int i = 0; i < m; ++i) {
    for (int j = i + 1; j < m; ++j) g(i, j) = g(j, i);
  }
  return g;
}

Matrix Add(const Matrix& a, const Matrix& b) {
  TSAUG_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  Matrix c = a;
  for (size_t i = 0; i < c.size(); ++i) c.data()[i] += b.data()[i];
  return c;
}

Matrix Sub(const Matrix& a, const Matrix& b) {
  TSAUG_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  Matrix c = a;
  for (size_t i = 0; i < c.size(); ++i) c.data()[i] -= b.data()[i];
  return c;
}

Matrix Scale(const Matrix& a, double s) {
  Matrix c = a;
  for (double& v : c.data()) v *= s;
  return c;
}

void AddDiagonal(Matrix& a, double s) {
  TSAUG_CHECK(a.rows() == a.cols());
  for (int i = 0; i < a.rows(); ++i) a(i, i) += s;
}

double MaxAbsDiff(const Matrix& a, const Matrix& b) {
  TSAUG_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  double max_diff = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(a.data()[i] - b.data()[i]));
  }
  return max_diff;
}

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  TSAUG_CHECK(a.size() == b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

double Norm(const std::vector<double>& a) { return std::sqrt(Dot(a, a)); }

}  // namespace tsaug::linalg
