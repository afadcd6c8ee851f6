#ifndef TSAUG_LINALG_MATRIX_H_
#define TSAUG_LINALG_MATRIX_H_

#include <initializer_list>
#include <vector>

#include "core/aligned.h"
#include "core/check.h"

namespace tsaug::linalg {

/// Dense row-major matrix of doubles.
///
/// This is the numeric workhorse under the ridge classifier, covariance
/// estimators and eigensolvers. It is intentionally a plain value type:
/// copyable, movable, no expression templates.
class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols, double fill = 0.0)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows) * static_cast<size_t>(cols), fill) {
    TSAUG_CHECK(rows >= 0 && cols >= 0);
  }

  static Matrix Identity(int n);
  static Matrix FromRows(std::initializer_list<std::initializer_list<double>> rows);
  static Matrix FromRowVectors(const std::vector<std::vector<double>>& rows);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  /// Element access; bounds verified in debug / TSAUG_BOUNDS_CHECK builds.
  double& operator()(int r, int c) {
    TSAUG_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[offset(r, c)];
  }
  double operator()(int r, int c) const {
    TSAUG_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[offset(r, c)];
  }

  /// Pointer to the start of row `r` (rows are contiguous).
  double* row_data(int r) {
    TSAUG_CHECK(r >= 0 && r < rows_);
    return data_.data() + offset(r, 0);
  }
  const double* row_data(int r) const {
    TSAUG_CHECK(r >= 0 && r < rows_);
    return data_.data() + offset(r, 0);
  }

  const core::AlignedVector<double>& data() const { return data_; }
  core::AlignedVector<double>& data() { return data_; }

  /// Copies row `r` out as a vector.
  std::vector<double> Row(int r) const;
  /// Overwrites row `r`.
  void SetRow(int r, const std::vector<double>& values);

  Matrix Transposed() const;

  /// Per-column means (length cols).
  std::vector<double> ColMeans() const;

  /// Subtracts `means[c]` from every entry of column c (in place).
  void CenterColumns(const std::vector<double>& means);

  bool operator==(const Matrix& other) const = default;

 private:
  size_t offset(int r, int c) const {
    return static_cast<size_t>(r) * static_cast<size_t>(cols_) +
           static_cast<size_t>(c);
  }

  int rows_ = 0;
  int cols_ = 0;
  // 64-byte-aligned so the SIMD kernel backend's widest loads from a
  // buffer start never split a cache line (see core/aligned.h).
  core::AlignedVector<double> data_;
};

/// C = A * B.
Matrix MatMul(const Matrix& a, const Matrix& b);
/// C = A^T * B without materialising A^T.
Matrix MatMulTransposeA(const Matrix& a, const Matrix& b);
/// G = X * X^T (rows x rows, symmetric): G(i, j) sums X(i, t) * X(j, t)
/// from +0.0 in ascending-t order. Only the lower triangle is computed;
/// the upper is its mirror, bit-exact for finite X because both triangles
/// of X X^T add the same products in the same order.
Matrix Gram(const Matrix& x);

Matrix Add(const Matrix& a, const Matrix& b);
Matrix Sub(const Matrix& a, const Matrix& b);
Matrix Scale(const Matrix& a, double s);
/// A += s * I (A square).
void AddDiagonal(Matrix& a, double s);

/// Maximum absolute entry-wise difference; used in tests and iterative
/// convergence checks.
double MaxAbsDiff(const Matrix& a, const Matrix& b);

double Dot(const std::vector<double>& a, const std::vector<double>& b);
double Norm(const std::vector<double>& a);

}  // namespace tsaug::linalg

#endif  // TSAUG_LINALG_MATRIX_H_
