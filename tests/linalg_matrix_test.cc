#include "linalg/matrix.h"

#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/kernels/kernels.h"
#include "core/rng.h"

namespace tsaug::linalg {
namespace {

TEST(Matrix, IdentityDiagonal) {
  Matrix id = Matrix::Identity(3);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(id(i, j), i == j ? 1.0 : 0.0);
    }
  }
}

TEST(Matrix, FromRowsAndAccess) {
  Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_DOUBLE_EQ(m(1, 2), 6.0);
  EXPECT_EQ(m.Row(0), (std::vector<double>{1, 2, 3}));
}

TEST(Matrix, TransposedInvolution) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  Matrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 2);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_DOUBLE_EQ(t(0, 2), 5.0);
  EXPECT_EQ(t.Transposed(), m);
}

TEST(MatMul, KnownProduct) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix c = MatMul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatMul, TransposeVariantsAgreeWithExplicitTranspose) {
  Matrix a = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  Matrix b = Matrix::FromRows({{1, 0}, {2, 1}, {0, 3}});
  EXPECT_EQ(MatMulTransposeA(a, MatMul(a, b)),
            MatMul(a.Transposed(), MatMul(a, b)));
}

/// X X^T by the textbook triple loop: every sum from +0.0 in ascending-t
/// order, both triangles computed.
Matrix NaiveGram(const Matrix& x) {
  Matrix g(x.rows(), x.rows());
  for (int i = 0; i < x.rows(); ++i) {
    for (int j = 0; j < x.rows(); ++j) {
      double sum = 0.0;
      for (int t = 0; t < x.cols(); ++t) sum += x(i, t) * x(j, t);
      g(i, j) = sum;
    }
  }
  return g;
}

/// Gram computes the lower triangle in 4x4 tiles and mirrors it; under
/// either backend it must equal the naive loop bit for bit (memcmp, so
/// signed zeros count) and be exactly symmetric, for row counts that are
/// and are not multiples of four and for the Table IV dual shape.
TEST(Gram, MatchesNaiveLoopAndIsSymmetric) {
  namespace kernels = core::kernels;
  const kernels::Backend saved = kernels::ActiveBackend();
  std::vector<kernels::Backend> backends = {kernels::Backend::kScalar};
  if (kernels::SimdAvailable()) backends.push_back(kernels::Backend::kSimd);
  std::vector<std::pair<int, int>> shapes = {{57, 2000}};
  for (int rows = 0; rows <= 13; ++rows) {
    for (int cols = 0; cols <= 9; ++cols) shapes.emplace_back(rows, cols);
  }
  core::Rng rng(31);
  for (const auto& [rows, cols] : shapes) {
    Matrix x(rows, cols);
    for (double& v : x.data()) v = rng.Bernoulli(0.1) ? -0.0 : rng.Normal();
    const Matrix want = NaiveGram(x);
    for (kernels::Backend backend : backends) {
      kernels::SetBackend(backend);
      const Matrix g = Gram(x);
      ASSERT_EQ(g.rows(), rows);
      ASSERT_EQ(g.cols(), rows);
      if (g.size() > 0) {
        EXPECT_EQ(0, std::memcmp(g.data().data(), want.data().data(),
                                 g.size() * sizeof(double)))
            << kernels::BackendName(backend) << " " << rows << "x" << cols;
      }
      EXPECT_EQ(g, g.Transposed()) << rows << "x" << cols;
    }
  }
  kernels::SetBackend(saved);
}

TEST(Matrix, ArithmeticHelpers) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{4, 3}, {2, 1}});
  EXPECT_EQ(Add(a, b), Matrix::FromRows({{5, 5}, {5, 5}}));
  EXPECT_EQ(Sub(a, b), Matrix::FromRows({{-3, -1}, {1, 3}}));
  EXPECT_EQ(Scale(a, 2.0), Matrix::FromRows({{2, 4}, {6, 8}}));
  Matrix c = a;
  AddDiagonal(c, 10.0);
  EXPECT_DOUBLE_EQ(c(0, 0), 11.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 14.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 2.0);
}

TEST(Matrix, ColMeansAndCentering) {
  Matrix m = Matrix::FromRows({{1, 10}, {3, 30}});
  const std::vector<double> means = m.ColMeans();
  EXPECT_EQ(means, (std::vector<double>{2, 20}));
  m.CenterColumns(means);
  EXPECT_EQ(m, Matrix::FromRows({{-1, -10}, {1, 10}}));
}

TEST(Matrix, DotAndNorm) {
  EXPECT_DOUBLE_EQ(Dot({1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_DOUBLE_EQ(Norm({3, 4}), 5.0);
}

TEST(Matrix, MaxAbsDiff) {
  Matrix a = Matrix::FromRows({{1, 2}});
  Matrix b = Matrix::FromRows({{1.5, 1}});
  EXPECT_DOUBLE_EQ(MaxAbsDiff(a, b), 1.0);
}

}  // namespace
}  // namespace tsaug::linalg
