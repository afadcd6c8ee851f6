// Bitwise parity of the simd kernel backend against the scalar
// reference: every dispatched hot path must produce identical bits under
// both backends, at every thread count. The suite skips (rather than
// passes vacuously) on hosts without AVX2 — CI runs at least one leg on
// hardware where it executes.

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "classify/rocket.h"
#include "core/kernels/kernels.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "linalg/distance.h"
#include "linalg/matrix.h"
#include "nn/autograd.h"
#include "nn/ops.h"
#include "nn/tensor.h"

namespace tsaug {
namespace {

namespace kernels = core::kernels;

class BackendGuard {
 public:
  BackendGuard()
      : backend_(kernels::ActiveBackend()), threads_(core::GetNumThreads()) {}
  ~BackendGuard() {
    kernels::SetBackend(backend_);
    core::SetNumThreads(threads_);
  }

 private:
  kernels::Backend backend_;
  int threads_;
};

const std::vector<int> kThreadCounts = {1, 2, 8};

/// Runs `fn` under both backends at every thread count and requires the
/// flattened results to be bitwise identical (memcmp, not ==, so NaNs
/// and signed zeros cannot hide a divergence).
void ExpectBackendParity(const std::function<std::vector<double>()>& fn) {
  ASSERT_TRUE(kernels::SimdAvailable());
  for (int threads : kThreadCounts) {
    core::SetNumThreads(threads);
    kernels::SetBackend(kernels::Backend::kScalar);
    const std::vector<double> scalar = fn();
    kernels::SetBackend(kernels::Backend::kSimd);
    ASSERT_EQ(kernels::ActiveBackend(), kernels::Backend::kSimd);
    const std::vector<double> simd = fn();
    ASSERT_EQ(scalar.size(), simd.size());
    EXPECT_EQ(0, std::memcmp(scalar.data(), simd.data(),
                             scalar.size() * sizeof(double)))
        << "backend divergence at " << threads << " thread(s)";
  }
}

linalg::Matrix RandomMatrix(int rows, int cols, std::uint64_t seed,
                            double zero_fraction = 0.0) {
  core::Rng rng(seed);
  linalg::Matrix m(rows, cols);
  for (double& v : m.data()) {
    v = rng.Bernoulli(zero_fraction) ? 0.0 : rng.Normal();
  }
  return m;
}

nn::Tensor RandomTensor(const std::vector<int>& shape, std::uint64_t seed) {
  core::Rng rng(seed);
  nn::Tensor t(shape);
  for (double& v : t.data()) v = rng.Normal();
  return t;
}

void Append(std::vector<double>& out, const linalg::Matrix& m) {
  out.insert(out.end(), m.data().begin(), m.data().end());
}

void Append(std::vector<double>& out, const nn::Tensor& t) {
  out.insert(out.end(), t.data().begin(), t.data().end());
}

#define SKIP_WITHOUT_SIMD()                                           \
  if (!kernels::SimdAvailable()) {                                    \
    GTEST_SKIP() << "simd backend unavailable on this host";          \
  }                                                                   \
  BackendGuard guard

TEST(BackendParity, MatMulFamily) {
  SKIP_WITHOUT_SIMD();
  // Zeros in the left operand exercise the saxpy zero-skip path.
  const linalg::Matrix a = RandomMatrix(17, 9, 1, /*zero_fraction=*/0.3);
  const linalg::Matrix at = RandomMatrix(9, 17, 2, /*zero_fraction=*/0.3);
  const linalg::Matrix b = RandomMatrix(9, 13, 3);
  const linalg::Matrix bt = RandomMatrix(13, 9, 4);

  ExpectBackendParity([&] {
    std::vector<double> out;
    Append(out, linalg::MatMul(a, b));
    Append(out, linalg::MatMulTransposeA(at, b));
    Append(out, linalg::MatMul(a, bt.Transposed()));
    Append(out, linalg::Gram(a));
    return out;
  });
}

TEST(BackendParity, RocketTransform) {
  SKIP_WITHOUT_SIMD();
  const nn::Tensor data = RandomTensor({3, 2, 40}, 6);
  classify::RocketTransform transform(/*num_kernels=*/50, /*seed=*/17);
  transform.Fit(/*num_channels=*/2, /*series_length=*/40);

  ExpectBackendParity([&] {
    std::vector<double> out;
    Append(out, transform.Transform(data));
    return out;
  });
}

TEST(BackendParity, RotateRows) {
  SKIP_WITHOUT_SIMD();
  const kernels::KernelTable& scalar = kernels::ScalarKernels();
  const kernels::KernelTable& simd = *kernels::SimdKernels();
  core::Rng rng(18);
  const double c = std::cos(0.7);
  const double s = std::sin(0.7);
  for (int n = 0; n <= 17; ++n) {
    // Row starts 0..3 doubles into the buffers: every alignment of a
    // 4-lane vector against the 64-byte-aligned storage, x and y offset
    // independently.
    for (int x_offset = 0; x_offset < 4; ++x_offset) {
      const int y_offset = (x_offset + 1) % 4;
      std::vector<double> x(static_cast<size_t>(n + 4));
      std::vector<double> y(static_cast<size_t>(n + 4));
      for (double& v : x) v = rng.Normal();
      for (double& v : y) v = rng.Normal();
      std::vector<double> xs = x, ys = y, xv = x, yv = y;
      scalar.rotate_rows(c, s, xs.data() + x_offset, ys.data() + y_offset, n);
      simd.rotate_rows(c, s, xv.data() + x_offset, yv.data() + y_offset, n);
      EXPECT_EQ(0, std::memcmp(xs.data(), xv.data(), x.size() * sizeof(double)))
          << "n=" << n << " x_offset=" << x_offset;
      EXPECT_EQ(0, std::memcmp(ys.data(), yv.data(), y.size() * sizeof(double)))
          << "n=" << n << " y_offset=" << y_offset;
    }
  }
}

// Two NaNs meeting in an add: x86 keeps the first source operand's, so
// the accumulating entries must keep y as that operand in both tables.
// Every lane mixes the signs of y's and the addend's NaNs (and, for
// relu_bwd, of x), across vector bodies and scalar tails, at every row
// alignment.
TEST(BackendParity, AccumulatingEntriesKeepTheAccumulatorsNaN) {
  SKIP_WITHOUT_SIMD();
  const kernels::KernelTable& scalar = kernels::ScalarKernels();
  const kernels::KernelTable& simd = *kernels::SimdKernels();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int n = 0; n <= 13; ++n) {
    for (int offset = 0; offset < 4; ++offset) {
      std::vector<double> g(static_cast<size_t>(n + 4));
      std::vector<double> x(g.size());
      std::vector<double> y(g.size());
      for (size_t i = 0; i < g.size(); ++i) {
        y[i] = i % 2 == 0 ? nan : -nan;
        g[i] = i % 2 == 0 ? -nan : nan;
        x[i] = i % 3 == 0 ? -1.0 : (i % 3 == 1 ? 2.0 : nan);
      }
      const size_t bytes = y.size() * sizeof(double);

      std::vector<double> ys = y, yv = y;
      scalar.ew_add_acc(g.data() + offset, ys.data() + offset, n);
      simd.ew_add_acc(g.data() + offset, yv.data() + offset, n);
      EXPECT_EQ(0, std::memcmp(ys.data(), yv.data(), bytes))
          << "ew_add_acc n=" << n << " offset=" << offset;
      EXPECT_EQ(0, std::memcmp(ys.data(), y.data(), bytes))
          << "ew_add_acc lost y's NaN, n=" << n;

      ys = y;
      yv = y;
      scalar.ew_relu_bwd_acc(g.data() + offset, x.data() + offset,
                             ys.data() + offset, n);
      simd.ew_relu_bwd_acc(g.data() + offset, x.data() + offset,
                           yv.data() + offset, n);
      EXPECT_EQ(0, std::memcmp(ys.data(), yv.data(), bytes))
          << "ew_relu_bwd_acc n=" << n << " offset=" << offset;
      EXPECT_EQ(0, std::memcmp(ys.data(), y.data(), bytes))
          << "ew_relu_bwd_acc lost y's NaN, n=" << n;
    }
  }
}

// The panel kernels read their rows at b + t*ldb. Conv1dSame walks one
// padded row with ldb = dilation (rows overlap) and, for dX, ldb =
// -dilation; both tables must agree there for every length and alignment.
TEST(BackendParity, PanelKernelsOnStridedRows) {
  SKIP_WITHOUT_SIMD();
  const kernels::KernelTable& scalar = kernels::ScalarKernels();
  const kernels::KernelTable& simd = *kernels::SimdKernels();
  core::Rng rng(19);
  for (int ldb : {-3, -1, 1, 2}) {
    for (int panels : {1, 3, 4, 6}) {
      const int reach = (panels - 1) * std::abs(ldb);
      for (int n = 0; n <= 17; ++n) {
        for (int offset = 0; offset < 4; ++offset) {
          std::vector<double> a(static_cast<size_t>(panels));
          for (double& v : a) v = rng.Bernoulli(0.25) ? 0.0 : rng.Normal();
          std::vector<double> b(static_cast<size_t>(reach + n + 4));
          for (double& v : b) v = rng.Normal();
          // First panel row: the buffer's far end when ldb walks backwards.
          const double* b0 = b.data() + offset + (ldb < 0 ? reach : 0);
          const std::string where = "ldb=" + std::to_string(ldb) +
                                    " panels=" + std::to_string(panels) +
                                    " n=" + std::to_string(n) +
                                    " offset=" + std::to_string(offset);

          std::vector<double> c(static_cast<size_t>(n + 4));
          for (double& v : c) v = rng.Normal();
          std::vector<double> cs = c, cv = c;
          const int c_offset = (offset + 1) % 4;
          scalar.row_panel_matmul(a.data(), 1, panels, b0, ldb,
                                  cs.data() + c_offset, n);
          simd.row_panel_matmul(a.data(), 1, panels, b0, ldb,
                                cv.data() + c_offset, n);
          EXPECT_EQ(0, std::memcmp(cs.data(), cv.data(),
                                   c.size() * sizeof(double)))
              << "row_panel_matmul " << where;

          std::vector<double> x(static_cast<size_t>(n + 4));
          for (double& v : x) v = rng.Normal();
          std::vector<double> outs(static_cast<size_t>(panels));
          std::vector<double> outv(static_cast<size_t>(panels));
          scalar.dot_panel(x.data() + c_offset, 0, 1, b0, ldb, panels, n,
                           outs.data(), 0);
          simd.dot_panel(x.data() + c_offset, 0, 1, b0, ldb, panels, n,
                         outv.data(), 0);
          EXPECT_EQ(0, std::memcmp(outs.data(), outv.data(),
                                   outs.size() * sizeof(double)))
              << "dot_panel " << where;
        }
      }
    }
  }
}

// rocket_ppv_max runs 16-, 8- and 4-position register blocks before its
// scalar tail, so every range length from 0 to 40 hits each mix of them.
// Each channel is its own buffer ending at the last tap the range reads:
// an over-read fails under AddressSanitizer.
TEST(BackendParity, RocketPpvMaxEveryBlockMix) {
  SKIP_WITHOUT_SIMD();
  const kernels::KernelTable& scalar = kernels::ScalarKernels();
  const kernels::KernelTable& simd = *kernels::SimdKernels();
  core::Rng rng(20);
  for (int channels = 1; channels <= 4; ++channels) {
    for (int length : {7, 9, 11}) {
      for (int dilation = 1; dilation <= 4; ++dilation) {
        for (int span = 0; span <= 40; ++span) {
          const int pos_lo = span % 3;
          const int pos_hi = pos_lo + span;
          std::vector<std::vector<double>> rows(
              static_cast<size_t>(channels),
              std::vector<double>(
                  static_cast<size_t>(pos_hi + (length - 1) * dilation)));
          std::vector<const double*> ptrs;
          for (std::vector<double>& row : rows) {
            for (double& v : row) v = rng.Normal();
            ptrs.push_back(row.data());
          }
          std::vector<double> weights(static_cast<size_t>(channels * length));
          for (double& v : weights) v = rng.Normal();
          const double bias = rng.Normal();

          std::int64_t count_s = 0, count_v = 0;
          double max_s = -std::numeric_limits<double>::infinity();
          double max_v = max_s;
          scalar.rocket_ppv_max(ptrs.data(), channels, weights.data(), length,
                                dilation, bias, pos_lo, pos_hi, &count_s,
                                &max_s);
          simd.rocket_ppv_max(ptrs.data(), channels, weights.data(), length,
                              dilation, bias, pos_lo, pos_hi, &count_v,
                              &max_v);
          const std::string where = "channels=" + std::to_string(channels) +
                                    " length=" + std::to_string(length) +
                                    " dilation=" + std::to_string(dilation) +
                                    " span=" + std::to_string(span);
          EXPECT_EQ(0, std::memcmp(&count_s, &count_v, sizeof(count_s)))
              << "positive count " << where;
          EXPECT_EQ(0, std::memcmp(&max_s, &max_v, sizeof(max_s)))
              << "max " << where;
        }
      }
    }
  }
}

/// Draws where summation order shows in the bits: signed zeros,
/// subnormals and +-800 beside N(0, 1).
double MixedValue(core::Rng& rng) {
  switch (rng.Int(0, 5)) {
    case 0:
      return rng.Bernoulli(0.5) ? 0.0 : -0.0;
    case 1:
      return rng.Uniform(-1.0, 1.0) * std::numeric_limits<double>::denorm_min() *
             1e6;
    case 2:
      return rng.Bernoulli(0.5) ? 800.0 : -800.0;
    default:
      return rng.Normal();
  }
}

// dot_panel's tile form: out[i*ldo + r] = dot(a row i, b row r), each from
// +0.0 in ascending-t order. Both tables must equal a naive loop for every
// a-row count (the SIMD 4x4 tiles and their row and column remainders),
// and leave the padding between output rows untouched.
TEST(BackendParity, DotPanelTileMatchesNaiveLoop) {
  SKIP_WITHOUT_SIMD();
  const kernels::KernelTable& scalar = kernels::ScalarKernels();
  const kernels::KernelTable& simd = *kernels::SimdKernels();
  core::Rng rng(21);
  for (int a_rows = 1; a_rows <= 9; ++a_rows) {
    for (int rows = 0; rows <= 13; ++rows) {
      for (int n = 0; n <= 9; ++n) {
        const int lda = n + 1, ldb = n + 2, ldo = rows + 3;
        std::vector<double> a(static_cast<size_t>(a_rows * lda));
        std::vector<double> b(static_cast<size_t>(rows * ldb));
        for (double& v : a) v = MixedValue(rng);
        for (double& v : b) v = MixedValue(rng);
        std::vector<double> naive(static_cast<size_t>(a_rows * ldo), -7.0);
        for (int i = 0; i < a_rows; ++i) {
          for (int r = 0; r < rows; ++r) {
            double sum = 0.0;
            for (int t = 0; t < n; ++t) {
              sum += a[static_cast<size_t>(i * lda + t)] *
                     b[static_cast<size_t>(r * ldb + t)];
            }
            naive[static_cast<size_t>(i * ldo + r)] = sum;
          }
        }
        const std::string where = "a_rows=" + std::to_string(a_rows) +
                                  " rows=" + std::to_string(rows) +
                                  " n=" + std::to_string(n);
        for (const kernels::KernelTable* table : {&scalar, &simd}) {
          std::vector<double> out(naive.size(), -7.0);
          table->dot_panel(a.data(), lda, a_rows, b.data(), ldb, rows, n,
                           out.data(), ldo);
          EXPECT_EQ(0, std::memcmp(naive.data(), out.data(),
                                   out.size() * sizeof(double)))
              << (table == &scalar ? "scalar " : "simd ") << where;
        }
      }
    }
  }
}

TEST(BackendParity, NnMatMulForwardBackward) {
  SKIP_WITHOUT_SIMD();
  const nn::Tensor ta = RandomTensor({5, 4}, 7);
  const nn::Tensor tb = RandomTensor({4, 3}, 8);

  ExpectBackendParity([&] {
    nn::Variable a(ta, /*requires_grad=*/true);
    nn::Variable b(tb, /*requires_grad=*/true);
    nn::Variable loss = nn::Mean(nn::MatMul(a, b));
    loss.Backward();
    std::vector<double> out;
    Append(out, loss.value());
    Append(out, a.grad());
    Append(out, b.grad());
    return out;
  });
}

TEST(BackendParity, Conv1dSameForwardBackward) {
  SKIP_WITHOUT_SIMD();
  const nn::Tensor tx = RandomTensor({2, 3, 20}, 9);
  const nn::Tensor tw = RandomTensor({4, 3, 5}, 10);

  for (int dilation : {1, 2}) {
    ExpectBackendParity([&] {
      nn::Variable x(tx, /*requires_grad=*/true);
      nn::Variable w(tw, /*requires_grad=*/true);
      nn::Variable loss = nn::Mean(nn::Conv1dSame(x, w, dilation));
      loss.Backward();
      std::vector<double> out;
      Append(out, loss.value());
      Append(out, x.grad());
      Append(out, w.grad());
      return out;
    });
  }
}

TEST(BackendParity, Distances) {
  SKIP_WITHOUT_SIMD();
  core::Rng rng(11);
  core::TimeSeries a(3, 19);
  core::TimeSeries b(3, 23);  // unequal lengths exercise the resample path
  for (double& v : a.values()) v = rng.Normal();
  for (double& v : b.values()) v = rng.Normal();
  std::vector<double> u(37), v(37);
  for (double& e : u) e = rng.Normal();
  for (double& e : v) e = rng.Normal();

  ExpectBackendParity([&] {
    return std::vector<double>{
        linalg::EuclideanDistance(u, v),
        linalg::EuclideanDistance(a, b),
        linalg::DtwDistance(a, b, /*window=*/-1),
        linalg::DtwDistance(a, b, /*window=*/4),
    };
  });
}

TEST(BackendParity, ElementwiseChains) {
  SKIP_WITHOUT_SIMD();
  const nn::Tensor tx = RandomTensor({6, 7}, 12);
  const nn::Tensor ty = RandomTensor({6, 7}, 13);

  ExpectBackendParity([&] {
    nn::Variable x(tx, /*requires_grad=*/true);
    nn::Variable y(ty, /*requires_grad=*/true);
    nn::Variable r = nn::Mul(nn::Relu(x), nn::Tanh(y));
    nn::Variable s = nn::Sigmoid(nn::Sub(x, y));
    nn::Variable t = nn::OneMinus(nn::ScaleBy(nn::AddConst(r, 0.25), 0.5));
    nn::Variable loss = nn::Mean(nn::Add(nn::Add(r, s), t));
    loss.Backward();
    std::vector<double> out;
    Append(out, loss.value());
    Append(out, x.grad());
    Append(out, y.grad());
    return out;
  });
}

/// The fused gate op must match the unfused composition bitwise — in
/// values AND gradients — under both backends. This pins the GRU cell's
/// numerics to the pre-fusion graph.
TEST(BackendParity, FusedGateMatchesUnfusedComposition) {
  SKIP_WITHOUT_SIMD();
  const nn::Tensor ta = RandomTensor({6, 5}, 14);
  const nn::Tensor tb = RandomTensor({6, 5}, 15);
  const nn::Tensor tbias = RandomTensor({5}, 16);

  for (bool use_tanh : {false, true}) {
    auto run = [&](bool fused) {
      nn::Variable a(ta, /*requires_grad=*/true);
      nn::Variable b(tb, /*requires_grad=*/true);
      nn::Variable bias(tbias, /*requires_grad=*/true);
      nn::Variable gate;
      if (fused) {
        gate = use_tanh ? nn::AddRowBiasTanh(a, b, bias)
                        : nn::AddRowBiasSigmoid(a, b, bias);
      } else {
        nn::Variable pre = nn::AddRowBias(nn::Add(a, b), bias);
        gate = use_tanh ? nn::Tanh(pre) : nn::Sigmoid(pre);
      }
      nn::Variable loss = nn::Mean(gate);
      loss.Backward();
      std::vector<double> out;
      Append(out, gate.value());
      Append(out, a.grad());
      Append(out, b.grad());
      Append(out, bias.grad());
      return out;
    };
    // Fused == unfused within the active backend...
    for (kernels::Backend backend :
         {kernels::Backend::kScalar, kernels::Backend::kSimd}) {
      kernels::SetBackend(backend);
      const std::vector<double> fused = run(true);
      const std::vector<double> unfused = run(false);
      ASSERT_EQ(fused.size(), unfused.size());
      EXPECT_EQ(0, std::memcmp(fused.data(), unfused.data(),
                               fused.size() * sizeof(double)))
          << "fused/unfused divergence under "
          << kernels::BackendName(backend);
    }
    // ...and the fused op itself is backend-parity clean.
    ExpectBackendParity([&] { return run(true); });
  }
}

}  // namespace
}  // namespace tsaug
