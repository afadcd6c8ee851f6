// Portable scalar reference implementations of the kernel seam
// (src/core/kernels/kernels.h). This table is the bitwise-determinism
// oracle: the loops reproduce the exact accumulation order the call sites
// used before the seam existed, and backend_parity_test holds the SIMD
// table to byte-for-byte equality against it.

#include <algorithm>

#include "core/kernels/kernels.h"

namespace tsaug::core::kernels {
namespace {

// --- MatMul family ----------------------------------------------------------

void RowPanelMatMul(const double* a, std::int64_t a_stride, std::int64_t k,
                    const double* b, std::int64_t ldb, double* c,
                    std::int64_t n) {
  for (std::int64_t t = 0; t < k; ++t) {
    const double av = a[t * a_stride];
    if (av == 0.0) continue;
    const double* bt = b + t * ldb;
    for (std::int64_t j = 0; j < n; ++j) c[j] += av * bt[j];
  }
}

void DotPanel(const double* a, const double* b, std::int64_t ldb,
              std::int64_t rows, std::int64_t n, double* out) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const double* br = b + r * ldb;
    double sum = 0.0;
    for (std::int64_t t = 0; t < n; ++t) sum += a[t] * br[t];
    out[r] = sum;
  }
}

void RotateRows(double c, double s, double* x, double* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const double xi = x[i];
    const double yi = y[i];
    x[i] = c * xi - s * yi;
    y[i] = s * xi + c * yi;
  }
}

// --- ROCKET convolution + PPV/max -------------------------------------------

void RocketPpvMax(const double* const* channels, std::int64_t num_channels,
                  const double* weights, std::int64_t length,
                  std::int64_t dilation, double bias, std::int64_t pos_lo,
                  std::int64_t pos_hi, std::int64_t* positive,
                  double* max_activation) {
  for (std::int64_t pos = pos_lo; pos < pos_hi; ++pos) {
    double activation = bias;
    for (std::int64_t c = 0; c < num_channels; ++c) {
      const double* w = weights + c * length;
      const double* x = channels[c] + pos;
      for (std::int64_t tap = 0; tap < length; ++tap) {
        activation += w[tap] * x[tap * dilation];
      }
    }
    if (activation > 0.0) ++*positive;
    *max_activation = std::max(*max_activation, activation);
  }
}

// --- distance kernels -------------------------------------------------------

void SquaredDistRow(const double* const* a_channels,
                    const double* const* b_channels, std::int64_t num_channels,
                    std::int64_t ai, std::int64_t j_lo, std::int64_t j_hi,
                    double* out) {
  for (std::int64_t j = j_lo; j < j_hi; ++j) {
    double cost = 0.0;
    for (std::int64_t c = 0; c < num_channels; ++c) {
      const double diff = a_channels[c][ai] - b_channels[c][j];
      cost += diff * diff;
    }
    out[j - j_lo] = cost;
  }
}

double SquaredDiffSum(const double* a, const double* b, std::int64_t n) {
  // Lane-blocked semantics shared with the SIMD backend: four strided
  // partials over the 4-aligned prefix, folded in lane order, then a
  // sequential tail.
  const std::int64_t n4 = n & ~std::int64_t{3};
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  for (std::int64_t i = 0; i < n4; i += 4) {
    const double d0 = a[i] - b[i];
    const double d1 = a[i + 1] - b[i + 1];
    const double d2 = a[i + 2] - b[i + 2];
    const double d3 = a[i + 3] - b[i + 3];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  double total = ((s0 + s1) + s2) + s3;
  for (std::int64_t i = n4; i < n; ++i) {
    const double d = a[i] - b[i];
    total += d * d;
  }
  return total;
}

// --- elementwise entry points -----------------------------------------------

void EwAddAcc(const double* g, double* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] += g[i];
}

void EwRelu(const double* x, double* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] = x[i] > 0.0 ? x[i] : 0.0;
}

void EwReluBwdAcc(const double* g, const double* x, double* y,
                  std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] += g[i] * (x[i] > 0.0 ? 1.0 : 0.0);
}

constexpr KernelTable kScalarTable = {
    RowPanelMatMul, DotPanel,       RotateRows, RocketPpvMax, SquaredDistRow,
    SquaredDiffSum, EwAddAcc,       EwRelu,     EwReluBwdAcc,
};

}  // namespace

const KernelTable& ScalarKernels() { return kScalarTable; }

}  // namespace tsaug::core::kernels
