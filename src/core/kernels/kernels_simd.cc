// AVX2 implementations of the kernel seam (src/core/kernels/kernels.h):
// the six dense kernels and the three elementwise passes of InceptionTime's
// hot loop, each written directly in intrinsics.
//
// Compiled with -mavx2 when the toolchain supports it (TSAUG_SIMD=ON);
// otherwise — or on non-x86 targets — this TU degrades to a stub whose
// SimdKernels() returns nullptr and dispatch stays on the scalar table.
// Runtime entry is additionally gated on __builtin_cpu_supports("avx2"),
// so no AVX instruction can execute on an unsupporting CPU.
//
// Bitwise-parity strategy (the invariant backend_parity_test enforces):
// vectorise across INDEPENDENT OUTPUTS — convolution positions, output
// columns, panel rows, elements — and keep each output's reduction in the
// scalar reference's sequential order. Per-element +,-,* round identically
// in vector and scalar form (and -ffp-contract=off forbids the compiler
// from fusing a mul+add into an FMA in one backend only), so equal
// operation order means equal bits; each vector loop's tail is the scalar
// reference loop itself. The two lane-blocked reductions
// (squared_diff_sum, the rocket max fold) follow the fixed order
// documented in kernels.h, which the scalar reference implements too.

#include "core/kernels/kernels.h"

#if defined(__AVX2__) && defined(__x86_64__)

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <limits>

namespace tsaug::core::kernels {
namespace {

// --- MatMul family ----------------------------------------------------------

/// c[j] gains the four products in ascending group order — identical
/// per-element rounding sequence to four scalar saxpy passes.
void Axpy4Rows(const double a[4], const double* const b[4], double* c,
               std::int64_t n) {
  const __m256d a0 = _mm256_set1_pd(a[0]);
  const __m256d a1 = _mm256_set1_pd(a[1]);
  const __m256d a2 = _mm256_set1_pd(a[2]);
  const __m256d a3 = _mm256_set1_pd(a[3]);
  std::int64_t j = 0;
  for (; j + 4 <= n; j += 4) {
    __m256d acc = _mm256_loadu_pd(c + j);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(a0, _mm256_loadu_pd(b[0] + j)));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(a1, _mm256_loadu_pd(b[1] + j)));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(a2, _mm256_loadu_pd(b[2] + j)));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(a3, _mm256_loadu_pd(b[3] + j)));
    _mm256_storeu_pd(c + j, acc);
  }
  for (; j < n; ++j) {
    double acc = c[j];
    acc += a[0] * b[0][j];
    acc += a[1] * b[1][j];
    acc += a[2] * b[2][j];
    acc += a[3] * b[3][j];
    c[j] = acc;
  }
}

void Axpy1Row(double a, const double* b, double* c, std::int64_t n) {
  const __m256d av = _mm256_set1_pd(a);
  std::int64_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d acc = _mm256_add_pd(
        _mm256_loadu_pd(c + j), _mm256_mul_pd(av, _mm256_loadu_pd(b + j)));
    _mm256_storeu_pd(c + j, acc);
  }
  for (; j < n; ++j) c[j] += a * b[j];
}

void RowPanelMatMul(const double* a, std::int64_t a_stride, std::int64_t k,
                    const double* b, std::int64_t ldb, double* c,
                    std::int64_t n) {
  // Group nonzero multipliers four at a time: per output element the adds
  // land in ascending nonzero-t order, exactly as the scalar reference's
  // one-row-at-a-time loop (grouping fuses loops, not arithmetic), while
  // the c row is read/written once per four panels instead of once each.
  double av[4];
  const double* bp[4];
  int count = 0;
  for (std::int64_t t = 0; t < k; ++t) {
    const double at = a[t * a_stride];
    if (at == 0.0) continue;
    av[count] = at;
    bp[count] = b + t * ldb;
    if (++count == 4) {
      Axpy4Rows(av, bp, c, n);
      count = 0;
    }
  }
  for (int r = 0; r < count; ++r) Axpy1Row(av[r], bp[r], c, n);
}

/// Transposes four row-registers so lane l of output i holds row l's
/// element (k+i). Pure data movement: no rounding anywhere.
void Transpose4x4(__m256d r0, __m256d r1, __m256d r2, __m256d r3,
                  __m256d* v0, __m256d* v1, __m256d* v2, __m256d* v3) {
  const __m256d t0 = _mm256_unpacklo_pd(r0, r1);
  const __m256d t1 = _mm256_unpackhi_pd(r0, r1);
  const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
  const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
  *v0 = _mm256_permute2f128_pd(t0, t2, 0x20);
  *v1 = _mm256_permute2f128_pd(t1, t3, 0x20);
  *v2 = _mm256_permute2f128_pd(t0, t2, 0x31);
  *v3 = _mm256_permute2f128_pd(t1, t3, 0x31);
}

/// One a row against `rows` b rows: four b rows share one accumulator
/// register, and each lane's sum runs in ascending-t order from +0.0,
/// matching the scalar reference dot per row.
[[gnu::noinline]] void DotRow(const double* a, const double* b,
                              std::int64_t ldb, std::int64_t rows,
                              std::int64_t n, double* out) {
  std::int64_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const double* b0 = b + r * ldb;
    const double* b1 = b0 + ldb;
    const double* b2 = b1 + ldb;
    const double* b3 = b2 + ldb;
    __m256d acc = _mm256_setzero_pd();
    std::int64_t t = 0;
    for (; t + 4 <= n; t += 4) {
      __m256d v0, v1, v2, v3;
      Transpose4x4(_mm256_loadu_pd(b0 + t), _mm256_loadu_pd(b1 + t),
                   _mm256_loadu_pd(b2 + t), _mm256_loadu_pd(b3 + t),
                   &v0, &v1, &v2, &v3);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(a[t]), v0));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(a[t + 1]), v1));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(a[t + 2]), v2));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(a[t + 3]), v3));
    }
    for (; t < n; ++t) {
      const __m256d v = _mm256_set_pd(b3[t], b2[t], b1[t], b0[t]);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(a[t]), v));
    }
    _mm256_storeu_pd(out + r, acc);
  }
  for (; r < rows; ++r) {
    const double* br = b + r * ldb;
    double sum = 0.0;
    for (std::int64_t t = 0; t < n; ++t) sum += a[t] * br[t];
    out[r] = sum;
  }
}

/// Four a rows against four b rows: each 4x4 block of b is transposed
/// once and multiplied into four independent accumulators, one per a row.
/// Lane l of acc[i] adds a_i[t] * b_l[t] in ascending-t order from +0.0,
/// the sequence DotRow and the scalar reference run for (a_i, b_l).
void DotTile4x4(const double* a, std::int64_t lda, const double* b,
                std::int64_t ldb, std::int64_t n, double* out,
                std::int64_t ldo) {
  const double* ar[4] = {a, a + lda, a + 2 * lda, a + 3 * lda};
  const double* b0 = b;
  const double* b1 = b0 + ldb;
  const double* b2 = b1 + ldb;
  const double* b3 = b2 + ldb;
  __m256d acc[4] = {_mm256_setzero_pd(), _mm256_setzero_pd(),
                    _mm256_setzero_pd(), _mm256_setzero_pd()};
  std::int64_t t = 0;
  for (; t + 4 <= n; t += 4) {
    __m256d v[4];
    Transpose4x4(_mm256_loadu_pd(b0 + t), _mm256_loadu_pd(b1 + t),
                 _mm256_loadu_pd(b2 + t), _mm256_loadu_pd(b3 + t),
                 &v[0], &v[1], &v[2], &v[3]);
    for (int k = 0; k < 4; ++k) {
      for (int i = 0; i < 4; ++i) {
        acc[i] = _mm256_add_pd(
            acc[i], _mm256_mul_pd(_mm256_set1_pd(ar[i][t + k]), v[k]));
      }
    }
  }
  for (; t < n; ++t) {
    const __m256d v = _mm256_set_pd(b3[t], b2[t], b1[t], b0[t]);
    for (int i = 0; i < 4; ++i) {
      acc[i] = _mm256_add_pd(acc[i],
                             _mm256_mul_pd(_mm256_set1_pd(ar[i][t]), v));
    }
  }
  for (int i = 0; i < 4; ++i) _mm256_storeu_pd(out + i * ldo, acc[i]);
}

/// The tile form for a_rows > 1: 4x4 tiles over four a rows at a time,
/// DotRow for the last rows % 4 b rows and the last a_rows % 4 a rows.
[[gnu::noinline]] void DotTiles(const double* a, std::int64_t lda,
                                std::int64_t a_rows, const double* b,
                                std::int64_t ldb, std::int64_t rows,
                                std::int64_t n, double* out,
                                std::int64_t ldo) {
  std::int64_t i = 0;
  for (; i + 4 <= a_rows; i += 4) {
    std::int64_t r = 0;
    for (; r + 4 <= rows; r += 4) {
      DotTile4x4(a + i * lda, lda, b + r * ldb, ldb, n, out + i * ldo + r,
                 ldo);
    }
    for (std::int64_t ii = i; ii < i + 4; ++ii) {
      DotRow(a + ii * lda, b + r * ldb, ldb, rows - r, n, out + ii * ldo + r);
    }
  }
  for (; i < a_rows; ++i) DotRow(a + i * lda, b, ldb, rows, n, out + i * ldo);
}

// One a row is Conv1dSame's dW call, short and frequent: it tail-calls
// DotRow with no tile bookkeeping (or its register saves) in front.
void DotPanel(const double* a, std::int64_t lda, std::int64_t a_rows,
              const double* b, std::int64_t ldb, std::int64_t rows,
              std::int64_t n, double* out, std::int64_t ldo) {
  if (a_rows == 1) return DotRow(a, b, ldb, rows, n, out);
  DotTiles(a, lda, a_rows, b, ldb, rows, n, out, ldo);
}

void RotateRows(double c, double s, double* x, double* y, std::int64_t n) {
  const __m256d cv = _mm256_set1_pd(c);
  const __m256d sv = _mm256_set1_pd(s);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d xv = _mm256_loadu_pd(x + i);
    const __m256d yv = _mm256_loadu_pd(y + i);
    _mm256_storeu_pd(x + i, _mm256_sub_pd(_mm256_mul_pd(cv, xv),
                                          _mm256_mul_pd(sv, yv)));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_mul_pd(sv, xv),
                                          _mm256_mul_pd(cv, yv)));
  }
  for (; i < n; ++i) {
    const double xi = x[i];
    const double yi = y[i];
    x[i] = c * xi - s * yi;
    y[i] = s * xi + c * yi;
  }
}

// --- ROCKET convolution + PPV/max -------------------------------------------

/// kRegs registers of four consecutive positions each, from `pos`: every
/// weight is broadcast once and multiplied into each register's load, so
/// the kRegs add chains run side by side while each lane still adds its
/// (channel, tap) products in the scalar reference's order. The registers
/// then join the positive count and the running lane maxima in ascending
/// position order, the same max_pd sequence as one register at a time.
template <std::size_t kRegs>
void RocketBlock(const double* const* channels, std::int64_t num_channels,
                 const double* weights, std::int64_t length,
                 std::int64_t dilation, double bias, std::int64_t pos,
                 std::int64_t* pos_count, __m256d* vmax) {
  __m256d act[kRegs];
  for (std::size_t r = 0; r < kRegs; ++r) act[r] = _mm256_set1_pd(bias);
  for (std::int64_t c = 0; c < num_channels; ++c) {
    const double* w = weights + c * length;
    const double* x = channels[c] + pos;
    for (std::int64_t tap = 0; tap < length; ++tap) {
      const __m256d wv = _mm256_set1_pd(w[tap]);
      const double* xt = x + tap * dilation;
      for (std::size_t r = 0; r < kRegs; ++r) {
        act[r] = _mm256_add_pd(
            act[r], _mm256_mul_pd(wv, _mm256_loadu_pd(xt + 4 * r)));
      }
    }
  }
  const __m256d zero = _mm256_setzero_pd();
  for (std::size_t r = 0; r < kRegs; ++r) {
    const int gt =
        _mm256_movemask_pd(_mm256_cmp_pd(act[r], zero, _CMP_GT_OQ));
    *pos_count += __builtin_popcount(static_cast<unsigned>(gt));
    *vmax = _mm256_max_pd(*vmax, act[r]);
  }
}

void RocketPpvMax(const double* const* channels, std::int64_t num_channels,
                  const double* weights, std::int64_t length,
                  std::int64_t dilation, double bias, std::int64_t pos_lo,
                  std::int64_t pos_hi, std::int64_t* positive,
                  double* max_activation) {
  std::int64_t pos = pos_lo;
  std::int64_t pos_count = 0;
  __m256d vmax = _mm256_set1_pd(-std::numeric_limits<double>::infinity());
  // Four consecutive positions per register (stride 1 in pos, so one
  // unaligned load per tap): 16-position blocks keep four independent add
  // chains in flight, then at most one 8- and one 4-position block.
  for (; pos + 16 <= pos_hi; pos += 16) {
    RocketBlock<4>(channels, num_channels, weights, length, dilation, bias,
                   pos, &pos_count, &vmax);
  }
  if (pos + 8 <= pos_hi) {
    RocketBlock<2>(channels, num_channels, weights, length, dilation, bias,
                   pos, &pos_count, &vmax);
    pos += 8;
  }
  if (pos + 4 <= pos_hi) {
    RocketBlock<1>(channels, num_channels, weights, length, dilation, bias,
                   pos, &pos_count, &vmax);
    pos += 4;
  }
  // Fold the lane maxima in lane order, then finish the tail positions
  // with the scalar reference loop (same fold the scalar backend applies
  // position-by-position; max over finite activations is
  // order-insensitive).
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, vmax);
  double maxv = *max_activation;
  maxv = std::max(maxv, lanes[0]);
  maxv = std::max(maxv, lanes[1]);
  maxv = std::max(maxv, lanes[2]);
  maxv = std::max(maxv, lanes[3]);
  for (; pos < pos_hi; ++pos) {
    double activation = bias;
    for (std::int64_t c = 0; c < num_channels; ++c) {
      const double* w = weights + c * length;
      const double* x = channels[c] + pos;
      for (std::int64_t tap = 0; tap < length; ++tap) {
        activation += w[tap] * x[tap * dilation];
      }
    }
    if (activation > 0.0) ++pos_count;
    maxv = std::max(maxv, activation);
  }
  *positive += pos_count;
  *max_activation = maxv;
}

// --- distance kernels -------------------------------------------------------

void SquaredDistRow(const double* const* a_channels,
                    const double* const* b_channels, std::int64_t num_channels,
                    std::int64_t ai, std::int64_t j_lo, std::int64_t j_hi,
                    double* out) {
  std::int64_t j = j_lo;
  for (; j + 4 <= j_hi; j += 4) {
    __m256d cost = _mm256_setzero_pd();
    for (std::int64_t c = 0; c < num_channels; ++c) {
      const __m256d av = _mm256_set1_pd(a_channels[c][ai]);
      const __m256d bv = _mm256_loadu_pd(b_channels[c] + j);
      const __m256d d = _mm256_sub_pd(av, bv);
      cost = _mm256_add_pd(cost, _mm256_mul_pd(d, d));
    }
    _mm256_storeu_pd(out + (j - j_lo), cost);
  }
  for (; j < j_hi; ++j) {
    double cost = 0.0;
    for (std::int64_t c = 0; c < num_channels; ++c) {
      const double diff = a_channels[c][ai] - b_channels[c][j];
      cost += diff * diff;
    }
    out[j - j_lo] = cost;
  }
}

double SquaredDiffSum(const double* a, const double* b, std::int64_t n) {
  const std::int64_t n4 = n & ~std::int64_t{3};
  __m256d acc = _mm256_setzero_pd();
  for (std::int64_t i = 0; i < n4; i += 4) {
    const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(a + i),
                                    _mm256_loadu_pd(b + i));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  // ((s0+s1)+s2)+s3 — the exact lane fold the scalar reference uses.
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double total = ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
  for (std::int64_t i = n4; i < n; ++i) {
    const double d = a[i] - b[i];
    total += d * d;
  }
  return total;
}

// --- elementwise entry points -----------------------------------------------

// When both addends are NaN, x86 returns the NaN of the first source
// operand. The scalar table keeps the accumulator y in the destination
// register, so y's NaN wins there, but GCC is free to fold the y load into
// vaddpd's second (memory) source instead, and does. These adds pin y as
// the first source; the addend may still come straight from memory, so a
// vector costs no extra instruction.
__m256d AddToAccumulator(__m256d y, __m256d addend) {
  __m256d sum;
  asm("vaddpd %2, %1, %0" : "=x"(sum) : "x"(y), "xm"(addend));
  return sum;
}

double AddToAccumulator(double y, double addend) {
  double sum;
  asm("vaddsd %2, %1, %0" : "=x"(sum) : "x"(y), "xm"(addend));
  return sum;
}

void EwAddAcc(const double* g, double* y, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(y + i, AddToAccumulator(_mm256_loadu_pd(y + i),
                                             _mm256_loadu_pd(g + i)));
  }
  for (; i < n; ++i) y[i] = AddToAccumulator(y[i], g[i]);
}

/// x > 0 ? x : +0.0 per lane: the ordered compare is false for NaN and
/// -0.0, so the mask maps both to +0.0 exactly like the scalar ternary.
void EwRelu(const double* x, double* y, std::int64_t n) {
  const __m256d zero = _mm256_setzero_pd();
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d xv = _mm256_loadu_pd(x + i);
    _mm256_storeu_pd(
        y + i, _mm256_and_pd(_mm256_cmp_pd(xv, zero, _CMP_GT_OQ), xv));
  }
  for (; i < n; ++i) y[i] = x[i] > 0.0 ? x[i] : 0.0;
}

/// The same compare mask picks 1.0 or +0.0, and g multiplies it as in the
/// scalar loop. The mask is written 0 < x so the x load folds into the
/// compare, which pays for the y load the pinned add needs.
void EwReluBwdAcc(const double* g, const double* x, double* y,
                  std::int64_t n) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d mask =
        _mm256_cmp_pd(zero, _mm256_loadu_pd(x + i), _CMP_LT_OQ);
    const __m256d dy =
        _mm256_mul_pd(_mm256_loadu_pd(g + i), _mm256_and_pd(mask, one));
    _mm256_storeu_pd(y + i, AddToAccumulator(_mm256_loadu_pd(y + i), dy));
  }
  for (; i < n; ++i) {
    y[i] = AddToAccumulator(y[i], g[i] * (x[i] > 0.0 ? 1.0 : 0.0));
  }
}

constexpr KernelTable kSimdTable = {
    RowPanelMatMul, DotPanel,       RotateRows, RocketPpvMax, SquaredDistRow,
    SquaredDiffSum, EwAddAcc,       EwRelu,     EwReluBwdAcc,
};

}  // namespace

const KernelTable* SimdKernels() {
  return __builtin_cpu_supports("avx2") ? &kSimdTable : nullptr;
}

}  // namespace tsaug::core::kernels

#else  // !(__AVX2__ && __x86_64__)

namespace tsaug::core::kernels {

// SIMD backend not compiled in (TSAUG_SIMD=OFF, unsupported compiler, or
// non-x86 target): dispatch falls back to the scalar reference table.
const KernelTable* SimdKernels() { return nullptr; }

}  // namespace tsaug::core::kernels

#endif
