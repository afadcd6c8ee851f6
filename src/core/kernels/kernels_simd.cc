// AVX2 implementations of the kernel seam (src/core/kernels/kernels.h).
//
// Compiled with -mavx2 when the toolchain supports it (TSAUG_SIMD=ON);
// otherwise — or on non-x86 targets — this TU degrades to a stub whose
// SimdKernels() returns nullptr and dispatch stays on the scalar table.
// Runtime entry is additionally gated on __builtin_cpu_supports("avx2"),
// so no AVX instruction can execute on an unsupporting CPU.
//
// Bitwise-parity strategy (the invariant backend_parity_test enforces):
// vectorise across INDEPENDENT OUTPUTS — convolution positions, output
// columns, panel rows — and keep each output's reduction in the scalar
// reference's sequential order. Per-element +,-,* round identically in
// vector and scalar form (and -ffp-contract=off forbids the compiler from
// fusing a mul+add into an FMA in one backend only), so equal operation
// order means equal bits. The two lane-blocked reductions
// (squared_diff_sum, the rocket max fold) follow the fixed order
// documented in kernels.h, which the scalar reference implements too.

#include "core/kernels/kernels.h"

#if defined(__AVX2__) && defined(__x86_64__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

#include "core/kernels/ew_functors.h"

namespace tsaug::core::kernels {
namespace {

/// Four packed doubles with value-semantics operators, so one functor
/// template from ew_functors.h instantiates this backend the same way it
/// instantiates the scalar one (V = double there, V = Vec4d here).
struct Vec4d {
  __m256d v;

  Vec4d(__m256d raw) : v(raw) {}  // NOLINT(google-explicit-constructor)
  explicit Vec4d(double s) : v(_mm256_set1_pd(s)) {}

  static Vec4d Load(const double* p) { return Vec4d(_mm256_loadu_pd(p)); }
  void Store(double* p) const { _mm256_storeu_pd(p, v); }

  /// 1.0 where the lane is > 0.0, else +0.0 — the relu-backward indicator.
  static Vec4d GreaterThanZeroMask01(const Vec4d& x) {
    const __m256d mask = _mm256_cmp_pd(x.v, _mm256_setzero_pd(), _CMP_GT_OQ);
    return Vec4d(_mm256_and_pd(mask, _mm256_set1_pd(1.0)));
  }

  friend Vec4d operator+(const Vec4d& a, const Vec4d& b) {
    return Vec4d(_mm256_add_pd(a.v, b.v));
  }
  friend Vec4d operator-(const Vec4d& a, const Vec4d& b) {
    return Vec4d(_mm256_sub_pd(a.v, b.v));
  }
  friend Vec4d operator*(const Vec4d& a, const Vec4d& b) {
    return Vec4d(_mm256_mul_pd(a.v, b.v));
  }
};

/// x > 0 ? x : +0.0 per lane (the relu forward; the cmp mask maps NaN and
/// -0.0 to +0.0 exactly like the scalar ternary).
Vec4d EwMax0(const Vec4d& x) {
  const __m256d mask = _mm256_cmp_pd(x.v, _mm256_setzero_pd(), _CMP_GT_OQ);
  return Vec4d(_mm256_and_pd(mask, x.v));
}

// --- elementwise map loops (vector body + scalar tail; both instantiate
// --- the same functor, so the tail matches the scalar backend exactly) ---

template <typename Op>
void MapUnary(const Op& op, const double* x, double* y, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) op(Vec4d::Load(x + i)).Store(y + i);
  for (; i < n; ++i) y[i] = op(x[i]);
}

template <typename Op>
void MapUnaryAcc(const Op& op, const double* x, double* y, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    (Vec4d::Load(y + i) + op(Vec4d::Load(x + i))).Store(y + i);
  }
  for (; i < n; ++i) y[i] += op(x[i]);
}

template <typename Op>
void MapBinary(const Op& op, const double* a, const double* b, double* y,
               std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    op(Vec4d::Load(a + i), Vec4d::Load(b + i)).Store(y + i);
  }
  for (; i < n; ++i) y[i] = op(a[i], b[i]);
}

template <typename Op>
void MapBinaryAcc(const Op& op, const double* a, const double* b, double* y,
                  std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    (Vec4d::Load(y + i) + op(Vec4d::Load(a + i), Vec4d::Load(b + i)))
        .Store(y + i);
  }
  for (; i < n; ++i) y[i] += op(a[i], b[i]);
}

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

void DotPanel(const double* a, const double* b, std::int64_t ldb,
              std::int64_t rows, std::int64_t n, double* out) {
  std::int64_t r = 0;
  // Four output rows share one accumulator register; each lane's sum runs
  // in ascending-t order, matching the scalar reference dot per row.
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

void RocketPpvMax(const double* const* channels, std::int64_t num_channels,
                  const double* weights, std::int64_t length,
                  std::int64_t dilation, double bias, std::int64_t pos_lo,
                  std::int64_t pos_hi, std::int64_t* positive,
                  double* max_activation) {
  const __m256d zero = _mm256_setzero_pd();
  std::int64_t pos = pos_lo;
  std::int64_t pos_count = 0;
  __m256d vmax = _mm256_set1_pd(-std::numeric_limits<double>::infinity());
  // Four consecutive positions per register: each lane's activation adds
  // its (channel, tap) products in the scalar reference's order, and four
  // positions' tap loads are one unaligned vector load (stride 1 in pos).
  for (; pos + 4 <= pos_hi; pos += 4) {
    __m256d act = _mm256_set1_pd(bias);
    for (std::int64_t c = 0; c < num_channels; ++c) {
      const double* w = weights + c * length;
      const double* x = channels[c] + pos;
      for (std::int64_t tap = 0; tap < length; ++tap) {
        act = _mm256_add_pd(
            act, _mm256_mul_pd(_mm256_set1_pd(w[tap]),
                               _mm256_loadu_pd(x + tap * dilation)));
      }
    }
    const int gt = _mm256_movemask_pd(_mm256_cmp_pd(act, zero, _CMP_GT_OQ));
    pos_count += __builtin_popcount(static_cast<unsigned>(gt));
    vmax = _mm256_max_pd(vmax, act);
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

void EwScale(double s, const double* x, double* y, std::int64_t n) {
  MapUnary(ScaleOp{s}, x, y, n);
}
void EwAddConst(double c, const double* x, double* y, std::int64_t n) {
  MapUnary(AddConstOp{c}, x, y, n);
}
void EwOneMinus(const double* x, double* y, std::int64_t n) {
  MapUnary(OneMinusOp{}, x, y, n);
}
void EwRelu(const double* x, double* y, std::int64_t n) {
  MapUnary(ReluOp{}, x, y, n);
}
void EwMul(const double* x, const double* y, double* z, std::int64_t n) {
  MapBinary(MulOp{}, x, y, z, n);
}
void EwMulAcc(const double* x, const double* y, double* z, std::int64_t n) {
  MapBinaryAcc(MulOp{}, x, y, z, n);
}
void EwAddAcc(const double* g, double* y, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), _mm256_loadu_pd(g + i)));
  }
  for (; i < n; ++i) y[i] += g[i];
}
void EwSubAcc(const double* g, double* y, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_sub_pd(_mm256_loadu_pd(y + i), _mm256_loadu_pd(g + i)));
  }
  for (; i < n; ++i) y[i] -= g[i];
}
void EwScaleAcc(double s, const double* g, double* y, std::int64_t n) {
  MapUnaryAcc(ScaleGradOp{s}, g, y, n);
}
void EwReluBwdAcc(const double* g, const double* x, double* y,
                  std::int64_t n) {
  MapBinaryAcc(ReluBwdOp{}, g, x, y, n);
}
void EwTanhBwdAcc(const double* g, const double* yv, double* y,
                  std::int64_t n) {
  MapBinaryAcc(TanhBwdOp{}, g, yv, y, n);
}
void EwSigmoidBwdAcc(const double* g, const double* yv, double* y,
                     std::int64_t n) {
  MapBinaryAcc(SigmoidBwdOp{}, g, yv, y, n);
}
void EwTanhBwd(const double* g, const double* yv, double* z, std::int64_t n) {
  MapBinary(TanhBwdOp{}, g, yv, z, n);
}
void EwSigmoidBwd(const double* g, const double* yv, double* z,
                  std::int64_t n) {
  MapBinary(SigmoidBwdOp{}, g, yv, z, n);
}

void EwAdd3Tanh(const double* a, const double* b, const double* bias,
                double* y, std::int64_t n) {
  // Vectorise the adds, keep tanh a scalar libm call per lane: the sums
  // are bitwise those of the scalar backend, and so are the tanh results.
  alignas(32) double pre[4];
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d sum = _mm256_add_pd(
        _mm256_add_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)),
        _mm256_loadu_pd(bias + i));
    _mm256_store_pd(pre, sum);
    y[i] = std::tanh(pre[0]);
    y[i + 1] = std::tanh(pre[1]);
    y[i + 2] = std::tanh(pre[2]);
    y[i + 3] = std::tanh(pre[3]);
  }
  for (; i < n; ++i) y[i] = std::tanh((a[i] + b[i]) + bias[i]);
}

void EwAdd3Sigmoid(const double* a, const double* b, const double* bias,
                   double* y, std::int64_t n) {
  alignas(32) double pre[4];
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d sum = _mm256_add_pd(
        _mm256_add_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)),
        _mm256_loadu_pd(bias + i));
    _mm256_store_pd(pre, sum);
    y[i] = StableSigmoid(pre[0]);
    y[i + 1] = StableSigmoid(pre[1]);
    y[i + 2] = StableSigmoid(pre[2]);
    y[i + 3] = StableSigmoid(pre[3]);
  }
  for (; i < n; ++i) y[i] = StableSigmoid((a[i] + b[i]) + bias[i]);
}

constexpr KernelTable kSimdTable = {
    RowPanelMatMul, DotPanel,        RotateRows,    RocketPpvMax,
    SquaredDistRow, SquaredDiffSum,  EwScale,       EwAddConst,
    EwOneMinus,     EwRelu,          EwMul,         EwMulAcc,
    EwAddAcc,       EwSubAcc,        EwScaleAcc,    EwReluBwdAcc,
    EwTanhBwdAcc,   EwSigmoidBwdAcc, EwTanhBwd,     EwSigmoidBwd,
    EwAdd3Tanh,     EwAdd3Sigmoid,
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
