#ifndef TSAUG_CORE_KERNELS_KERNELS_H_
#define TSAUG_CORE_KERNELS_KERNELS_H_

#include <cstdint>

namespace tsaug::core::kernels {

/// Runtime-dispatched implementations of the repo's dense inner loops.
///
/// This is the op/OpImpl seam (in the cavs style): each hot-loop
/// *definition* lives at its call site (ROCKET transform, the MatMul
/// family and the ridge Gram, the ridge eigensolver, Conv1dSame, the
/// distance kernels, and InceptionTime's residual Add and ReLU) and names
/// one entry below; the *implementations* live in kernels_scalar.cc
/// (portable reference) and kernels_simd.cc (AVX2), selected once per
/// process via `TSAUG_BACKEND=scalar|simd` or CPU auto-detection
/// (default: the fastest available).
///
/// An entry is here only because a benchmark workload runs measurably
/// faster with its SIMD form than with a plain loop. Every other
/// elementwise pass (the GRU gates, Sub, Mul, the scalar ops) is a plain
/// loop in its op in nn/ops.cc, where no workload measured slower
/// (DESIGN.md, "Kernel backends").
///
/// Determinism contract: the scalar table is the bitwise reference, and
/// every SIMD entry must produce bitwise-identical results. The seam
/// guarantees this by construction: kernels vectorise across *independent
/// outputs* (convolution positions, output columns, matrix rows) and keep
/// each output's reduction in its original sequential order; the two
/// reduction-order-sensitive entries (`squared_diff_sum` and the lane
/// reduction in `rocket_ppv_max`) fix one lane-blocked order that both
/// backends implement. No implementation may use FMA contraction the
/// other does not (the build passes -ffp-contract=off). ParallelFor
/// chunking, StopToken polls and trace scopes stay at the call sites
/// above this seam, so backend choice composes with the existing
/// parallel-determinism discipline.
///
/// All pointers reference contiguous double buffers (Matrix/Tensor rows,
/// TimeSeries channels). Buffers come from 64-byte-aligned storage
/// (core/aligned.h) but kernels use unaligned loads: row starts at
/// arbitrary column counts are not 64-byte aligned.
struct KernelTable {
  /// c[0..n) += sum over t in [0, k) with a[t*a_stride] != 0 of
  /// a[t*a_stride] * b[t*ldb + j], accumulating per element in ascending-t
  /// order and skipping zero multipliers (the MatMul family's saxpy-style
  /// panel: C-row += A-row * B). `ldb` may be zero or negative: the panel
  /// rows b + t*ldb are only read, so Conv1dSame passes its taps as rows
  /// of one padded input row (ldb = dilation, and -dilation for dX), and a
  /// one-multiplier call (k = 1) is a plain y += a * x.
  void (*row_panel_matmul)(const double* a, std::int64_t a_stride,
                           std::int64_t k, const double* b, std::int64_t ldb,
                           double* c, std::int64_t n);

  /// out[i*ldo + r] = sum over t in [0, n) of a[i*lda + t] * b[r*ldb + t]
  /// for i in [0, a_rows) and r in [0, rows), each sum from +0.0 in
  /// ascending-t order (dot-style panel). The b rows may overlap
  /// (ldb < n): they are only read, so Conv1dSame's dW passes its taps as
  /// rows of one padded input row (ldb = dilation, a_rows = 1; lda and ldo
  /// are then unused). With a_rows > 1 this is a tile of A B^T, the form
  /// `linalg::Gram` uses: the SIMD body transposes each 4x4 block of b
  /// once and reuses it for four a rows, one accumulator per a row, so
  /// every lane still sums its products in ascending-t order.
  void (*dot_panel)(const double* a, std::int64_t lda, std::int64_t a_rows,
                    const double* b, std::int64_t ldb, std::int64_t rows,
                    std::int64_t n, double* out, std::int64_t ldo);

  /// Plane rotation of two rows: for i in [0, n), with x = x[i] and
  /// y = y[i], x[i] = c*x - s*y and y[i] = s*x + c*y (the eigensolver's
  /// QL update of two eigenvector columns, stored as rows of V^T).
  /// Per-element, no reduction.
  void (*rotate_rows)(double c, double s, double* x, double* y,
                      std::int64_t n);

  /// ROCKET convolution + PPV/max feature accumulation over positions
  /// [pos_lo, pos_hi); every tap channels[c][pos + tap*dilation] must be
  /// readable (the caller zero-pads the series). Per position:
  ///   act = bias; for c: for tap: act += w[c*length+tap] *
  ///                                       channels[c][pos+tap*dilation]
  /// then ++*positive when act > 0, and *max_activation folds act in.
  /// The max fold is lane-blocked: order-insensitive for the finite
  /// activations this kernel sees, and both backends use the same order.
  /// The SIMD body runs 16-position blocks (four registers side by side,
  /// each weight broadcast once for all four loads), then one 8- and one
  /// 4-position block, then the scalar tail; its registers join the count
  /// and the max fold in ascending position order.
  void (*rocket_ppv_max)(const double* const* channels,
                         std::int64_t num_channels, const double* weights,
                         std::int64_t length, std::int64_t dilation,
                         double bias, std::int64_t pos_lo, std::int64_t pos_hi,
                         std::int64_t* positive, double* max_activation);

  /// out[j - j_lo] = sum over c of (a[c][ai] - b[c][j])^2 for j in
  /// [j_lo, j_hi), each cell's channel sum in ascending-c order (the DTW
  /// band's local-cost row).
  void (*squared_dist_row)(const double* const* a_channels,
                           const double* const* b_channels,
                           std::int64_t num_channels, std::int64_t ai,
                           std::int64_t j_lo, std::int64_t j_hi, double* out);

  /// Lane-blocked squared-Euclidean reduction: with n4 = n & ~3, lane l
  /// accumulates (a[i]-b[i])^2 over i in {l, l+4, ...} < n4; the result is
  /// ((s0+s1)+s2)+s3 plus a sequential tail over [n4, n). Both backends
  /// implement exactly this order.
  double (*squared_diff_sum)(const double* a, const double* b,
                             std::int64_t n);

  // Elementwise passes of the InceptionTime hot loop. No reductions:
  // per-element arithmetic rounds identically in both backends. The *_acc
  // forms accumulate (y += ...), the autograd gradient convention.

  /// y[i] += g[i] (the residual Add and Conv1dSame's dW tap sums).
  void (*ew_add_acc)(const double* g, double* y, std::int64_t n);
  /// y[i] = x[i] > 0 ? x[i] : +0.0.
  void (*ew_relu)(const double* x, double* y, std::int64_t n);
  /// y[i] += g[i] * (x[i] > 0 ? 1.0 : 0.0), the multiply kept (g * 0.0
  /// is -0.0 for negative g and NaN for infinite g, unlike selecting g).
  void (*ew_relu_bwd_acc)(const double* g, const double* x, double* y,
                          std::int64_t n);
};

enum class Backend {
  kScalar,  ///< Portable reference implementations (the determinism oracle).
  kSimd,    ///< AVX2 implementations, bitwise-identical to scalar.
};

/// The table for the active backend. Resolved once per process from
/// `TSAUG_BACKEND` ("scalar" | "simd"; anything else / unset means
/// auto-detect) on first use; `SetBackend` overrides it at runtime.
const KernelTable& Active();

/// The backend `Active()` dispatches to.
Backend ActiveBackend();

/// Overrides the backend at runtime (tests / benchmarks / A-B runs).
/// Requesting kSimd when unavailable falls back to kScalar and returns
/// the backend actually installed. Concurrent SetBackend/ActiveBackend
/// calls are data-race-free (one atomic backend word) — but a kernel
/// already dispatched keeps running on the table it grabbed, so switch
/// only between workloads when bitwise output identity matters.
Backend SetBackend(Backend backend);

/// How a TSAUG_BACKEND value resolves.
enum class BackendSpec {
  kForceScalar,  ///< "scalar": always the portable reference table
  kForceSimd,    ///< "simd": the AVX2 table (scalar + stderr note if absent)
  kAuto,         ///< anything else: fastest table available on this CPU
};

/// Parses a TSAUG_BACKEND string. Matching is exact and case-sensitive:
/// "scalar" and "simd" force a table; null, empty, mixed-case and unknown
/// values all mean auto-detect. Exposed for tests — the real env read
/// happens once, at the first ActiveBackend() call.
BackendSpec ParseBackendSpec(const char* value);

/// True when the SIMD table is compiled in and the CPU supports it.
bool SimdAvailable();

/// "scalar" or "simd".
const char* BackendName(Backend backend);

/// The scalar reference table (always available; parity tests compare
/// against it explicitly).
const KernelTable& ScalarKernels();

/// The SIMD table, or nullptr when not compiled in / not supported by
/// this CPU.
const KernelTable* SimdKernels();

}  // namespace tsaug::core::kernels

#endif  // TSAUG_CORE_KERNELS_KERNELS_H_
