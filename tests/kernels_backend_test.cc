// Tests for the kernel-dispatch seam's backend selection: the
// TSAUG_BACKEND spec parser's edge cases (exposed as ParseBackendSpec
// precisely so they are testable without re-execing the process) and the
// SetBackend / ActiveBackend pair under concurrency. Runs under the
// "parallel" ctest label so the TSan leg race-checks the lock-free
// backend word.

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/kernels/kernels.h"

namespace tsaug::core::kernels {
namespace {

TEST(ParseBackendSpecTest, ExactMatchesSelectForcedBackends) {
  EXPECT_EQ(ParseBackendSpec("scalar"), BackendSpec::kForceScalar);
  EXPECT_EQ(ParseBackendSpec("simd"), BackendSpec::kForceSimd);
}

TEST(ParseBackendSpecTest, NullMeansAuto) {
  // getenv returns nullptr when TSAUG_BACKEND is unset.
  EXPECT_EQ(ParseBackendSpec(nullptr), BackendSpec::kAuto);
}

TEST(ParseBackendSpecTest, EmptyStringMeansAuto) {
  // `TSAUG_BACKEND= ./binary` exports the variable with an empty value;
  // that must behave exactly like an unset variable.
  EXPECT_EQ(ParseBackendSpec(""), BackendSpec::kAuto);
}

TEST(ParseBackendSpecTest, MatchingIsCaseSensitive) {
  // The spec is documented as exact lowercase; mixed case falls back to
  // auto-detection rather than half-recognising the intent.
  EXPECT_EQ(ParseBackendSpec("SIMD"), BackendSpec::kAuto);
  EXPECT_EQ(ParseBackendSpec("Simd"), BackendSpec::kAuto);
  EXPECT_EQ(ParseBackendSpec("Scalar"), BackendSpec::kAuto);
  EXPECT_EQ(ParseBackendSpec("SCALAR"), BackendSpec::kAuto);
}

TEST(ParseBackendSpecTest, UnknownTokensMeanAuto) {
  EXPECT_EQ(ParseBackendSpec("avx2"), BackendSpec::kAuto);
  EXPECT_EQ(ParseBackendSpec("sse"), BackendSpec::kAuto);
  EXPECT_EQ(ParseBackendSpec("0"), BackendSpec::kAuto);
  EXPECT_EQ(ParseBackendSpec("scalar,simd"), BackendSpec::kAuto);
}

TEST(ParseBackendSpecTest, WhitespaceIsNotTrimmed) {
  EXPECT_EQ(ParseBackendSpec(" scalar"), BackendSpec::kAuto);
  EXPECT_EQ(ParseBackendSpec("scalar "), BackendSpec::kAuto);
  EXPECT_EQ(ParseBackendSpec("simd\n"), BackendSpec::kAuto);
}

TEST(BackendTest, SetBackendScalarTakesEffect) {
  const Backend applied = SetBackend(Backend::kScalar);
  EXPECT_EQ(applied, Backend::kScalar);
  EXPECT_EQ(ActiveBackend(), Backend::kScalar);
  EXPECT_EQ(&Active(), &ScalarKernels());
}

TEST(BackendTest, SetBackendSimdDegradesToScalarWhenUnavailable) {
  const Backend applied = SetBackend(Backend::kSimd);
  if (SimdAvailable()) {
    EXPECT_EQ(applied, Backend::kSimd);
    EXPECT_EQ(ActiveBackend(), Backend::kSimd);
    EXPECT_EQ(&Active(), SimdKernels());
  } else {
    EXPECT_EQ(applied, Backend::kScalar);
    EXPECT_EQ(ActiveBackend(), Backend::kScalar);
    EXPECT_EQ(&Active(), &ScalarKernels());
  }
  SetBackend(Backend::kScalar);
}

TEST(BackendTest, BackendNamesAreStable) {
  EXPECT_STREQ(BackendName(Backend::kScalar), "scalar");
  EXPECT_STREQ(BackendName(Backend::kSimd), "simd");
}

// Hammers the lock-free backend word from writer and reader threads at
// once. The contract under test: every reader observes a valid backend
// whose kernel table is fully usable (never a torn/uninitialised table),
// and the final state is whatever some writer last stored. TSan (the
// "parallel" label's sanitizer leg) checks the memory-order discipline.
TEST(BackendTest, ConcurrentSetAndReadStaysCoherent) {
  constexpr int kWriters = 2;
  constexpr int kReaders = 6;
  constexpr int kIters = 2000;
  std::atomic<bool> start{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  threads.reserve(kWriters + kReaders);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&start, w] {
      while (!start.load(std::memory_order_acquire)) {}
      for (int i = 0; i < kIters; ++i) {
        SetBackend((i + w) % 2 == 0 ? Backend::kScalar : Backend::kSimd);
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&start, &bad] {
      while (!start.load(std::memory_order_acquire)) {}
      const double x[4] = {1.0, 2.0, 3.0, 4.0};
      const double y[4] = {5.0, 6.0, 7.0, 8.0};
      double dot = 0.0;
      for (int i = 0; i < kIters; ++i) {
        const Backend b = ActiveBackend();
        if (b != Backend::kScalar && b != Backend::kSimd) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
        const KernelTable& kt = Active();
        // Exercise a real entry through whichever table was observed.
        kt.dot_panel(x, 0, 1, y, 0, 1, 4, &dot, 0);
        if (dot != 70.0) bad.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  start.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
  const Backend final_backend = ActiveBackend();
  EXPECT_TRUE(final_backend == Backend::kScalar ||
              final_backend == Backend::kSimd);
  SetBackend(Backend::kScalar);
}

}  // namespace
}  // namespace tsaug::core::kernels
