#include "fft/fft.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>

#include <gtest/gtest.h>

#include "core/rng.h"

namespace tsaug::fft {
namespace {

TEST(Fft, ImpulseHasFlatSpectrum) {
  std::vector<Complex> data(8, Complex(0, 0));
  data[0] = Complex(1, 0);
  Fft(data);
  for (const Complex& v : data) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, SinglePureToneConcentratesEnergy) {
  const int n = 32;
  const int freq = 5;
  std::vector<Complex> data(n);
  for (int t = 0; t < n; ++t) {
    data[static_cast<size_t>(t)] = Complex(std::cos(2.0 * std::numbers::pi * freq * t / n), 0.0);
  }
  Fft(data);
  // Energy only at bins freq and n-freq, each amplitude n/2.
  for (int k = 0; k < n; ++k) {
    const double mag = std::abs(data[static_cast<size_t>(k)]);
    if (k == freq || k == n - freq) {
      EXPECT_NEAR(mag, n / 2.0, 1e-9);
    } else {
      EXPECT_NEAR(mag, 0.0, 1e-9);
    }
  }
}

class FftRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(FftRoundTrip, InverseRecoversSignal) {
  const int n = GetParam();
  core::Rng rng(static_cast<size_t>(n));
  std::vector<Complex> data(static_cast<size_t>(n));
  std::vector<Complex> original(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    data[static_cast<size_t>(i)] = Complex(rng.Normal(), rng.Normal());
    original[static_cast<size_t>(i)] = data[static_cast<size_t>(i)];
  }
  Fft(data, /*inverse=*/false);
  Fft(data, /*inverse=*/true);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(data[static_cast<size_t>(i)].real(), original[static_cast<size_t>(i)].real(), 1e-9) << "n=" << n;
    EXPECT_NEAR(data[static_cast<size_t>(i)].imag(), original[static_cast<size_t>(i)].imag(), 1e-9) << "n=" << n;
  }
}

// Powers of two exercise radix-2; the rest exercise Bluestein, including
// the paper datasets' odd lengths and the primes 3 to 13, 97 and 1009.
const auto kFftSizes = ::testing::Values(1, 2, 4, 8, 64, 256, 3, 5, 7, 12,
                                         30, 93, 144, 182, 405, 11, 13, 97,
                                         1009);

INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTrip, kFftSizes);

/// O(n^2) DFT oracle; the inverse conjugates and divides by n. The twiddle
/// angle comes from (k*t) mod n, so the oracle's own rounding stays at a
/// few ulps instead of growing with k*t.
std::vector<Complex> NaiveDft(const std::vector<Complex>& x, bool inverse) {
  const std::int64_t n = static_cast<std::int64_t>(x.size());
  const double sign = inverse ? 1.0 : -1.0;
  std::vector<Complex> out(x.size(), Complex(0, 0));
  for (std::int64_t k = 0; k < n; ++k) {
    Complex sum(0, 0);
    for (std::int64_t t = 0; t < n; ++t) {
      const double angle = sign * 2.0 * std::numbers::pi *
                           static_cast<double>((k * t) % n) /
                           static_cast<double>(n);
      sum += x[static_cast<size_t>(t)] * Complex(std::cos(angle), std::sin(angle));
    }
    out[static_cast<size_t>(k)] = inverse ? sum / static_cast<double>(n) : sum;
  }
  return out;
}

class FftOracle : public ::testing::TestWithParam<int> {};

TEST_P(FftOracle, MatchesNaiveDftForwardAndInverse) {
  const int n = GetParam();
  core::Rng rng(static_cast<std::uint64_t>(n) + 1000);
  std::vector<Complex> input(static_cast<size_t>(n));
  for (Complex& v : input) v = Complex(rng.Normal(), rng.Normal());
  for (const bool inverse : {false, true}) {
    const std::vector<Complex> expected = NaiveDft(input, inverse);
    std::vector<Complex> actual = input;
    Fft(actual, inverse);
    double max_magnitude = 0.0;
    double max_error = 0.0;
    for (size_t k = 0; k < expected.size(); ++k) {
      max_magnitude = std::max(max_magnitude, std::abs(expected[k]));
      max_error = std::max(max_error, std::abs(actual[k] - expected[k]));
    }
    // An FFT's rounding bound n*log2(n)*eps*max|X|; log2(n) is floored at
    // 1 so that n = 1 keeps one ulp of slack.
    const double tolerance = static_cast<double>(n) *
                             std::max(1.0, std::log2(static_cast<double>(n))) *
                             std::numeric_limits<double>::epsilon() *
                             max_magnitude;
    EXPECT_LE(max_error, tolerance) << "n=" << n << " inverse=" << inverse;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftOracle, kFftSizes);

TEST(RealFft, RoundTripsThroughInverse) {
  core::Rng rng(9);
  std::vector<double> signal(37);
  for (double& v : signal) v = rng.Normal();
  const auto spectrum = RealFft(signal);
  const auto back = InverseRealFft(spectrum);
  ASSERT_EQ(back.size(), signal.size());
  for (size_t i = 0; i < signal.size(); ++i) {
    EXPECT_NEAR(back[i], signal[i], 1e-9);
  }
}

TEST(RealFft, SpectrumConjugateSymmetric) {
  core::Rng rng(10);
  std::vector<double> signal(16);
  for (double& v : signal) v = rng.Normal();
  const auto spectrum = RealFft(signal);
  for (size_t k = 1; k < signal.size(); ++k) {
    EXPECT_NEAR(spectrum[k].real(), spectrum[signal.size() - k].real(), 1e-9);
    EXPECT_NEAR(spectrum[k].imag(), -spectrum[signal.size() - k].imag(), 1e-9);
  }
}

TEST(Stft, FrameCountCoversSignal) {
  std::vector<double> signal(100, 1.0);
  const auto frames = Stft(signal, /*window_size=*/16, /*hop=*/8);
  EXPECT_GE(static_cast<int>(frames.size()) * 8, 100 - 16);
  for (const auto& frame : frames) EXPECT_EQ(frame.size(), 16u);
}

TEST(Stft, InverseStftReconstructsInterior) {
  core::Rng rng(11);
  std::vector<double> signal(128);
  for (double& v : signal) v = rng.Normal();
  const int window = 32;
  const int hop = 8;
  const auto frames = Stft(signal, window, hop);
  const auto back = InverseStft(frames, window, hop, 128);
  ASSERT_EQ(back.size(), signal.size());
  // Edges are attenuated by the window; check the interior.
  for (int t = window; t < 128 - window; ++t) {
    EXPECT_NEAR(back[static_cast<size_t>(t)], signal[static_cast<size_t>(t)], 1e-6) << "t=" << t;
  }
}

}  // namespace
}  // namespace tsaug::fft
