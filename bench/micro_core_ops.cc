// Microbenchmarks of the numeric substrates: FFT, DTW, ridge solvers,
// conv1d, GRU step and the ROCKET transform. google-benchmark based.
#include <benchmark/benchmark.h>

#include "classify/rocket.h"
#include "core/check.h"
#include "core/rng.h"
#include "fft/fft.h"
#include "linalg/distance.h"
#include "linalg/ridge.h"
#include "nn/layers.h"

namespace {

using tsaug::core::Rng;
using tsaug::core::TimeSeries;

void BM_Fft(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  std::vector<tsaug::fft::Complex> data(static_cast<size_t>(n));
  for (auto& v : data) v = {rng.Normal(), rng.Normal()};
  for (auto _ : state) {
    std::vector<tsaug::fft::Complex> copy = data;
    tsaug::fft::Fft(copy);
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
// 405 and 1751 are Bluestein (paper dataset lengths); the rest radix-2.
BENCHMARK(BM_Fft)->Arg(64)->Arg(256)->Arg(1024)->Arg(405)->Arg(1751);

TimeSeries RandomSeries(int channels, int length, Rng& rng) {
  TimeSeries s(channels, length);
  for (double& v : s.values()) v = rng.Normal();
  return s;
}

void BM_DtwDistance(benchmark::State& state) {
  const int length = static_cast<int>(state.range(0));
  const int window = static_cast<int>(state.range(1));
  Rng rng(2);
  const TimeSeries a = RandomSeries(3, length, rng);
  const TimeSeries b = RandomSeries(3, length, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tsaug::linalg::DtwDistance(a, b, window));
  }
}
// Unconstrained vs Sakoe-Chiba banded DTW.
BENCHMARK(BM_DtwDistance)
    ->Args({64, -1})
    ->Args({64, 8})
    ->Args({256, -1})
    ->Args({256, 8});

void BM_RidgeFit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int d = static_cast<int>(state.range(1));
  Rng rng(3);
  tsaug::linalg::Matrix x(n, d);
  for (double& v : x.data()) v = rng.Normal();
  std::vector<int> labels(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) labels[static_cast<size_t>(i)] = i % 2;
  for (auto _ : state) {
    tsaug::linalg::RidgeClassifierCV clf;
    const tsaug::core::Status fitted = clf.TryFit(x, labels, 2);
    TSAUG_CHECK_MSG(fitted.ok(), "%s", fitted.ToString().c_str());
    benchmark::DoNotOptimize(clf.best_alpha());
  }
}
// Primal regime (d <= n) vs the ROCKET-style dual regime (d >> n).
BENCHMARK(BM_RidgeFit)->Args({128, 32})->Args({64, 2000});

void BM_Conv1dForward(benchmark::State& state) {
  const int kernel = static_cast<int>(state.range(0));
  Rng rng(4);
  tsaug::nn::Conv1dLayer conv(4, 8, kernel, rng);
  tsaug::nn::Tensor x({8, 4, 64});
  for (double& v : x.data()) v = rng.Normal();
  for (auto _ : state) {
    tsaug::nn::Variable out = conv.Forward(tsaug::nn::Variable(x));
    benchmark::DoNotOptimize(out.value());
  }
}
BENCHMARK(BM_Conv1dForward)->Arg(8)->Arg(16)->Arg(40);

void BM_GruForward(benchmark::State& state) {
  const int time = static_cast<int>(state.range(0));
  Rng rng(5);
  tsaug::nn::Gru gru(4, 10, 2, rng);
  tsaug::nn::Tensor x({8, time, 4});
  for (double& v : x.data()) v = rng.Normal();
  for (auto _ : state) {
    tsaug::nn::Variable out = gru.Forward(tsaug::nn::Variable(x));
    benchmark::DoNotOptimize(out.value());
  }
}
BENCHMARK(BM_GruForward)->Arg(12)->Arg(24)->Arg(48);

void BM_RocketTransform(benchmark::State& state) {
  const int kernels = static_cast<int>(state.range(0));
  Rng rng(6);
  tsaug::classify::RocketTransform transform(kernels, 7);
  transform.Fit(3, 96);
  tsaug::nn::Tensor x({16, 3, 96});
  for (double& v : x.data()) v = rng.Normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(transform.Transform(x));
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_RocketTransform)->Arg(100)->Arg(500)->Arg(2000);

}  // namespace

BENCHMARK_MAIN();
