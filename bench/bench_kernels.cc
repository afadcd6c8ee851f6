// Kernel-backend benchmarks emitting machine-readable JSON for the CI
// regression gate. Unlike the google-benchmark micro suites, this harness
// owns its main() so it can sweep the dispatched backends (scalar vs simd)
// and thread counts explicitly, writing one BENCH_kernels.json entry per
// (workload, backend, threads) with ns/op and bytes/op.
// tools/bench_check.py compares two such files and enforces the committed
// baseline plus the simd-vs-scalar speedup floor.
//
// Usage: bench_kernels [output.json]   (default: BENCH_kernels.json)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "classify/rocket.h"
#include "core/io.h"
#include "core/json.h"
#include "core/kernels/kernels.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "linalg/distance.h"
#include "linalg/matrix.h"
#include "nn/ops.h"

namespace {

using tsaug::core::Rng;
namespace kernels = tsaug::core::kernels;

struct Entry {
  std::string name;
  std::string backend;
  int threads = 1;
  double ns_per_op = 0.0;
  double bytes_per_op = 0.0;
  std::int64_t iterations = 0;
};

/// One benchmarked workload: `op` runs the measured region; `bytes`
/// is the nominal traffic (reads + writes) of a single op.
struct Workload {
  std::string name;
  double bytes = 0.0;
  std::vector<int> thread_counts;
  std::function<void()> op;
};

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Min-of-three-passes timing: each pass runs enough iterations to cover
/// ~60 ms, and the minimum mean filters out scheduler noise.
void Measure(const Workload& w, Entry& e) {
  w.op();  // Warm up: faults pages, resolves dispatch, fills caches.
  auto t0 = std::chrono::steady_clock::now();
  w.op();
  const double estimate = std::max(SecondsSince(t0), 1e-9);
  const std::int64_t iters = std::clamp<std::int64_t>(
      static_cast<std::int64_t>(0.06 / estimate), 1, 1000000);
  double best = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    t0 = std::chrono::steady_clock::now();
    for (std::int64_t i = 0; i < iters; ++i) w.op();
    const double per_op = SecondsSince(t0) / static_cast<double>(iters);
    if (pass == 0 || per_op < best) best = per_op;
  }
  e.ns_per_op = best * 1e9;
  e.bytes_per_op = w.bytes;
  e.iterations = iters;
}

tsaug::nn::Tensor RandomTensor(const std::vector<int>& shape, Rng& rng) {
  tsaug::nn::Tensor t(shape);
  for (double& v : t.data()) v = rng.Normal();
  return t;
}

tsaug::linalg::Matrix RandomMatrix(int rows, int cols, Rng& rng) {
  tsaug::linalg::Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.Normal();
  return m;
}

std::vector<Workload> BuildWorkloads() {
  std::vector<Workload> workloads;

  // ROCKET transform: the paper's workhorse classifier feature map.
  {
    constexpr int kInstances = 4, kChannels = 3, kTime = 500, kKernels = 200;
    Rng rng(11);
    auto data = std::make_shared<tsaug::nn::Tensor>(
        RandomTensor({kInstances, kChannels, kTime}, rng));
    auto transform = std::make_shared<tsaug::classify::RocketTransform>(
        kKernels, /*seed=*/7);
    transform->Fit(kChannels, kTime);
    workloads.push_back(
        {"rocket_transform",
         // Nominal: every kernel re-reads the input and writes 2 features.
         static_cast<double>(kKernels) * kInstances *
                 (kChannels * kTime * 8.0) +
             kInstances * kKernels * 2 * 8.0,
         {1, 2},
         [data, transform] {
           tsaug::linalg::Matrix f = transform->Transform(*data);
           (void)f;
         }});
  }

  // Dense matmul: the ridge / NN building block.
  {
    constexpr int kDim = 256;
    Rng rng(12);
    auto a = std::make_shared<tsaug::linalg::Matrix>(
        RandomMatrix(kDim, kDim, rng));
    auto b = std::make_shared<tsaug::linalg::Matrix>(
        RandomMatrix(kDim, kDim, rng));
    workloads.push_back({"matmul",
                         3.0 * kDim * kDim * 8.0,
                         {1, 2},
                         [a, b] {
                           tsaug::linalg::Matrix c =
                               tsaug::linalg::MatMul(*a, *b);
                           (void)c;
                         }});
  }

  // Conv1dSame forward: the InceptionTime inner loop (row_panel_matmul
  // over zero-padded rows).
  {
    constexpr int kN = 4, kC = 8, kF = 16, kK = 9, kT = 256;
    Rng rng(13);
    auto x = std::make_shared<tsaug::nn::Variable>(
        RandomTensor({kN, kC, kT}, rng));
    auto w = std::make_shared<tsaug::nn::Variable>(
        RandomTensor({kF, kC, kK}, rng));
    workloads.push_back({"conv1d_forward",
                         static_cast<double>(kN) * kF * kC * kT * 8.0 +
                             static_cast<double>(kN) * kF * kT * 8.0,
                         {1},
                         [x, w] {
                           tsaug::nn::Variable y =
                               tsaug::nn::Conv1dSame(*x, *w, 1);
                           (void)y;
                         }});
  }

  // Unconstrained DTW: the squared_dist_row band kernel.
  {
    constexpr int kChannels = 3, kLen = 256;
    Rng rng(14);
    auto a = std::make_shared<tsaug::core::TimeSeries>(kChannels, kLen);
    auto b = std::make_shared<tsaug::core::TimeSeries>(kChannels, kLen);
    for (double& v : a->values()) v = rng.Normal();
    for (double& v : b->values()) v = rng.Normal();
    workloads.push_back({"dtw_distance",
                         static_cast<double>(kLen) * kLen * kChannels * 16.0,
                         {1},
                         [a, b] {
                           double d = tsaug::linalg::DtwDistance(*a, *b, -1);
                           (void)d;
                         }});
  }

  return workloads;
}

std::string EntriesJson(const std::vector<Entry>& entries) {
  tsaug::core::JsonWriter w({/*spaced=*/true, /*break_depth=*/2});
  w.BeginObject().Key("schema").Int(1);
  w.Key("simd_available").Bool(kernels::SimdAvailable());
  w.Key("benchmarks").BeginArray();
  for (const Entry& e : entries) {
    w.BeginObject().Key("name").String(e.name);
    w.Key("backend").String(e.backend).Key("threads").Int(e.threads);
    w.Key("ns_per_op").Double(e.ns_per_op, 1);
    w.Key("bytes_per_op").Double(e.bytes_per_op, 0);
    w.Key("iterations").Int(e.iterations).EndObject();
  }
  w.EndArray().EndObject();
  return w.str() + "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_kernels.json";

  std::vector<kernels::Backend> backends = {kernels::Backend::kScalar};
  if (kernels::SimdAvailable()) {
    backends.push_back(kernels::Backend::kSimd);
  } else {
    std::fprintf(stderr,
                 "bench_kernels: simd backend unavailable on this host; "
                 "emitting scalar entries only\n");
  }

  const std::vector<Workload> workloads = BuildWorkloads();
  std::vector<Entry> entries;
  for (const Workload& w : workloads) {
    for (kernels::Backend backend : backends) {
      kernels::SetBackend(backend);
      for (int threads : w.thread_counts) {
        tsaug::core::SetNumThreads(threads);
        Entry e;
        e.name = w.name;
        e.backend = kernels::BackendName(backend);
        e.threads = threads;
        Measure(w, e);
        entries.push_back(e);
        std::printf("%-18s backend=%-6s threads=%d  %12.1f ns/op\n",
                    e.name.c_str(), e.backend.c_str(), e.threads, e.ns_per_op);
      }
    }
  }
  tsaug::core::SetNumThreads(1);

  const tsaug::core::Status written =
      tsaug::core::WriteFile(out_path, EntriesJson(entries));
  if (!written.ok()) {
    std::fprintf(stderr, "bench_kernels: %s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%zu entries)\n", out_path, entries.size());
  return 0;
}
