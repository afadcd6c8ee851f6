// tsaug_bench: the repository benchmark. One process runs one workload
// (see README.md) and prints host metadata, metrics, correctness checks
// and the attempted/failed counts as plain lines (bench.h);
// perfbench/run.py builds this binary and turns those lines into the
// benchmark's JSON result.
//
//   tsaug_bench --workload table4_rocket [--seed 42] [--seconds 20]
//               [--trace 0|1] [--smoke] [--golden FILE] [--work-dir DIR]
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "bench.h"
#include "core/kernels/kernels.h"
#include "core/parallel.h"
#include "core/trace.h"

namespace tsaug::perfbench {

void RunRecord::Metric(const std::string& name, double value,
                       const std::string& unit) {
  metrics_[name] = {value, unit};
}

void RunRecord::Check(const std::string& name, bool ok,
                      const std::string& detail,
                      std::int64_t operations_on_failure) {
  std::printf("check %s %s %s\n", name.c_str(), ok ? "ok" : "FAIL",
              detail.c_str());
  if (!ok) failed_ += std::max<std::int64_t>(1, operations_on_failure);
}

void RunRecord::Attempt(std::int64_t operations, std::int64_t failed) {
  attempted_ += operations;
  failed_ += failed;
}

void RunRecord::GoldenCheck(const Options& options, const std::string& digest,
                            std::int64_t operations_on_failure) {
  // Smoke-size runs compute something else, so they have their own key.
  const std::string key = options.workload + (options.smoke ? "/smoke" : "");
  std::ifstream in(options.golden_path);
  std::string line;
  while (!options.golden_path.empty() && std::getline(in, line)) {
    std::istringstream fields(line);
    std::string workload, golden;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    if (!(fields >> workload >> seed >> seconds >> golden)) continue;
    if (workload != key || seed != options.seed ||
        seconds != options.seconds) {
      continue;
    }
    Check("golden_digest", digest == golden,
          "digest=" + digest + " golden=" + golden, operations_on_failure);
    return;
  }
  std::printf("note digest %s (no golden entry for seed %llu, %g s)\n",
              digest.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds);
}

void RunRecord::PrintResult() const {
  for (const auto& [name, value] : metrics_) {
    std::printf("metric %s %.17g %s\n", name.c_str(), value.first,
                value.second.c_str());
  }
  std::printf("result %lld %lld\n", static_cast<long long>(attempted_),
              static_cast<long long>(failed_));
}

std::string Digest(const std::string& bytes) {
  std::uint64_t hash = 1469598103934665603ull;
  for (char ch : bytes) {
    hash ^= static_cast<unsigned char>(ch);
    hash *= 1099511628211ull;
  }
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(hash));
  return text;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double NowSeconds() {
  return static_cast<double>(core::trace::NowNanos()) * 1e-9;
}

CpuPin::CpuPin(int turn) {
  CPU_ZERO(&original_);
  if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
  const int count = CPU_COUNT(&original_);
  if (count == 0) return;
  int skip = turn % count;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &original_) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
    return;
  }
}

CpuPin::~CpuPin() {
  if (pinned_) sched_setaffinity(0, sizeof(original_), &original_);
}

double TimeSetUp(int rounds, const std::function<double()>& set_up) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  const int cpus = sched_getaffinity(0, sizeof(mask), &mask) == 0
                       ? std::max(1, CPU_COUNT(&mask))
                       : 1;
  std::vector<double> round_seconds;
  for (int round = 0; round < rounds; ++round) {
    double best = 0.0;
    for (int cpu = 0; cpu < cpus; ++cpu) {
      const CpuPin pin(cpu);
      const double seconds = set_up();
      if (cpu == 0 || seconds < best) best = seconds;
    }
    round_seconds.push_back(best);
  }
  return Quantile(round_seconds, 0.5);
}

int SpanLog::Open(std::string name, std::string owner, int parent) {
  Span span;
  span.name = std::move(name);
  span.owner = std::move(owner);
  span.parent = parent;
  span.start_ns = core::trace::NowNanos();
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::Close(int id) {
  spans_[static_cast<size_t>(id)].end_ns = core::trace::NowNanos();
}

ScopedSpan::ScopedSpan(SpanLog& log, std::string name, std::string owner,
                       int parent)
    : log_(log), id_(log.Open(std::move(name), std::move(owner), parent)) {}

double SumSeconds(const std::vector<SpanLog>& logs, const std::string& name) {
  double total = 0.0;
  for (const SpanLog& log : logs) {
    for (const Span& span : log.spans()) {
      if (span.name == name) total += span.seconds();
    }
  }
  return total;
}

void WriteSpans(const std::string& path, const std::vector<SpanLog>& logs) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "tsaug_bench: cannot write spans to %s\n",
                 path.c_str());
    return;
  }
  for (size_t l = 0; l < logs.size(); ++l) {
    const std::vector<Span>& spans = logs[l].spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      std::fprintf(file, "%zu\t%zu\t%d\t%s\t%s\t%lld\t%lld\n", l, i,
                   spans[i].parent, spans[i].owner.c_str(),
                   spans[i].name.c_str(),
                   static_cast<long long>(spans[i].start_ns),
                   static_cast<long long>(spans[i].end_ns));
    }
  }
  std::fclose(file);
}

namespace {

/// The CPUs this process may run on, as a hex mask (CPU 0 = lowest bit).
std::string AffinityMask(int* count) {
  cpu_set_t set;
  CPU_ZERO(&set);
  *count = 0;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return "unknown";
  std::string hex;
  for (int base = 0; base < CPU_SETSIZE; base += 4) {
    int nibble = 0;
    for (int bit = 0; bit < 4; ++bit) {
      if (CPU_ISSET(base + bit, &set)) {
        nibble |= 1 << bit;
        ++*count;
      }
    }
    hex.insert(hex.begin(), "0123456789abcdef"[nibble]);
  }
  const size_t first = hex.find_first_not_of('0');
  return first == std::string::npos ? "0" : hex.substr(first);
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "tsaug_bench: %s\nusage: tsaug_bench --workload NAME "
               "[--seed N] [--seconds S] [--trace 0|1] [--smoke] "
               "[--golden FILE] [--work-dir DIR]\n",
               message);
  return 2;
}

}  // namespace
}  // namespace tsaug::perfbench

int main(int argc, char** argv) {
  using namespace tsaug::perfbench;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.traced = value == "1";
    } else if (flag == "--golden") {
      options.golden_path = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");
  if (!IsGridWorkload(options.workload) &&
      !IsServeWorkload(options.workload)) {
    return Usage(("unknown workload \"" + options.workload + "\"").c_str());
  }

  int cpus = 0;
  const std::string mask = AffinityMask(&cpus);
  options.threads = std::max(1, std::min(4, cpus));
  tsaug::core::SetNumThreads(options.threads);
  // Spawn the pool now, before a CpuPin pins this thread, so the workers
  // inherit the full CPU mask.
  tsaug::core::ParallelFor(0, 64, 1, [](std::int64_t, std::int64_t) {});
  namespace kernels = tsaug::core::kernels;
  std::printf("host nproc %ld\n", sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("host affinity %s\n", mask.c_str());
  std::printf("host backend %s\n",
              kernels::BackendName(kernels::ActiveBackend()));
  std::printf("host pool_threads %d\n", tsaug::core::GetNumThreads());
  std::printf("host seed %llu\n",
              static_cast<unsigned long long>(options.seed));
  std::printf("host compiler %s %s\n", TSAUG_BENCH_COMPILER_ID,
              TSAUG_BENCH_COMPILER_VERSION);
  std::printf("host build_type %s\n", TSAUG_BENCH_BUILD_TYPE);
  std::fflush(stdout);

  if (IsGridWorkload(options.workload)) {
    RunGridWorkload(options);
  } else {
    RunServeWorkload(options);
  }
  std::fflush(stdout);
  return 0;
}
