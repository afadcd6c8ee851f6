// Deterministic load-test client for serve_main: opens N connections,
// issues the standard loadgen workload (serve/loadgen.h) and prints a
// latency/error summary. Exit status: 0 on zero errors, 1 otherwise —
// the CI serve smoke gates on it.
//
// Flags:
//   --host H          server host            (default 127.0.0.1)
//   --port N          server port            (required)
//   --connections N   client connections     (default 8)
//   --requests N      requests per connection (default 25)
//   --timeout-ms N    per-request deadline   (default 0 = none)
//   --seed N          workload base seed     (default 1)
//
// An unknown flag, a missing value, a malformed number or --connections /
// --requests below 1 exits 2.
#include <climits>
#include <cstdio>
#include <string>

#include "core/flags.h"
#include "core/status.h"
#include "serve/loadgen.h"

int main(int argc, char** argv) {
  using tsaug::core::IntFlag;
  tsaug::serve::LoadConfig config;
  int timeout_ms = 0;
  int seed = static_cast<int>(config.base_seed);
  const tsaug::core::Status parsed = tsaug::core::ParseFlags(
      argc, argv,
      {tsaug::core::StringFlag("--host", &config.host),
       IntFlag("--port", 1, 65535, &config.port),
       IntFlag("--connections", 1, INT_MAX, &config.connections),
       IntFlag("--requests", 1, INT_MAX, &config.requests_per_connection),
       IntFlag("--timeout-ms", 0, INT_MAX, &timeout_ms),
       IntFlag("--seed", 0, INT_MAX, &seed)});
  if (!parsed.ok()) {
    std::fprintf(stderr, "serve_loadgen: %s\n", parsed.ToString().c_str());
    return 2;
  }
  if (config.port == 0) {
    std::fprintf(stderr, "serve_loadgen: --port is required\n");
    return 2;
  }
  config.timeout_millis = static_cast<std::uint32_t>(timeout_ms);
  config.base_seed = static_cast<std::uint64_t>(seed);

  tsaug::core::StatusOr<tsaug::serve::LoadReport> ran =
      tsaug::serve::RunLoad(config);
  if (!ran.ok()) {
    std::fprintf(stderr, "serve_loadgen: %s\n", ran.status().ToString().c_str());
    return 1;
  }
  const tsaug::serve::LoadReport& report = *ran;
  std::printf(
      "serve_loadgen: requests=%lld errors=%lld "
      "p50_us=%.1f p95_us=%.1f p99_us=%.1f\n",
      static_cast<long long>(report.requests),
      static_cast<long long>(report.errors),
      static_cast<double>(report.PercentileNanos(0.50)) * 1e-3,
      static_cast<double>(report.PercentileNanos(0.95)) * 1e-3,
      static_cast<double>(report.PercentileNanos(0.99)) * 1e-3);
  return report.errors == 0 ? 0 : 1;
}
