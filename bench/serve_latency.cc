// In-process serving latency bench: starts a serve::Server on an
// ephemeral loopback port, drives the deterministic loadgen workload
// against it, and writes BENCH_serve.json — request/error counts,
// round-trip latency percentiles and the batch occupancy histogram read
// from the serve.* trace counters after the drain.
//
// tools/bench_check.py --serve gates the output structurally (non-empty,
// zero errors, occupancy recorded): latency magnitudes are host-dependent,
// so unlike BENCH_kernels.json there is no committed ns baseline.
//
// Flags: --json PATH (default BENCH_serve.json), --connections N (32),
// --requests N per connection (25), --max-batch N (16), --linger-ms X (2).
// An unknown flag, a missing value or a malformed number exits 2.
#include <climits>
#include <cstdio>
#include <string>

#include "core/flags.h"
#include "core/io.h"
#include "core/json.h"
#include "core/status.h"
#include "core/trace.h"
#include "serve/loadgen.h"
#include "serve/server.h"

int main(int argc, char** argv) {
  using tsaug::core::IntFlag;
  using tsaug::core::trace::CounterValue;
  std::string json_path = "BENCH_serve.json";
  tsaug::serve::ServerConfig server_config;
  server_config.service = tsaug::serve::DefaultServiceConfig();
  tsaug::serve::LoadConfig load_config;
  load_config.connections = 32;
  load_config.requests_per_connection = 25;
  double linger_ms =
      static_cast<double>(server_config.batching.max_linger_nanos) / 1e6;
  const tsaug::core::Status parsed = tsaug::core::ParseFlags(
      argc, argv,
      {tsaug::core::StringFlag("--json", &json_path),
       IntFlag("--connections", 1, INT_MAX, &load_config.connections),
       IntFlag("--requests", 1, INT_MAX,
               &load_config.requests_per_connection),
       IntFlag("--max-batch", 1, INT_MAX, &server_config.batching.max_batch),
       tsaug::core::DoubleFlag("--linger-ms", 0.0, 1e6, &linger_ms)});
  if (!parsed.ok()) {
    std::fprintf(stderr, "serve_latency: %s\n", parsed.ToString().c_str());
    return 2;
  }
  server_config.batching.max_linger_nanos =
      static_cast<std::int64_t>(linger_ms * 1e6);

  tsaug::core::trace::Enable();  // the occupancy counters feed the report
  tsaug::serve::Server server(server_config);
  const tsaug::core::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "serve_latency: %s\n", started.ToString().c_str());
    return 1;
  }
  load_config.port = server.port();
  tsaug::core::StatusOr<tsaug::serve::LoadReport> ran =
      tsaug::serve::RunLoad(load_config);
  server.Shutdown();  // drain completes before the counter snapshot below
  if (!ran.ok()) {
    std::fprintf(stderr, "serve_latency: %s\n",
                 ran.status().ToString().c_str());
    return 1;
  }
  const tsaug::serve::LoadReport& report = *ran;

  const std::int64_t batches = CounterValue("serve.batches");
  const std::int64_t batched = CounterValue("serve.batched_requests");
  const double occupancy =
      batches > 0
          ? static_cast<double>(batched) / static_cast<double>(batches)
          : 0.0;
  std::int64_t total_ns = 0;
  for (const std::int64_t ns : report.latencies_ns) total_ns += ns;
  const double mean_ns =
      report.latencies_ns.empty()
          ? 0.0
          : static_cast<double>(total_ns) /
                static_cast<double>(report.latencies_ns.size());

  tsaug::core::JsonWriter w({/*spaced=*/true, /*break_depth=*/1});
  w.BeginObject().Key("serve_bench_version").Int(1);
  w.Key("config").BeginObject();
  w.Key("connections").Int(load_config.connections);
  w.Key("requests_per_connection").Int(load_config.requests_per_connection);
  w.Key("max_batch").Int(server_config.batching.max_batch);
  w.Key("max_linger_nanos").Int(server_config.batching.max_linger_nanos);
  w.EndObject();
  w.Key("requests").Int(report.requests).Key("errors").Int(report.errors);
  w.Key("latency_ns").BeginObject();
  w.Key("p50").Int(report.PercentileNanos(0.50));
  w.Key("p95").Int(report.PercentileNanos(0.95));
  w.Key("p99").Int(report.PercentileNanos(0.99));
  w.Key("mean").Double(mean_ns, 1).EndObject();
  w.Key("batches").Int(batches).Key("batched_requests").Int(batched);
  w.Key("mean_occupancy").Double(occupancy, 3);
  w.Key("occupancy_histogram").BeginObject();
  for (int n = 1; n <= server_config.batching.max_batch; ++n) {
    const std::int64_t cuts =
        CounterValue("serve.batch_size." + std::to_string(n));
    if (cuts != 0) w.Key(std::to_string(n)).Int(cuts);
  }
  w.EndObject().EndObject();
  const tsaug::core::Status written =
      tsaug::core::WriteFile(json_path, w.str() + "\n");
  if (!written.ok()) {
    std::fprintf(stderr, "serve_latency: %s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("serve_latency: requests=%lld errors=%lld occupancy=%.2f\n",
              static_cast<long long>(report.requests),
              static_cast<long long>(report.errors), occupancy);
  return report.errors == 0 ? 0 : 1;
}
