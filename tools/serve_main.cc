// The serving binary: registers the default corpus + taxonomy + ROCKET
// model (serve::DefaultServiceConfig) and serves augment/score requests
// over the length-prefixed TCP protocol until SIGTERM/SIGINT, then drains
// (answers everything admitted) and exports trace counters.
//
// Flags:
//   --port N            listen port (default 0 = ephemeral)
//   --port-file PATH    write the bound port as text (child-process handshake)
//   --trace-json PATH   enable tracing; write the JSON report after drain
//   --max-batch N       batching policy: cut at N requests      (default 16)
//   --linger-ms X       batching policy: max linger in ms       (default 2)
//   --max-queue-depth N admission control bound                 (default 1024)
//   --max-connections N concurrent connection bound             (default 128)
//   --idle-timeout-ms N close connections idle this long        (default 0 = off)
//
// An unknown flag, a missing value or a malformed or out-of-range number
// exits 2.
#include <climits>
#include <cstdio>
#include <string>

#include "core/cancel.h"
#include "core/flags.h"
#include "core/io.h"
#include "core/status.h"
#include "core/trace.h"
#include "serve/server.h"

int main(int argc, char** argv) {
  using tsaug::core::IntFlag;
  tsaug::serve::ServerConfig config;
  config.service = tsaug::serve::DefaultServiceConfig();
  std::string port_file;
  std::string trace_json;
  double linger_ms =
      static_cast<double>(config.batching.max_linger_nanos) / 1e6;
  const tsaug::core::Status parsed = tsaug::core::ParseFlags(
      argc, argv,
      {IntFlag("--port", 0, 65535, &config.port),
       tsaug::core::StringFlag("--port-file", &port_file),
       tsaug::core::StringFlag("--trace-json", &trace_json),
       IntFlag("--max-batch", 1, INT_MAX, &config.batching.max_batch),
       tsaug::core::DoubleFlag("--linger-ms", 0.0, 1e6, &linger_ms),
       IntFlag("--max-queue-depth", 1, INT_MAX,
               &config.batching.max_queue_depth),
       IntFlag("--max-connections", 1, INT_MAX, &config.max_connections),
       IntFlag("--idle-timeout-ms", 0, INT_MAX, &config.idle_timeout_ms)});
  if (!parsed.ok()) {
    std::fprintf(stderr, "serve_main: %s\n", parsed.ToString().c_str());
    return 2;
  }
  config.batching.max_linger_nanos = static_cast<std::int64_t>(linger_ms * 1e6);
  if (!trace_json.empty()) tsaug::core::trace::Enable();

  tsaug::core::InstallStopSignalHandlers();
  tsaug::serve::Server server(config);
  const tsaug::core::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "serve_main: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("serve_main: listening on %d\n", server.port());
  std::fflush(stdout);
  if (!port_file.empty()) {
    const tsaug::core::Status written = tsaug::core::WriteFile(
        port_file, std::to_string(server.port()) + "\n");
    if (!written.ok()) {
      std::fprintf(stderr, "serve_main: %s\n", written.ToString().c_str());
      server.Shutdown();
      return 1;
    }
  }

  server.Wait();  // returns only after the drain completed

  // Export ordering (see Server::Shutdown): every worker is joined before
  // this point, so the counter snapshot is complete.
  if (!trace_json.empty()) {
    const tsaug::core::Status written =
        tsaug::core::WriteFile(trace_json, tsaug::core::trace::ReportJson());
    if (!written.ok()) {
      std::fprintf(stderr, "serve_main: %s\n", written.ToString().c_str());
      return 1;
    }
  }
  std::printf("serve_main: drained\n");
  return 0;
}
