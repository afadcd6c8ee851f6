// End-to-end serving tests against a real serve_main child process
// (path in TSAUG_SERVE_BIN, wired by tests/CMakeLists.txt): real TCP
// round trips, per-request errors typed in the response Status, fault
// injection at the accept/dispatch seams, idle-connection reaping,
// graceful SIGTERM drain, and
// the tentpole property — responses under 32 concurrent clients are
// bitwise identical to a single-client run of the same request set,
// while the trace counters prove cross-request batches actually formed
// (mean occupancy > 1.5).
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/status.h"
#include "serve/frame.h"
#include "serve/loadgen.h"

namespace tsaug::serve {
namespace {

const char* ServerBinary() { return std::getenv("TSAUG_SERVE_BIN"); }

std::string TempPath(const std::string& name) {
  return (std::filesystem::path(testing::TempDir()) / name).string();
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Counter value out of a --trace-json report ("name":value, see
/// trace::ReportJson); 0 when absent.
std::int64_t CounterFromJson(const std::string& json,
                             const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const std::size_t pos = json.find(key);
  if (pos == std::string::npos) return 0;
  return std::stoll(json.substr(pos + key.size()));
}

/// A serve_main child: fork/exec with a port-file handshake, SIGTERM to
/// stop. The trace JSON lands only after a clean drain, so reading it
/// doubles as a drain-ordering check.
class ServerProcess {
 public:
  /// `faults` sets TSAUG_FAULTS in the child ("" = none).
  void Start(const std::string& tag,
             const std::vector<std::string>& extra_flags = {},
             const std::string& faults = "") {
    ASSERT_NE(ServerBinary(), nullptr);
    port_file_ = TempPath("serve_port_" + tag);
    trace_file_ = TempPath("serve_trace_" + tag + ".json");
    std::filesystem::remove(port_file_);
    std::filesystem::remove(trace_file_);
    std::vector<std::string> args = {ServerBinary(),   "--port-file",
                                     port_file_,       "--trace-json",
                                     trace_file_};
    args.insert(args.end(), extra_flags.begin(), extra_flags.end());
    pid_ = fork();
    ASSERT_GE(pid_, 0);
    if (pid_ == 0) {
      if (!faults.empty()) setenv("TSAUG_FAULTS", faults.c_str(), 1);
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      execv(argv[0], argv.data());
      _exit(127);  // exec failed
    }
    // Handshake: the child writes its bound port once listening.
    for (int tries = 0; tries < 500; ++tries) {
      const std::string text = ReadAll(port_file_);
      if (!text.empty() && text.back() == '\n') {
        port_ = std::stoi(text);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ASSERT_GT(port_, 0) << "server never wrote its port file";
  }

  /// SIGTERM + reap; returns true on a clean (exit 0) drain.
  bool StopCleanly() {
    if (pid_ < 0) return false;
    kill(pid_, SIGTERM);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  ~ServerProcess() {
    if (pid_ >= 0) {
      kill(pid_, SIGKILL);
      int status = 0;
      waitpid(pid_, &status, 0);
    }
  }

  int port() const { return port_; }
  std::string trace() const { return ReadAll(trace_file_); }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  std::string port_file_;
  std::string trace_file_;
};

TEST(ServeE2eTest, RoundTripsAndTypedPerRequestErrors) {
  if (ServerBinary() == nullptr) GTEST_SKIP() << "TSAUG_SERVE_BIN unset";
  ServerProcess server;
  server.Start("roundtrip");
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  AugmentRequest augment;
  augment.request_id = 1;
  augment.seed = 99;
  augment.technique = "scaling";
  augment.label = 0;
  augment.count = 3;
  core::StatusOr<AugmentResponse> generated = client.Augment(augment);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  EXPECT_EQ(generated->request_id, 1u);
  EXPECT_TRUE(generated->status.ok()) << generated->status.ToString();
  ASSERT_EQ(generated->series.size(), 3u);
  EXPECT_EQ(generated->series[0].num_channels(), 2);
  EXPECT_EQ(generated->series[0].length(), 32);

  // Identical request, identical bytes: the response is a function of the
  // request alone (fresh Rng(seed) server-side).
  core::StatusOr<AugmentResponse> again = client.Augment(augment);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(EncodeFrame(*again), EncodeFrame(*generated));

  // Per-request failures are typed in the response Status; the
  // connection survives them.
  augment.technique = "no_such_technique";
  core::StatusOr<AugmentResponse> unknown = client.Augment(augment);
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown->status.code(), core::StatusCode::kInvalidArgument);

  ScoreRequest score;
  score.request_id = 2;
  score.series = core::TimeSeries(2, 32, 0.25);
  core::StatusOr<ScoreResponse> scored = client.Score(score);
  ASSERT_TRUE(scored.ok()) << scored.status().ToString();
  EXPECT_TRUE(scored->status.ok());
  EXPECT_GE(scored->label, 0);
  EXPECT_LT(scored->label, 2);

  score.series = core::TimeSeries(1, 7);  // wrong geometry
  core::StatusOr<ScoreResponse> bad = client.Score(score);
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->status.code(), core::StatusCode::kInvalidArgument);

  EXPECT_TRUE(server.StopCleanly());
}

TEST(ServeE2eTest, ConcurrentClientsBatchAndMatchSequentialBitwise) {
  if (ServerBinary() == nullptr) GTEST_SKIP() << "TSAUG_SERVE_BIN unset";
  // Concurrent pass: 32 clients share one server; the linger window lets
  // their requests coalesce into cross-request batches.
  LoadConfig load;
  load.connections = 32;
  load.requests_per_connection = 10;
  ServerProcess batched_server;
  batched_server.Start("concurrent", {"--linger-ms", "5"});
  load.port = batched_server.port();
  core::StatusOr<LoadReport> concurrent = RunLoad(load);
  ASSERT_TRUE(concurrent.ok()) << concurrent.status().ToString();
  EXPECT_EQ(concurrent->requests, 320);
  EXPECT_EQ(concurrent->errors, 0);
  ASSERT_TRUE(batched_server.StopCleanly());

  // The trace counters prove real coalescing: mean occupancy over 1.5
  // (the ISSUE's acceptance bar; in practice it is far higher).
  const std::string trace = batched_server.trace();
  const std::int64_t batches = CounterFromJson(trace, "serve.batches");
  const std::int64_t batched =
      CounterFromJson(trace, "serve.batched_requests");
  ASSERT_GT(batches, 0);
  EXPECT_EQ(batched, 320);
  EXPECT_GT(static_cast<double>(batched) / static_cast<double>(batches), 1.5)
      << "batches=" << batches << " batched_requests=" << batched;

  // Sequential pass: a fresh server, one client, the same 320 requests
  // (the workload is a pure function of the global index), no coalescing
  // (linger 0). Every response must match bitwise.
  LoadConfig sequential_load = load;
  sequential_load.connections = 1;
  sequential_load.requests_per_connection = 320;
  ServerProcess sequential_server;
  sequential_server.Start("sequential", {"--linger-ms", "0"});
  sequential_load.port = sequential_server.port();
  core::StatusOr<LoadReport> sequential = RunLoad(sequential_load);
  ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
  EXPECT_EQ(sequential->errors, 0);
  EXPECT_TRUE(sequential_server.StopCleanly());

  ASSERT_EQ(concurrent->response_frames.size(),
            sequential->response_frames.size());
  for (std::size_t g = 0; g < concurrent->response_frames.size(); ++g) {
    ASSERT_FALSE(concurrent->response_frames[g].empty()) << "request " << g;
    ASSERT_EQ(concurrent->response_frames[g], sequential->response_frames[g])
        << "request " << g
        << ": batched response differs from sequential response";
  }
}

TEST(ServeE2eTest, SigtermDrainsQueuedRequests) {
  if (ServerBinary() == nullptr) GTEST_SKIP() << "TSAUG_SERVE_BIN unset";
  // A long linger and a large max batch park admitted requests in the
  // queue; SIGTERM must flush them — every client still gets its OK
  // response, then the server exits 0.
  ServerProcess server;
  server.Start("drain", {"--linger-ms", "2000", "--max-batch", "64"});

  constexpr int kClients = 5;
  std::vector<std::string> frames(kClients);
  std::vector<core::Status> statuses(kClients,
                                     core::UnavailableError("never ran"));
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      Client client;
      const core::Status connected =
          client.Connect("127.0.0.1", server.port());
      if (!connected.ok()) {
        statuses[static_cast<std::size_t>(i)] = connected;
        return;
      }
      AugmentRequest request;
      request.request_id = static_cast<std::uint64_t>(i);
      request.seed = static_cast<std::uint64_t>(i) + 1;
      request.technique = "masking";
      request.count = 1;
      core::StatusOr<AugmentResponse> response = client.Augment(request);
      if (!response.ok()) {
        statuses[static_cast<std::size_t>(i)] = response.status();
        return;
      }
      statuses[static_cast<std::size_t>(i)] = response->status;
      frames[static_cast<std::size_t>(i)] = EncodeFrame(*response);
    });
  }
  // Give the requests time to be admitted (they then sit in the 2 s
  // linger window), then pull the plug.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_TRUE(server.StopCleanly());
  for (std::thread& thread : clients) thread.join();
  for (int i = 0; i < kClients; ++i) {
    EXPECT_TRUE(statuses[static_cast<std::size_t>(i)].ok())
        << "client " << i << ": "
        << statuses[static_cast<std::size_t>(i)].ToString();
    EXPECT_FALSE(frames[static_cast<std::size_t>(i)].empty());
  }
  // The drain answered everything it admitted.
  const std::string trace = server.trace();
  EXPECT_EQ(CounterFromJson(trace, "serve.submitted"),
            CounterFromJson(trace, "serve.batched_requests"));
}

TEST(ServeE2eTest, AdmissionControlRejectsWithUnavailable) {
  if (ServerBinary() == nullptr) GTEST_SKIP() << "TSAUG_SERVE_BIN unset";
  // Queue depth 1 and a long linger: the first request parks in the
  // queue, the second must be rejected with a typed kUnavailable —
  // loudly, immediately, with the connection intact.
  ServerProcess server;
  server.Start("overload", {"--linger-ms", "2000", "--max-batch", "64",
                            "--max-queue-depth", "1"});
  Client parked_client;
  ASSERT_TRUE(parked_client.Connect("127.0.0.1", server.port()).ok());
  AugmentRequest request;
  request.request_id = 1;
  request.technique = "masking";
  request.count = 1;
  std::thread parked([&] {
    core::StatusOr<AugmentResponse> response = parked_client.Augment(request);
    EXPECT_TRUE(response.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  Client rejected_client;
  ASSERT_TRUE(rejected_client.Connect("127.0.0.1", server.port()).ok());
  AugmentRequest second = request;
  second.request_id = 2;
  core::StatusOr<AugmentResponse> rejected = rejected_client.Augment(second);
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_EQ(rejected->status.code(), core::StatusCode::kUnavailable);

  EXPECT_TRUE(server.StopCleanly());
  parked.join();
  const std::string trace = server.trace();
  EXPECT_GE(CounterFromJson(trace, "serve.rejected"), 1);
}

TEST(ServeE2eTest, IdleConnectionsAreClosedButActiveOnesSurvive) {
  if (ServerBinary() == nullptr) GTEST_SKIP() << "TSAUG_SERVE_BIN unset";
  ServerProcess server;
  server.Start("idle", {"--idle-timeout-ms", "300"});

  AugmentRequest request;
  request.request_id = 1;
  request.technique = "masking";
  request.count = 1;

  // An active client outlives the timeout: each round trip resets the
  // idle clock, so 3 x 150 ms gaps (450 ms total, every gap under 300 ms)
  // never trip it.
  Client active;
  ASSERT_TRUE(active.Connect("127.0.0.1", server.port()).ok());
  for (int i = 0; i < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    core::StatusOr<AugmentResponse> response = active.Augment(request);
    ASSERT_TRUE(response.ok())
        << "round trip " << i << ": " << response.status().ToString();
    EXPECT_TRUE(response->status.ok());
  }

  // A client that goes quiet past the timeout is closed server-side; its
  // next round trip fails at the transport level instead of hanging.
  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  core::StatusOr<AugmentResponse> late = active.Augment(request);
  EXPECT_FALSE(late.ok());

  // The server itself is healthy: fresh connections still round-trip.
  Client fresh;
  ASSERT_TRUE(fresh.Connect("127.0.0.1", server.port()).ok());
  core::StatusOr<AugmentResponse> healthy = fresh.Augment(request);
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  EXPECT_TRUE(healthy->status.ok());

  EXPECT_TRUE(server.StopCleanly());
  EXPECT_GE(CounterFromJson(server.trace(), "serve.idle_closed"), 1);
}

TEST(ServeE2eTest, DispatchFaultFailsTheBatchWithTypedResponses) {
  if (ServerBinary() == nullptr) GTEST_SKIP() << "TSAUG_SERVE_BIN unset";
  ServerProcess server;
  server.Start("dispatchfault", {}, /*faults=*/"serve.dispatch:1");
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  AugmentRequest request;
  request.request_id = 7;
  request.technique = "masking";
  request.count = 1;
  // First batch hits the injected fault: the request is answered (not
  // dropped) with kInjectedFault.
  core::StatusOr<AugmentResponse> faulted = client.Augment(request);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  EXPECT_EQ(faulted->status.code(), core::StatusCode::kInjectedFault);
  // The rule fires once; the next batch executes normally.
  core::StatusOr<AugmentResponse> healthy = client.Augment(request);
  ASSERT_TRUE(healthy.ok());
  EXPECT_TRUE(healthy->status.ok()) << healthy->status.ToString();
  EXPECT_TRUE(server.StopCleanly());
}

TEST(ServeE2eTest, AcceptFaultDropsOneConnectionThenRecovers) {
  if (ServerBinary() == nullptr) GTEST_SKIP() << "TSAUG_SERVE_BIN unset";
  ServerProcess server;
  server.Start("acceptfault", {}, /*faults=*/"serve.accept:1");
  // The first accepted connection is dropped by the injected fault: the
  // round trip fails at the transport level, never hangs.
  Client dropped;
  AugmentRequest request;
  request.request_id = 1;
  request.technique = "masking";
  request.count = 1;
  bool first_failed = false;
  if (dropped.Connect("127.0.0.1", server.port()).ok()) {
    first_failed = !dropped.Augment(request).ok();
  } else {
    first_failed = true;
  }
  EXPECT_TRUE(first_failed);
  // The server keeps accepting afterwards.
  Client healthy;
  ASSERT_TRUE(healthy.Connect("127.0.0.1", server.port()).ok());
  core::StatusOr<AugmentResponse> response = healthy.Augment(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->status.ok());
  EXPECT_TRUE(server.StopCleanly());
}

/// Every serving tool rejects a malformed command line with exit 2 before
/// it listens, dials or writes: unknown flags, missing values, malformed or
/// out-of-range numbers, and --requests / --connections below 1. `timeout`
/// bounds a tool that wrongly accepts its flags and starts serving.
TEST(ServeTools, BadFlagsExitTwoWithoutWriting) {
  const char* server = ServerBinary();
  const char* loadgen = std::getenv("TSAUG_LOADGEN_BIN");
  const char* latency = std::getenv("TSAUG_SERVE_LATENCY_BIN");
  if (server == nullptr || loadgen == nullptr || latency == nullptr) {
    GTEST_SKIP() << "serving tool paths unset";
  }
  const std::string out = TempPath("serve_tools_bad_flags.out");
  const std::string server_bin = "'" + std::string(server) + "'";
  const std::string loadgen_bin = "'" + std::string(loadgen) + "'";
  const std::string latency_bin =
      "'" + std::string(latency) + "' --json '" + out + "'";
  const std::string cases[] = {
      server_bin + " --port abc",
      server_bin + " --port 70000",
      server_bin + " --port-file '" + out + "' --max-batch 0",
      server_bin + " --port-file '" + out + "' --linger-ms 2ms",
      server_bin + " --port-file '" + out + "' --bogus 1",
      server_bin + " --port-file '" + out + "' --port",
      loadgen_bin + " --port 5x",
      loadgen_bin + " --port abc",
      loadgen_bin + " --port 1 --requests 0",
      loadgen_bin + " --port 1 --connections 0",
      loadgen_bin + " --port 1 --connections",
      loadgen_bin + " --port 1 --seed -1",
      loadgen_bin + " --port 1 --timeout-ms soon",
      loadgen_bin + " --port 1 --bogus 2",
      latency_bin + " --connections 0",
      latency_bin + " --requests abc",
      latency_bin + " --linger-ms 1x",
      latency_bin + " --bogus 1",
      latency_bin + " --requests",
  };
  for (const std::string& args : cases) {
    SCOPED_TRACE(args);
    std::filesystem::remove(out);
    const std::string command = "timeout 20 " + args + " >/dev/null 2>&1";
    const int status = std::system(command.c_str());
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 2);
    EXPECT_FALSE(std::filesystem::exists(out));
  }
}

}  // namespace
}  // namespace tsaug::serve
