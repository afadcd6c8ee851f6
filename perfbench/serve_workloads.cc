// Serving workloads: an in-process serve::Server (DefaultServiceConfig,
// max_batch 16, linger 2 ms) under open-loop Poisson arrivals at a fixed
// rate over 4 connections, then a closed-loop capacity phase run by
// serve::RunLoad over 4 connections.
//
// Request g is serve::BuildRequest(g) with the run's seed as base seed
// (a 3:1 mix of augment and score requests). Open-loop latency is timed
// from each request's due time, so a late generator or a busy connection
// counts against the server, not for it.
//
// Correctness: every response is OK, and each open-loop one answers its
// own request id; the open-loop responses, replayed offline through a
// bench-owned serve::Service in batches, must be the same bytes (the
// service's batching-invariance contract); at a seed with a golden entry
// their digest must match it.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "bench.h"
#include "core/rng.h"
#include "core/trace.h"
#include "serve/frame.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "serve/service.h"

namespace tsaug::perfbench {
namespace {

constexpr int kConnections = 4;

struct ServeSpec {
  const char* name;
  double rate;  // open-loop arrivals per second
};

// 200 req/s: batches hold about one request and the 2 ms linger sets the
// latency. 600 req/s: concurrent requests coalesce into larger batches.
// Not higher: every round trip takes at least the linger, so at 1200 req/s
// each of the 4 connections is busy about 70% of the time, the generator
// runs 10 ms late at p99, and p90 latency swings 3-13 ms with the load of
// other tenants on the host.
constexpr ServeSpec kServeSpecs[] = {{"serve_r200", 200.0},
                                     {"serve_r600", 600.0}};

const ServeSpec* FindServeSpec(const std::string& name) {
  for (const ServeSpec& spec : kServeSpecs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

serve::ServerConfig MakeServerConfig() {
  serve::ServerConfig config;
  config.service = serve::DefaultServiceConfig();
  config.batching.max_batch = 16;
  config.batching.max_linger_nanos = 2'000'000;
  return config;
}

serve::LoadConfig MakeLoadConfig(const Options& options) {
  serve::LoadConfig load;
  load.base_seed = options.seed;
  return load;
}

std::string EncodeResponse(const serve::Message& message) {
  if (const auto* augment = std::get_if<serve::AugmentResponse>(&message.payload)) {
    return serve::EncodeFrame(*augment);
  }
  if (const auto* score = std::get_if<serve::ScoreResponse>(&message.payload)) {
    return serve::EncodeFrame(*score);
  }
  return std::string();
}

std::string EncodeRequest(const serve::Message& message) {
  if (const auto* augment = std::get_if<serve::AugmentRequest>(&message.payload)) {
    return serve::EncodeFrame(*augment);
  }
  return serve::EncodeFrame(std::get<serve::ScoreRequest>(message.payload));
}

/// Empty when `reply` is an OK response to request `g`; else the reason.
std::string ResponseProblem(const core::StatusOr<serve::Message>& reply,
                            std::uint64_t g) {
  if (!reply.ok()) return reply.status().ToString();
  if (const auto* augment =
          std::get_if<serve::AugmentResponse>(&reply->payload)) {
    if (augment->request_id != g) return "wrong request id";
    return augment->status.ok() ? "" : augment->status.ToString();
  }
  if (const auto* score = std::get_if<serve::ScoreResponse>(&reply->payload)) {
    if (score->request_id != g) return "wrong request id";
    return score->status.ok() ? "" : score->status.ToString();
  }
  return "not a response frame";
}

/// What the clients saw for one open-loop request (times relative to the
/// phase start, seconds).
struct RequestRecord {
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
  std::string response;  // re-encoded response frame, "" on failure
};

struct OpenLoop {
  std::vector<RequestRecord> requests;
  std::int64_t failed = 0;
  std::vector<SpanLog> logs;  // one per connection
  std::string first_problem;
};

/// Poisson arrival times in [0, duration) at `rate` per second.
std::vector<double> ArrivalTimes(std::uint64_t seed, double rate,
                                 double duration) {
  core::Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  std::vector<double> times;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.Uniform()) / rate;
    if (t >= duration) return times;
    times.push_back(t);
  }
}

void SleepUntil(double when) {
  const double wait = when - NowSeconds();
  if (wait > 0.0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
}

/// The open-loop phase: connection c sends requests g = c, c+4, ... each
/// at its arrival time, or as soon as its previous round trip ends.
OpenLoop DriveOpenLoop(const serve::LoadConfig& load,
                       const std::vector<double>& arrivals) {
  OpenLoop result;
  result.requests.resize(arrivals.size());
  result.logs.resize(kConnections);
  std::vector<std::int64_t> failed(kConnections, 0);
  std::vector<std::string> problems(kConnections);
  // Each thread writes only its own slots; the join is the barrier.
  const double start = NowSeconds() + 0.01;
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      const size_t i = static_cast<size_t>(c);
      serve::Client client;
      const bool connected = client.Connect(load.host, load.port).ok();
      if (!connected) problems[i] = "connect failed";
      SpanLog& log = result.logs[i];
      for (size_t g = i; g < arrivals.size(); g += kConnections) {
        if (!connected) {
          ++failed[i];
          continue;
        }
        RequestRecord& rec = result.requests[g];
        rec.due = arrivals[g];
        SleepUntil(start + rec.due);
        const std::string owner = "req/" + std::to_string(g);
        const int request_span = log.Open("serve.request", owner, -1);
        rec.sent = NowSeconds() - start;
        const core::StatusOr<serve::Message> reply = [&] {
          ScopedSpan span(log, "serve.round_trip", owner, request_span);
          return client.RoundTrip(EncodeRequest(serve::BuildRequest(load, g)));
        }();
        rec.done = NowSeconds() - start;
        log.Close(request_span);
        const std::string problem = ResponseProblem(reply, g);
        if (problem.empty()) {
          rec.response = EncodeResponse(*reply);
        } else {
          ++failed[i];
          problems[i] = problem;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int c = 0; c < kConnections; ++c) {
    const size_t i = static_cast<size_t>(c);
    result.failed += failed[i];
    if (result.first_problem.empty()) result.first_problem = problems[i];
  }
  return result;
}

/// The closed-loop capacity phase, run by serve::RunLoad.
struct Capacity {
  std::int64_t requests = 0;  // every request sent, calibration included
  std::int64_t failed = 0;
  double requests_per_s = 0.0;  // of the measured round
  std::string problem;
};

/// One serve::RunLoad round; adds its counts to `capacity` and returns
/// its requests per second.
double CapacityRound(const serve::LoadConfig& load, Capacity& capacity) {
  const std::int64_t total =
      static_cast<std::int64_t>(load.connections) * load.requests_per_connection;
  capacity.requests += total;
  const double start = NowSeconds();
  const core::StatusOr<serve::LoadReport> report = serve::RunLoad(load);
  const double seconds = NowSeconds() - start;
  if (!report.ok()) {
    capacity.failed += total;
    capacity.problem = report.status().ToString();
    return 0.0;
  }
  // Non-OK responses plus requests that got no response (a transport
  // failure is in both terms; any failure fails the run either way).
  const std::int64_t failed =
      std::min(total, report->errors + total - report->requests);
  capacity.failed += failed;
  if (failed > 0) capacity.problem = "capacity phase: failed requests";
  return static_cast<double>(report->requests) / seconds;
}

/// Back-to-back round trips on kConnections fresh connections. A short
/// first round sizes the measured one to last about `seconds`.
Capacity MeasureCapacity(serve::LoadConfig load, double seconds) {
  load.connections = kConnections;
  load.requests_per_connection = 32;
  Capacity capacity;
  const double calibration_rps = CapacityRound(load, capacity);
  load.requests_per_connection = std::max(
      32, static_cast<int>(calibration_rps * seconds / kConnections));
  capacity.requests_per_s = CapacityRound(load, capacity);
  return capacity;
}

/// Offline replay of the open-loop requests through a bench-owned
/// Service, cut into batches of `batch` consecutive requests per type.
struct Replay {
  std::vector<std::string> responses;  // re-encoded, by request index
  double augment_seconds = 0.0;
  double score_seconds = 0.0;
  std::int64_t augment_requests = 0;
  std::int64_t score_requests = 0;
  double codec_seconds = 0.0;
  SpanLog log;
};

Replay ReplayRequests(const serve::LoadConfig& load, size_t count,
                      size_t batch) {
  Replay replay;
  replay.responses.resize(count);
  serve::Service service(serve::DefaultServiceConfig());
  std::vector<serve::AugmentRequest> augments;
  std::vector<serve::ScoreRequest> scores;
  for (size_t g = 0; g < count; ++g) {
    serve::Message message = serve::BuildRequest(load, g);
    if (auto* augment = std::get_if<serve::AugmentRequest>(&message.payload)) {
      augments.push_back(std::move(*augment));
    } else {
      scores.push_back(std::get<serve::ScoreRequest>(std::move(message.payload)));
    }
  }
  for (size_t lo = 0; lo < augments.size(); lo += batch) {
    std::vector<const serve::AugmentRequest*> cut;
    for (size_t i = lo; i < std::min(augments.size(), lo + batch); ++i) {
      cut.push_back(&augments[i]);
    }
    const double start = NowSeconds();
    std::vector<serve::AugmentResponse> out;
    {
      ScopedSpan span(replay.log, "serve.service.augment_batch",
                      "req/" + std::to_string(cut.front()->request_id));
      out = service.ExecuteAugmentBatch(cut);
    }
    replay.augment_seconds += NowSeconds() - start;
    for (serve::AugmentResponse& response : out) {
      replay.responses[response.request_id] = serve::EncodeFrame(response);
    }
  }
  for (size_t lo = 0; lo < scores.size(); lo += batch) {
    std::vector<const serve::ScoreRequest*> cut;
    for (size_t i = lo; i < std::min(scores.size(), lo + batch); ++i) {
      cut.push_back(&scores[i]);
    }
    const double start = NowSeconds();
    std::vector<serve::ScoreResponse> out;
    {
      ScopedSpan span(replay.log, "serve.service.score_batch",
                      "req/" + std::to_string(cut.front()->request_id));
      out = service.ExecuteScoreBatch(cut);
    }
    replay.score_seconds += NowSeconds() - start;
    for (serve::ScoreResponse& response : out) {
      replay.responses[response.request_id] = serve::EncodeFrame(response);
    }
  }
  replay.augment_requests = static_cast<std::int64_t>(augments.size());
  replay.score_requests = static_cast<std::int64_t>(scores.size());

  // Frame codec cost: encode and decode each request and its response,
  // as a client and the server do once per round trip.
  const double start = NowSeconds();
  for (size_t g = 0; g < count; ++g) {
    const std::string request = EncodeRequest(serve::BuildRequest(load, g));
    serve::Message decoded;
    std::size_t consumed = 0;
    if (!serve::DecodeFrame(request, &decoded, &consumed).ok() ||
        !serve::DecodeFrame(replay.responses[g], &decoded, &consumed).ok()) {
      replay.responses[g] = "undecodable";
    }
  }
  replay.codec_seconds = NowSeconds() - start;
  return replay;
}

struct ServeRun {
  double setup_seconds = 0.0;
  OpenLoop open;
  Capacity capacity;
  std::int64_t batches = 0;
  std::int64_t batched_requests = 0;
};

ServeRun RunLoadPhases(const Options& options,
                       const std::vector<double>& arrivals) {
  ServeRun run;
  core::Status started;
  run.setup_seconds = TimeSetUp(options.smoke ? 1 : 6, [&] {
    const double start = NowSeconds();
    serve::Server server(MakeServerConfig());
    const core::Status status = server.Start();
    const double seconds = NowSeconds() - start;  // before ~Server
    if (!status.ok()) started = status;
    return seconds;
  });
  // The measured server starts unpinned: its accept and dispatch threads
  // inherit the mask of the thread that starts it.
  serve::Server server(MakeServerConfig());
  if (started.ok()) started = server.Start();
  if (!started.ok()) {
    run.open.first_problem = started.ToString();
    run.open.failed = static_cast<std::int64_t>(arrivals.size());
    return run;
  }
  serve::LoadConfig load = MakeLoadConfig(options);
  load.port = server.port();
  if (options.traced) {
    core::trace::Reset();
    core::trace::Enable();
  }
  run.open = DriveOpenLoop(load, arrivals);
  if (options.traced) {
    core::trace::Disable();
    run.batches = core::trace::CounterValue("serve.batches");
    run.batched_requests = core::trace::CounterValue("serve.batched_requests");
  }
  run.capacity =
      MeasureCapacity(load, options.smoke ? 0.2 : options.seconds * 0.3);
  server.Shutdown();
  return run;
}

void CheckResponses(const Options& options, const ServeRun& run,
                    const Replay& replay, RunRecord& record) {
  const OpenLoop& open = run.open;
  const std::int64_t count = static_cast<std::int64_t>(open.requests.size());
  record.Attempt(count + run.capacity.requests,
                 open.failed + run.capacity.failed);
  const std::string problem =
      open.first_problem.empty() ? run.capacity.problem : open.first_problem;
  record.Check("responses_ok", open.failed + run.capacity.failed == 0,
               problem.empty() ? "all OK" : problem, 0);
  std::int64_t mismatched = 0;
  std::string all;
  for (size_t g = 0; g < open.requests.size(); ++g) {
    if (!open.requests[g].response.empty() &&
        open.requests[g].response != replay.responses[g]) {
      ++mismatched;
    }
    all += open.requests[g].response;
  }
  record.Check("replay_identical", mismatched == 0,
               std::to_string(mismatched) + " of " + std::to_string(count) +
                   " responses differ from the offline replay",
               mismatched);
  record.GoldenCheck(options, Digest(all), count);
}

std::vector<double> Milliseconds(const OpenLoop& open, bool from_due) {
  std::vector<double> ms;
  for (const RequestRecord& rec : open.requests) {
    ms.push_back((rec.done - (from_due ? rec.due : rec.sent)) * 1e3);
  }
  return ms;
}

void RunServe(const ServeSpec& spec, const Options& options) {
  RunRecord record;
  const double open_seconds = options.smoke ? 0.3 : options.seconds * 0.7;
  const std::vector<double> arrivals =
      ArrivalTimes(options.seed, spec.rate, open_seconds);
  const ServeRun run = RunLoadPhases(options, arrivals);
  const std::vector<double> latency_ms = Milliseconds(run.open, true);
  const double occupancy =
      run.batches > 0 ? static_cast<double>(run.batched_requests) /
                            static_cast<double>(run.batches)
                      : 1.0;
  const size_t batch = options.traced
                           ? static_cast<size_t>(std::max(1.0, std::round(occupancy)))
                           : 16;
  const Replay replay =
      ReplayRequests(MakeLoadConfig(options), arrivals.size(), batch);
  CheckResponses(options, run, replay, record);

  if (!options.traced) {
    record.Metric("throughput_per_s", run.capacity.requests_per_s, "1/s");
    record.Metric("latency_ms_p50", Quantile(latency_ms, 0.5), "ms");
    record.Metric("latency_ms_p90", Quantile(latency_ms, 0.9), "ms");
    record.Metric("setup_s", run.setup_seconds, "s");
    record.Metric("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    const double augment_us =
        replay.augment_requests > 0
            ? replay.augment_seconds * 1e6 /
                  static_cast<double>(replay.augment_requests)
            : 0.0;
    const double score_us =
        replay.score_requests > 0
            ? replay.score_seconds * 1e6 /
                  static_cast<double>(replay.score_requests)
            : 0.0;
    const double requests =
        static_cast<double>(std::max<size_t>(1, arrivals.size()));
    const double codec_us = replay.codec_seconds * 1e6 / requests;
    const double execute_ms =
        (replay.augment_seconds + replay.score_seconds) * 1e3 / requests *
        occupancy;
    std::vector<double> queue_ms = Milliseconds(run.open, false);
    for (double& ms : queue_ms) ms -= execute_ms + codec_us * 1e-3;
    std::vector<double> lag_ms;
    for (const RequestRecord& rec : run.open.requests) {
      lag_ms.push_back((rec.sent - rec.due) * 1e3);
    }
    record.Metric("serve.service.augment_us_per_req", augment_us, "us");
    record.Metric("serve.service.score_us_per_req", score_us, "us");
    record.Metric("serve.frame.codec_us", codec_us, "us");
    record.Metric("serve.batching.occupancy_mean", occupancy, "requests");
    record.Metric("serve.queue_wait_ms_p50", Quantile(queue_ms, 0.5), "ms");
    record.Metric("serve.loadgen.lag_ms_p99", Quantile(lag_ms, 0.99), "ms");
    record.Metric("serve.latency_ms_p99", Quantile(latency_ms, 0.99), "ms");
    std::vector<SpanLog> logs = run.open.logs;
    logs.push_back(replay.log);
    WriteSpans(options.work_dir + "/" + options.workload + ".spans.tsv",
                logs);
  }
  record.PrintResult();
}

}  // namespace

bool IsServeWorkload(const std::string& name) {
  return FindServeSpec(name) != nullptr;
}

void RunServeWorkload(const Options& options) {
  RunServe(*FindServeSpec(options.workload), options);
}

}  // namespace tsaug::perfbench
