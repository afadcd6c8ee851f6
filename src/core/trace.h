#ifndef TSAUG_CORE_TRACE_H_
#define TSAUG_CORE_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tsaug::core::trace {

/// Low-overhead observability for the augment -> transform -> train grids.
///
/// Design: every thread owns a private profile tree (scoped timers nest
/// into parent/child nodes) and a private counter map, both touched with
/// no cross-thread synchronisation on the hot path; exporters merge the
/// per-thread data by name only when a report is requested. A global
/// locked tree would serialise the pool workers exactly on the paths this
/// subsystem exists to measure (see DESIGN.md, "Observability").
///
/// Tracing is compiled in but runtime-toggled: the initial state comes
/// from the TSAUG_TRACE environment variable (read once at first use;
/// unset, empty or "0" means off) and Enable()/Disable() switch it at any
/// point. When disabled, a Scope or AddCount costs one relaxed atomic
/// load. Tracing never draws randomness and never feeds timing back into
/// computation, so enabling it cannot perturb RNG streams or bitwise
/// determinism at any thread count.

/// True when tracing is recording.
bool Enabled();
void Enable();
void Disable();

/// Drops every recorded scope and counter on all threads. Only call when
/// no Scope object is alive on any thread (scopes hold pointers into the
/// trees being cleared).
void Reset();

/// Adds `delta` to the named monotonic counter (no-op while disabled).
/// `name` must be a stable identifier like "parallel.chunks.worker".
void AddCount(const char* name, std::int64_t delta = 1);

/// Value of one counter summed across all threads (0 if never touched).
std::int64_t CounterValue(const std::string& name);

/// All counters summed across threads, name-sorted.
std::map<std::string, std::int64_t> Counters();

/// RAII scoped timer: while alive, wall time (steady clock) accrues to a
/// tree node named `name` under the calling thread's innermost open
/// scope. Scopes strictly nest per thread; a scope opened inside a
/// ParallelFor body roots at the worker thread's tree and is merged with
/// same-named nodes on export.
class Scope {
 public:
  explicit Scope(const char* name);
  explicit Scope(const std::string& name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  void* node_ = nullptr;  // opaque tree node; null when tracing is off
  std::int64_t start_ns_ = 0;
};

/// Aggregated statistics of one scope name at one tree depth.
struct ScopeStats {
  std::string name;
  std::int64_t count = 0;     // completed entries
  std::int64_t total_ns = 0;  // summed wall time, steady clock
  std::vector<ScopeStats> children;  // name-sorted
};

/// The profile forest merged across all threads: same-named nodes at the
/// same depth are summed, and every level is name-sorted, so the result
/// is independent of thread scheduling given deterministic work.
std::vector<ScopeStats> MergedScopes();

/// Machine-readable report. Schema (the BENCH_*.json feed):
///   {"trace_version": 1,
///    "enabled": true|false,
///    "counters": {"<name>": <int>, ...},
///    "scopes": [{"name": "<name>", "count": <int>, "total_ns": <int>,
///                "children": [<scope>, ...]}, ...]}
std::string ReportJson();

/// Monotonic nanosecond stamp. Implemented on std::chrono::steady_clock in
/// trace.cc — one of the repo's two sanctioned clock reads, the other
/// being core/cancel.cc's deadlines (tools/lint_tsaug.py exempts exactly
/// those files' steady_clock use from no-wall-clock).
std::int64_t NowNanos();

/// Free-standing monotonic stopwatch for code that records durations into
/// its own results (e.g. TrainResult::epoch_seconds) independent of the
/// Enabled() toggle.
class Stopwatch {
 public:
  Stopwatch() : start_ns_(NowNanos()) {}
  void Restart() { start_ns_ = NowNanos(); }
  double Seconds() const {
    return static_cast<double>(NowNanos() - start_ns_) * 1e-9;
  }

 private:
  std::int64_t start_ns_;
};

}  // namespace tsaug::core::trace

// Two-step concatenation so __COUNTER__ expands before pasting.
#define TSAUG_TRACE_CONCAT_(a, b) a##b
#define TSAUG_TRACE_CONCAT(a, b) TSAUG_TRACE_CONCAT_(a, b)

/// Times the enclosing block under `name` when tracing is enabled; costs
/// one relaxed atomic load when disabled.
#define TSAUG_TRACE_SCOPE(name)                                     \
  ::tsaug::core::trace::Scope TSAUG_TRACE_CONCAT(tsaug_trace_scope_, \
                                                 __COUNTER__)(name)

#endif  // TSAUG_CORE_TRACE_H_
