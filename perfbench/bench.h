// Shared pieces of tsaug_bench: run options, the plain-text
// result lines the wrapper (run.py) parses, and the in-memory span log of
// the traced run.
//
// Output protocol, one record per line on stdout:
//   host <key> <value>
//   metric <name> <value> <unit>
//   check <name> ok|FAIL <detail>
//   result <attempted> <failed>
#ifndef TSAUG_PERFBENCH_BENCH_H_
#define TSAUG_PERFBENCH_BENCH_H_

#include <sched.h>

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace tsaug::perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  /// Measurement budget of one run, seconds.
  double seconds = 20.0;
  /// Traced run: per-layer metrics from spans instead of end-to-end ones.
  bool traced = false;
  /// Shrinks every workload to a size that finishes in about a second.
  bool smoke = false;
  int threads = 1;
  /// "<workload> <seed> <seconds> <digest>" lines; "" = no golden check.
  std::string golden_path;
  /// Directory for canonical reports and the span dump.
  std::string work_dir = ".";
};

/// Metrics, counts and checks of one run. Checks print as they happen; a
/// failed one marks the operations it covers as failed. Which metrics a
/// run must print, and in which units, is BENCHMARK.json's business:
/// run.py checks the printed lines against it.
class RunRecord {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Check(const std::string& name, bool ok, const std::string& detail,
             std::int64_t operations_on_failure);
  void Attempt(std::int64_t operations, std::int64_t failed);
  /// Compares `digest` with the golden line for (workload, seed, seconds)
  /// when the golden file has one; otherwise prints the digest as a note.
  void GoldenCheck(const Options& options, const std::string& digest,
                   std::int64_t operations_on_failure);
  /// Prints every recorded metric, then the result line.
  void PrintResult() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// 64-bit FNV-1a over `bytes`, as 16 hex digits.
std::string Digest(const std::string& bytes);

/// Linear-interpolated quantile (q in [0,1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

/// Peak resident set size of this process, MiB.
double PeakRssMb();

/// Monotonic seconds (core::trace::NowNanos).
double NowSeconds();

/// Pins the calling thread to the `turn`-th CPU (modulo their count) of
/// its affinity mask, and restores the mask on destruction. On a shared
/// host one CPU can run at half speed for tens of seconds while the
/// others do not; giving successive repetitions of a step driven from one
/// thread successive turns spreads them over every CPU, so their median
/// or best does not depend on where the scheduler happened to keep that
/// thread. Threads started while pinned inherit the one-CPU mask.
class CpuPin {
 public:
  explicit CpuPin(int turn);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t original_;
  bool pinned_ = false;
};

/// Set-up time of a run, seconds: `rounds` rounds that each call
/// `set_up` (which returns the seconds its set-up took) once pinned to
/// every CPU of the affinity mask (CpuPin). A round counts its fastest
/// set-up, which leaves out a CPU that another tenant is slowing at the
/// time, and the result is the median round.
double TimeSetUp(int rounds, const std::function<double()>& set_up);

/// One timed interval of the traced run. `parent` indexes the same
/// SpanLog (-1 for a root); `owner` names the grid cell
/// ("dataset/run/cell") or request ("req/<index>") the work belongs to.
struct Span {
  std::string name;
  std::string owner;
  int parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// Spans recorded by one thread at a time: the traced grid gives every
/// cell its own log, so workers append without locking.
class SpanLog {
 public:
  int Open(std::string name, std::string owner, int parent);
  void Close(int id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, std::string owner,
             int parent = -1);
  ~ScopedSpan() { log_.Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

/// Summed duration of every span named `name` across `logs`.
double SumSeconds(const std::vector<SpanLog>& logs, const std::string& name);

/// Writes every span of `logs` to `path` as tab-separated
/// `log id parent owner name start_ns end_ns` lines.
void WriteSpans(const std::string& path, const std::vector<SpanLog>& logs);

void RunGridWorkload(const Options& options);
void RunServeWorkload(const Options& options);
bool IsGridWorkload(const std::string& name);
bool IsServeWorkload(const std::string& name);

}  // namespace tsaug::perfbench

#endif  // TSAUG_PERFBENCH_BENCH_H_
