// The TSAUG_* settings and command-line flags the grid benches start
// from, with eval/report.h for the rest of their API. A malformed value is
// a usage error: the bench prints the Status and exits before any work, 1
// for an environment variable and 2 for a flag. A typed failure of a grid
// or score call (say, a journal written under another configuration) also
// prints its Status and exits 1, never an abort.
#ifndef TSAUG_BENCH_BENCH_SETTINGS_H_
#define TSAUG_BENCH_BENCH_SETTINGS_H_

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "eval/report.h"

namespace tsaug::bench {

/// The value of `result`, or, on an error, its Status on stderr and exit 1.
template <typename T>
T ValueOrExit(core::StatusOr<T> result) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

inline eval::BenchSettings ReadSettingsOrExit() {
  return ValueOrExit(eval::ReadBenchSettings());
}

inline void ApplyGridFlagsOrExit(int argc, char** argv,
                                 eval::BenchSettings& settings) {
  const core::Status parsed = eval::ApplyGridFlags(argc, argv, settings);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    std::exit(2);
  }
}

}  // namespace tsaug::bench

#endif  // TSAUG_BENCH_BENCH_SETTINGS_H_
