// The TSAUG_* settings and command-line flags the grid benches start
// from, with eval/report.h for the rest of their API. A malformed value is
// a usage error: the bench prints the Status and exits before any work, 1
// for an environment variable and 2 for a flag.
#ifndef TSAUG_BENCH_BENCH_SETTINGS_H_
#define TSAUG_BENCH_BENCH_SETTINGS_H_

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "eval/report.h"

namespace tsaug::bench {

inline eval::BenchSettings ReadSettingsOrExit() {
  core::StatusOr<eval::BenchSettings> settings = eval::ReadBenchSettings();
  if (!settings.ok()) {
    std::fprintf(stderr, "%s\n", settings.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(settings).value();
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
