// The TSAUG_* settings the grid benches start from, with eval/report.h
// for the rest of their API. A malformed value is a usage error: the bench
// prints the Status and exits 1 before any work.
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

}  // namespace tsaug::bench

#endif  // TSAUG_BENCH_BENCH_SETTINGS_H_
