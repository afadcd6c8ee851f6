// Shared scaffolding for the Figure 2/3/5/6 demonstration benches: a 2-D
// two-class dataset (each point is a 2-channel, length-1 series, exactly
// the "data point" view the paper's scatter figures use), plus helpers to
// print points and measure decision-boundary violations.
#ifndef TSAUG_BENCH_FIG_DEMO_COMMON_H_
#define TSAUG_BENCH_FIG_DEMO_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "augment/augmenter.h"
#include "core/dataset.h"
#include "core/flags.h"
#include "core/io.h"
#include "core/rng.h"
#include "core/trace.h"
#include "linalg/distance.h"

namespace tsaug::bench {

/// Parses `--trace-json <path>` (or `--trace-json=<path>`) from the
/// bench's argv; when present, enables tracing (core/trace.h) and returns
/// the output path (empty otherwise). Any other argument, or the flag
/// without a path, prints the Status and exits 2. Call once at the top of
/// main().
inline std::string EnableTraceFromArgs(int argc, char** argv) {
  std::string path;
  const core::Status parsed =
      core::ParseFlags(argc, argv, {core::StringFlag("--trace-json", &path)});
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    std::exit(2);
  }
  if (!path.empty()) core::trace::Enable();
  return path;
}

/// Writes the merged JSON trace report to `path` (no-op on an empty path,
/// i.e. when --trace-json was not given). Returns false on I/O failure.
inline bool WriteTraceJson(const std::string& path) {
  return path.empty() || core::WriteFile(path, core::trace::ReportJson()).ok();
}

/// A 2-D point encoded as one channel with two steps: this keeps Eq. (6)'s
/// per-dimension std well-defined (a length-1 channel has zero std, which
/// would silence noise injection entirely).
inline core::TimeSeries Point2d(double x, double y) {
  return core::TimeSeries::FromChannels({{x, y}});
}

inline double PointX(const core::TimeSeries& p) { return p.at(0, 0); }
inline double PointY(const core::TimeSeries& p) { return p.at(0, 1); }

/// Two Gaussian classes: class 0 at (0,0) (majority), class 1 at
/// (separation, 0) (minority), stddev sigma each.
inline core::Dataset TwoGaussians(int majority, int minority,
                                  double separation, double sigma,
                                  std::uint64_t seed) {
  core::Rng rng(seed);
  core::Dataset data;
  for (int i = 0; i < majority; ++i) {
    data.Add(Point2d(rng.Normal(0.0, sigma), rng.Normal(0.0, sigma)), 0);
  }
  for (int i = 0; i < minority; ++i) {
    data.Add(Point2d(separation + rng.Normal(0.0, sigma),
                     rng.Normal(0.0, sigma)),
             1);
  }
  return data;
}

/// For equal spherical Gaussians the Bayes decision boundary is the
/// perpendicular bisector x = separation / 2; returns true if the point
/// lies on the wrong side for `label`.
inline bool CrossesBoundary(const core::TimeSeries& point, int label,
                            double separation) {
  const double x = PointX(point);
  return label == 1 ? x < separation / 2.0 : x > separation / 2.0;
}

inline void PrintPoints(const char* tag,
                        const std::vector<core::TimeSeries>& points,
                        int limit = 12) {
  for (int i = 0; i < std::min(limit, static_cast<int>(points.size())); ++i) {
    std::printf("%s,%.4f,%.4f\n", tag, PointX(points[static_cast<size_t>(i)]), PointY(points[static_cast<size_t>(i)]));
  }
}

inline void PrintDataset(const core::Dataset& data, int limit = 12) {
  int printed[2] = {0, 0};
  for (int i = 0; i < data.size(); ++i) {
    const int label = data.label(i);
    if (printed[label]++ < limit) {
      std::printf("class%d,%.4f,%.4f\n", label, PointX(data.series(i)),
                  PointY(data.series(i)));
    }
  }
}

/// Runs an augmenter on the minority class and reports how many generated
/// points cross the Bayes boundary — the quantitative version of what the
/// paper's figures show visually.
inline int CountViolations(augment::Augmenter& augmenter,
                           const core::Dataset& data, double separation,
                           int count, std::uint64_t seed) {
  core::Rng rng(seed);
  int violations = 0;
  const auto generated = augmenter.TryGenerate(data, 1, count, rng).value();
  for (const core::TimeSeries& p : generated) {
    violations += CrossesBoundary(p, 1, separation) ? 1 : 0;
  }
  return violations;
}

}  // namespace tsaug::bench

#endif  // TSAUG_BENCH_FIG_DEMO_COMMON_H_
