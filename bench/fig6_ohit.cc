// Reproduces Figure 6: structure-preserving OHIT. A two-mode minority
// class is clustered with SNN density clustering; samples are drawn from
// per-cluster shrinkage-covariance Gaussians, so they respect the class's
// modality instead of averaging across modes (which naive interpolation
// between random members would do).
#include <cmath>
#include <cstdio>

#include "augment/oversample.h"
#include "augment/preserving.h"
#include "fig_demo_common.h"

int main(int argc, char** argv) {
  const std::string trace_path = tsaug::bench::EnableTraceFromArgs(argc, argv);

  using tsaug::bench::Point2d;
  tsaug::core::Rng data_rng(5);
  tsaug::core::Dataset data;
  // Minority class 1: two elongated modes.
  for (int i = 0; i < 8; ++i) {
    data.Add(Point2d(data_rng.Normal(0.0, 1.0), 4 + data_rng.Normal(0.0, 0.2)), 1);
    data.Add(Point2d(6 + data_rng.Normal(0.0, 0.3), data_rng.Normal(0.0, 1.0)), 1);
  }
  // Majority class 0 elsewhere.
  for (int i = 0; i < 40; ++i) {
    data.Add(Point2d(-5 + data_rng.Normal(0.0, 0.5),
                     -5 + data_rng.Normal(0.0, 0.5)),
             0);
  }

  std::printf("FIGURE 6: structure-preserving OHIT\n");
  std::printf("kind,x,y\n");
  tsaug::bench::PrintDataset(data, 16);

  tsaug::augment::Ohit ohit;
  const std::vector<int> clusters = ohit.ClusterClass(data, 1);
  int num_clusters = 0;
  for (int c : clusters) num_clusters = std::max(num_clusters, c + 1);
  std::printf("\nSNN clustering found %d clusters over %zu minority points\n",
              num_clusters, clusters.size());

  tsaug::core::Rng rng(6);
  const auto generated = ohit.TryGenerate(data, 1, 24, rng).value();
  tsaug::bench::PrintPoints("generated_ohit", generated, 24);

  // Quantify mode preservation vs naive interpolation: fraction of samples
  // falling in the empty region between the two modes.
  auto in_gap = [](const tsaug::core::TimeSeries& p) {
    const double x = tsaug::bench::PointX(p);
    const double y = tsaug::bench::PointY(p);
    return x > 1.8 && x < 4.2 && y > 1.2 && y < 3.2;  // between the modes
  };
  int ohit_gap = 0;
  for (const auto& p : generated) ohit_gap += in_gap(p) ? 1 : 0;

  tsaug::augment::RandomInterpolation naive;
  tsaug::core::Rng rng2(6);
  int naive_gap = 0;
  const auto naive_generated = naive.TryGenerate(data, 1, 24, rng2).value();
  for (const auto& p : naive_generated) naive_gap += in_gap(p) ? 1 : 0;

  std::printf("\nSamples landing between the modes (out of 24):\n");
  std::printf("  OHIT:                 %d\n", ohit_gap);
  std::printf("  naive interpolation:  %d\n", naive_gap);
  std::printf("OHIT keeps each cluster's covariance structure (paper "
              "Sec. III-C2).\n");
  if (!tsaug::bench::WriteTraceJson(trace_path)) {
    std::fprintf(stderr, "failed to write trace JSON to %s\n",
                 trace_path.c_str());
    return 1;
  }
  return 0;
}
