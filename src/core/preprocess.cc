#include "core/preprocess.h"

#include <cmath>

namespace tsaug::core {

TimeSeries ZNormalize(const TimeSeries& series) {
  TimeSeries out = series;
  for (int c = 0; c < out.num_channels(); ++c) {
    const double mean = series.ChannelMean(c);
    const double stddev = series.ChannelStdDev(c);
    for (double& v : out.channel(c)) {
      if (std::isnan(v)) continue;
      v = stddev > 1e-12 ? (v - mean) / stddev : v - mean;
    }
  }
  return out;
}

TimeSeries ImputeLinear(const TimeSeries& series) {
  TimeSeries out = series;
  for (int c = 0; c < out.num_channels(); ++c) {
    std::span<double> channel = out.channel(c);
    const int length = static_cast<int>(channel.size());
    int prev_observed = -1;
    for (int t = 0; t < length; ++t) {
      if (std::isnan(channel[static_cast<size_t>(t)])) continue;
      if (prev_observed < 0) {
        // Leading gap: backfill with the first observed value.
        for (int s = 0; s < t; ++s) channel[static_cast<size_t>(s)] = channel[static_cast<size_t>(t)];
      } else if (prev_observed < t - 1) {
        const double lo = channel[static_cast<size_t>(prev_observed)];
        const double hi = channel[static_cast<size_t>(t)];
        const int gap = t - prev_observed;
        for (int s = prev_observed + 1; s < t; ++s) {
          channel[static_cast<size_t>(s)] = lo + (hi - lo) * (s - prev_observed) / gap;
        }
      }
      prev_observed = t;
    }
    if (prev_observed < 0) {
      // Fully missing channel.
      for (double& v : channel) v = 0.0;
    } else {
      // Trailing gap: forward-fill with the last observed value.
      for (int s = prev_observed + 1; s < length; ++s) {
        channel[static_cast<size_t>(s)] = channel[static_cast<size_t>(prev_observed)];
      }
    }
  }
  return out;
}

TimeSeries ResampleToLength(const TimeSeries& series, int target_length) {
  TSAUG_CHECK(target_length > 0 && series.length() > 0);
  if (series.length() == target_length) return series;
  TimeSeries out(series.num_channels(), target_length);
  for (int c = 0; c < series.num_channels(); ++c) {
    for (int t = 0; t < target_length; ++t) {
      // Map [0, target_length-1] onto [0, length-1].
      const double src =
          target_length == 1
              ? 0.0
              : static_cast<double>(t) * (series.length() - 1) /
                    (target_length - 1);
      const int lo = static_cast<int>(src);
      const int hi = std::min(lo + 1, series.length() - 1);
      const double frac = src - lo;
      out.at(c, t) = (1.0 - frac) * series.at(c, lo) + frac * series.at(c, hi);
    }
  }
  return out;
}

Dataset ResampleToMaxLength(const Dataset& dataset) {
  if (dataset.empty()) return dataset;
  const int target = dataset.max_length();
  Dataset out(dataset.num_classes());
  for (int i = 0; i < dataset.size(); ++i) {
    out.Add(ResampleToLength(dataset.series(i), target), dataset.label(i));
  }
  return out;
}

}  // namespace tsaug::core
