#include "core/time_series.h"

#include <cmath>

namespace tsaug::core {

TimeSeries::TimeSeries(int num_channels, int length, double fill)
    : num_channels_(num_channels), length_(length) {
  TSAUG_CHECK(num_channels >= 0 && length >= 0);
  values_.assign(static_cast<size_t>(num_channels) * static_cast<size_t>(length), fill);
}

TimeSeries TimeSeries::FromChannels(
    const std::vector<std::vector<double>>& channels) {
  TSAUG_CHECK(!channels.empty());
  const int length = static_cast<int>(channels[0].size());
  TimeSeries series(static_cast<int>(channels.size()), length);
  for (int c = 0; c < series.num_channels_; ++c) {
    TSAUG_CHECK(static_cast<int>(channels[static_cast<size_t>(c)].size()) == length);
    for (int t = 0; t < length; ++t) series.at(c, t) = channels[static_cast<size_t>(c)][static_cast<size_t>(t)];
  }
  return series;
}

TimeSeries TimeSeries::FromValues(const std::vector<double>& values) {
  return FromChannels({values});
}

TimeSeries TimeSeries::FromFlat(const std::vector<double>& flat,
                                int num_channels, int length) {
  TSAUG_CHECK(static_cast<size_t>(num_channels) * static_cast<size_t>(length) == flat.size());
  TimeSeries series(num_channels, length);
  series.values_ = flat;
  return series;
}

int TimeSeries::CountMissing() const {
  int count = 0;
  for (double v : values_) {
    if (std::isnan(v)) ++count;
  }
  return count;
}

double TimeSeries::ChannelMean(int c) const {
  double sum = 0.0;
  int count = 0;
  for (double v : channel(c)) {
    if (!std::isnan(v)) {
      sum += v;
      ++count;
    }
  }
  return count > 0 ? sum / count : 0.0;
}

double TimeSeries::ChannelStdDev(int c) const {
  const double mean = ChannelMean(c);
  double sum_sq = 0.0;
  int count = 0;
  for (double v : channel(c)) {
    if (!std::isnan(v)) {
      sum_sq += (v - mean) * (v - mean);
      ++count;
    }
  }
  return count > 1 ? std::sqrt(sum_sq / count) : 0.0;
}

}  // namespace tsaug::core
