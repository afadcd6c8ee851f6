#ifndef TSAUG_CORE_TIME_SERIES_H_
#define TSAUG_CORE_TIME_SERIES_H_

#include <span>
#include <vector>

#include "core/check.h"

namespace tsaug::core {

/// A multivariate time series: `num_channels` variables observed at
/// `length` time steps (the paper's M-dimensional points x_t over T steps).
///
/// Storage is channel-major (each channel's samples are contiguous), which
/// matches how augmenters and convolutional classifiers sweep the data.
/// Missing observations are represented as NaN.
class TimeSeries {
 public:
  TimeSeries() = default;

  /// A series of `num_channels` x `length` filled with `fill`.
  TimeSeries(int num_channels, int length, double fill = 0.0);

  /// Builds a series from per-channel sample vectors; all channels must
  /// have equal length.
  static TimeSeries FromChannels(
      const std::vector<std::vector<double>>& channels);

  /// Builds a univariate series from one sample vector.
  static TimeSeries FromValues(const std::vector<double>& values);

  int num_channels() const { return num_channels_; }
  int length() const { return length_; }
  bool empty() const { return values_.empty(); }

  /// Mutable/const access to the sample of channel `c` at step `t`.
  /// Bounds are verified in debug / TSAUG_BOUNDS_CHECK builds.
  double& at(int c, int t) {
    TSAUG_DCHECK(c >= 0 && c < num_channels_ && t >= 0 && t < length_);
    return values_[offset(c, t)];
  }
  double at(int c, int t) const {
    TSAUG_DCHECK(c >= 0 && c < num_channels_ && t >= 0 && t < length_);
    return values_[offset(c, t)];
  }

  /// Contiguous view of one channel.
  std::span<double> channel(int c) {
    TSAUG_CHECK(c >= 0 && c < num_channels_);
    return {values_.data() + offset(c, 0), static_cast<size_t>(length_)};
  }
  std::span<const double> channel(int c) const {
    TSAUG_CHECK(c >= 0 && c < num_channels_);
    return {values_.data() + offset(c, 0), static_cast<size_t>(length_)};
  }

  /// Raw channel-major buffer (size num_channels * length).
  const std::vector<double>& values() const { return values_; }
  std::vector<double>& values() { return values_; }

  /// The series flattened channel-major into a feature vector; the spatial
  /// representation used by SMOTE-family and covariance-based augmenters.
  std::vector<double> Flatten() const { return values_; }

  /// Inverse of Flatten().
  static TimeSeries FromFlat(const std::vector<double>& flat,
                             int num_channels, int length);

  /// Number of NaN observations.
  int CountMissing() const;

  /// Mean and standard deviation of channel `c`, ignoring NaNs.
  double ChannelMean(int c) const;
  double ChannelStdDev(int c) const;

  bool operator==(const TimeSeries& other) const = default;

 private:
  size_t offset(int c, int t) const {
    return static_cast<size_t>(c) * static_cast<size_t>(length_) +
           static_cast<size_t>(t);
  }

  int num_channels_ = 0;
  int length_ = 0;
  std::vector<double> values_;  // channel-major
};

}  // namespace tsaug::core

#endif  // TSAUG_CORE_TIME_SERIES_H_
