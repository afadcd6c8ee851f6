#ifndef TSAUG_CORE_PREPROCESS_H_
#define TSAUG_CORE_PREPROCESS_H_

#include "core/dataset.h"
#include "core/time_series.h"

namespace tsaug::core {

/// Per-channel z-normalisation: each channel is shifted to mean 0 and
/// scaled to unit standard deviation (channels with ~zero variance are only
/// centred). NaNs are ignored by the statistics and left in place.
TimeSeries ZNormalize(const TimeSeries& series);

/// Replaces NaN runs by linear interpolation between the nearest observed
/// neighbours; leading/trailing NaNs take the nearest observed value. A
/// fully-missing channel becomes zeros.
TimeSeries ImputeLinear(const TimeSeries& series);

/// Linearly resamples the series to `target_length` steps per channel.
TimeSeries ResampleToLength(const TimeSeries& series, int target_length);

/// Resamples every instance to the collection's maximum length, making a
/// variable-length dataset rectangular.
Dataset ResampleToMaxLength(const Dataset& dataset);

}  // namespace tsaug::core

#endif  // TSAUG_CORE_PREPROCESS_H_
