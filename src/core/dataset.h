#ifndef TSAUG_CORE_DATASET_H_
#define TSAUG_CORE_DATASET_H_

#include <string>
#include <vector>

#include "core/rng.h"
#include "core/time_series.h"

namespace tsaug::core {

/// A labelled collection of multivariate time series.
///
/// Labels are dense integers in [0, num_classes). Series may have different
/// lengths (several UEA datasets are variable-length); helpers report
/// whether the collection is rectangular.
class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(int num_classes) : num_classes_(num_classes) {}

  /// Appends one labelled series. Grows num_classes if `label` is new.
  void Add(TimeSeries series, int label);

  int size() const { return static_cast<int>(series_.size()); }
  bool empty() const { return series_.empty(); }
  int num_classes() const { return num_classes_; }

  const TimeSeries& series(int i) const {
    TSAUG_CHECK(i >= 0 && i < size());
    return series_[static_cast<size_t>(i)];
  }
  TimeSeries& mutable_series(int i) {
    TSAUG_CHECK(i >= 0 && i < size());
    return series_[static_cast<size_t>(i)];
  }
  int label(int i) const {
    TSAUG_CHECK(i >= 0 && i < size());
    return labels_[static_cast<size_t>(i)];
  }
  const std::vector<int>& labels() const { return labels_; }

  /// Number of channels (requires a non-empty, channel-consistent set).
  int num_channels() const;

  /// Maximum / minimum series length in the collection.
  int max_length() const;
  int min_length() const;

  /// True if all series share one length.
  bool IsRectangular() const;

  /// Instance count per class (size num_classes).
  std::vector<int> ClassCounts() const;

  /// Indices of the instances of each class.
  std::vector<std::vector<int>> IndicesByClass() const;

  /// The label with the most instances (ties -> smallest label).
  int MajorityClass() const;

  /// A dataset containing the given instance indices.
  Dataset Subset(const std::vector<int>& indices) const;

  /// Splits into (first, second) with `first_fraction` of each class in the
  /// first part, preserving class proportions. Order within a class is
  /// randomised by `rng`.
  std::pair<Dataset, Dataset> StratifiedSplit(double first_fraction,
                                              Rng& rng) const;

 private:
  std::vector<TimeSeries> series_;
  std::vector<int> labels_;
  int num_classes_ = 0;
};

}  // namespace tsaug::core

#endif  // TSAUG_CORE_DATASET_H_
