#include "core/dataset.h"

#include <algorithm>
#include <utility>

namespace tsaug::core {

void Dataset::Add(TimeSeries series, int label) {
  TSAUG_CHECK(label >= 0);
  series_.push_back(std::move(series));
  labels_.push_back(label);
  num_classes_ = std::max(num_classes_, label + 1);
}

int Dataset::num_channels() const {
  TSAUG_CHECK(!empty());
  const int channels = series_[0].num_channels();
  for (const TimeSeries& s : series_) {
    TSAUG_CHECK(s.num_channels() == channels);
  }
  return channels;
}

int Dataset::max_length() const {
  TSAUG_CHECK(!empty());
  int max_len = 0;
  for (const TimeSeries& s : series_) max_len = std::max(max_len, s.length());
  return max_len;
}

int Dataset::min_length() const {
  TSAUG_CHECK(!empty());
  int min_len = series_[0].length();
  for (const TimeSeries& s : series_) min_len = std::min(min_len, s.length());
  return min_len;
}

bool Dataset::IsRectangular() const {
  if (empty()) return true;
  return max_length() == min_length();
}

std::vector<int> Dataset::ClassCounts() const {
  std::vector<int> counts(static_cast<size_t>(num_classes_), 0);
  for (int label : labels_) ++counts[static_cast<size_t>(label)];
  return counts;
}

std::vector<std::vector<int>> Dataset::IndicesByClass() const {
  std::vector<std::vector<int>> by_class(static_cast<size_t>(num_classes_));
  for (int i = 0; i < size(); ++i) by_class[static_cast<size_t>(labels_[static_cast<size_t>(i)])].push_back(i);
  return by_class;
}

int Dataset::MajorityClass() const {
  const std::vector<int> counts = ClassCounts();
  TSAUG_CHECK(!counts.empty());
  return static_cast<int>(
      std::max_element(counts.begin(), counts.end()) - counts.begin());
}

Dataset Dataset::Subset(const std::vector<int>& indices) const {
  Dataset out(num_classes_);
  for (int i : indices) out.Add(series(i), label(i));
  return out;
}

std::pair<Dataset, Dataset> Dataset::StratifiedSplit(double first_fraction,
                                                     Rng& rng) const {
  TSAUG_CHECK(first_fraction >= 0.0 && first_fraction <= 1.0);
  Dataset first(num_classes_);
  Dataset second(num_classes_);
  std::vector<std::vector<int>> by_class = IndicesByClass();
  for (std::vector<int>& members : by_class) {
    rng.Shuffle(members);
    // At least one instance goes to each side when the class has >= 2
    // members, so a stratified validation split never empties a class.
    int cut = static_cast<int>(static_cast<double>(members.size()) * first_fraction + 0.5);
    if (members.size() >= 2) {
      cut = std::clamp(cut, 1, static_cast<int>(members.size()) - 1);
    }
    for (int j = 0; j < static_cast<int>(members.size()); ++j) {
      (j < cut ? first : second).Add(series(members[static_cast<size_t>(j)]), label(members[static_cast<size_t>(j)]));
    }
  }
  return {std::move(first), std::move(second)};
}

}  // namespace tsaug::core
