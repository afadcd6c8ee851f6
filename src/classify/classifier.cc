#include "classify/classifier.h"

#include "core/preprocess.h"

namespace tsaug::classify {

double Accuracy(const std::vector<int>& predicted,
                const std::vector<int>& labels) {
  TSAUG_CHECK(predicted.size() == labels.size());
  if (labels.empty()) return 0.0;
  int correct = 0;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (predicted[i] == labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(labels.size());
}

double Classifier::Score(const core::Dataset& test) {
  return Accuracy(Predict(test), test.labels());
}

nn::Tensor DatasetToTensor(const core::Dataset& dataset, int target_length,
                           bool z_normalize) {
  TSAUG_CHECK(!dataset.empty() && target_length > 0);
  const int channels = dataset.num_channels();
  nn::Tensor out({dataset.size(), channels, target_length});
  for (int i = 0; i < dataset.size(); ++i) {
    core::TimeSeries series = core::ImputeLinear(dataset.series(i));
    if (series.length() != target_length) {
      series = core::ResampleToLength(series, target_length);
    }
    if (z_normalize) series = core::ZNormalize(series);
    for (int c = 0; c < channels; ++c) {
      for (int t = 0; t < target_length; ++t) {
        out.at(i, c, t) = series.at(c, t);
      }
    }
  }
  return out;
}

}  // namespace tsaug::classify
