#include "classify/nearest_neighbor.h"

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/preprocess.h"
#include "data/synthetic.h"
#include "linalg/distance.h"

namespace tsaug::classify {
namespace {

data::TrainTest SmallData(std::uint64_t seed = 1) {
  data::SyntheticSpec spec;
  spec.num_classes = 3;
  spec.train_counts = {8, 8, 8};
  spec.test_counts = {4, 4, 4};
  spec.num_channels = 2;
  spec.length = 24;
  spec.class_separation = 1.5;
  spec.seed = seed;
  return data::MakeSynthetic(spec);
}

/// Brute-force 1-NN DTW: the label of the lexicographic argmin over
/// (DTW distance with a band of 4, label) between the imputed,
/// z-normalised query and every imputed, z-normalised training series.
std::vector<int> OracleOneNnDtw(const core::Dataset& train,
                                const core::Dataset& test) {
  auto prepare = [](const core::TimeSeries& s) {
    return core::ZNormalize(core::ImputeLinear(s));
  };
  std::vector<int> predictions;
  for (int i = 0; i < test.size(); ++i) {
    const core::TimeSeries query = prepare(test.series(i));
    std::vector<std::pair<double, int>> scored;
    for (int j = 0; j < train.size(); ++j) {
      scored.emplace_back(
          linalg::DtwDistance(query, prepare(train.series(j)), 4),
          train.label(j));
    }
    predictions.push_back(
        std::min_element(scored.begin(), scored.end())->second);
  }
  return predictions;
}

TEST(KnnClassifier, NameIsOneNnDtw) {
  EXPECT_EQ(KnnClassifier().name(), "1-NN-DTW");
}

TEST(KnnClassifier, OneNnDtwClassifiesSeparableData) {
  const data::TrainTest data = SmallData();
  KnnClassifier clf;
  ASSERT_TRUE(clf.TryFit(data.train).ok());
  EXPECT_GE(clf.Score(data.test), 0.75);
}

TEST(KnnClassifier, TrainingInstancePredictsItself) {
  const data::TrainTest data = SmallData(3);
  KnnClassifier clf;
  ASSERT_TRUE(clf.TryFit(data.train).ok());
  EXPECT_DOUBLE_EQ(clf.Score(data.train), 1.0);
}

TEST(KnnClassifier, MatchesBruteForceOracleWithMissingValues) {
  // Overlapping classes, so the nearest neighbour turns on fine distance
  // differences, and queries under a per-series gain and offset, which
  // only z-normalisation undoes.
  data::SyntheticSpec spec;
  spec.num_classes = 3;
  spec.train_counts = {10, 10, 10};
  spec.test_counts = {10, 10, 10};
  spec.num_channels = 2;
  spec.length = 40;
  spec.class_separation = 0.3;
  spec.instance_variability = 0.6;
  spec.missing_prop = 0.1;
  spec.seed = 5;
  const data::TrainTest data = data::MakeSynthetic(spec);
  core::Dataset test(data.test.num_classes());
  int missing = 0;
  for (int i = 0; i < data.test.size(); ++i) {
    core::TimeSeries query = data.test.series(i);
    missing += query.CountMissing();
    for (int c = 0; c < query.num_channels(); ++c) {
      for (int t = 0; t < query.length(); ++t) {
        query.at(c, t) = (1.0 + 0.5 * (i % 4)) * query.at(c, t) + (i % 3);
      }
    }
    test.Add(std::move(query), data.test.label(i));
  }
  ASSERT_GT(missing, 0);
  KnnClassifier clf;
  ASSERT_TRUE(clf.TryFit(data.train).ok());
  EXPECT_EQ(clf.Predict(test), OracleOneNnDtw(data.train, test));
}

TEST(KnnClassifier, ExactDistanceTieGoesToTheSmallerLabel) {
  // Two copies of one series under labels 2 and 0, the label-2 copy
  // first: both are at the same distance from every query, so only the
  // label decides, and a third, distant series never wins.
  const data::TrainTest data = SmallData(6);
  core::Dataset train(3);
  train.Add(data.train.series(0), 2);
  train.Add(data.train.series(1), 1);
  train.Add(data.train.series(0), 0);
  core::Dataset test(3);
  test.Add(data.train.series(0), 0);
  test.Add(data.test.series(0), data.test.label(0));
  KnnClassifier clf;
  ASSERT_TRUE(clf.TryFit(train).ok());
  const std::vector<int> predictions = clf.Predict(test);
  EXPECT_EQ(predictions, OracleOneNnDtw(train, test));
  EXPECT_EQ(predictions[0], 0);
}

TEST(KnnClassifier, EmptyTrainingSetFailsTyped) {
  KnnClassifier clf;
  const core::Status status = clf.TryFit(core::Dataset(2));
  EXPECT_EQ(status.code(), core::StatusCode::kDegenerateInput)
      << status.ToString();
}

TEST(Accuracy, CountsMatches) {
  EXPECT_DOUBLE_EQ(Accuracy({1, 2, 3}, {1, 2, 0}), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(Accuracy({}, {}), 0.0);
}

}  // namespace
}  // namespace tsaug::classify
