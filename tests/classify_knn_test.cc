#include "classify/nearest_neighbor.h"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"

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

TEST(KnnClassifier, NamesReflectConfig) {
  EXPECT_EQ(KnnClassifier(1, NnDistance::kDtw).name(), "1-NN-DTW");
  EXPECT_EQ(KnnClassifier(3, NnDistance::kEuclidean).name(), "3-NN-Euclidean");
}

TEST(KnnClassifier, OneNnDtwClassifiesSeparableData) {
  const data::TrainTest data = SmallData();
  KnnClassifier clf(1, NnDistance::kDtw, /*dtw_window=*/4);
  ASSERT_TRUE(clf.TryFit(data.train).ok());
  EXPECT_GE(clf.Score(data.test), 0.75);
}

TEST(KnnClassifier, EuclideanVariantWorks) {
  const data::TrainTest data = SmallData(2);
  KnnClassifier clf(1, NnDistance::kEuclidean);
  ASSERT_TRUE(clf.TryFit(data.train).ok());
  EXPECT_GE(clf.Score(data.test), 0.7);
}

TEST(KnnClassifier, TrainingInstancePredictsItself) {
  const data::TrainTest data = SmallData(3);
  KnnClassifier clf(1, NnDistance::kEuclidean);
  ASSERT_TRUE(clf.TryFit(data.train).ok());
  EXPECT_DOUBLE_EQ(clf.Score(data.train), 1.0);
}

TEST(KnnClassifier, KThreeMajorityVote) {
  const data::TrainTest data = SmallData(4);
  KnnClassifier clf(3, NnDistance::kEuclidean);
  ASSERT_TRUE(clf.TryFit(data.train).ok());
  const std::vector<int> predictions = clf.Predict(data.test);
  EXPECT_EQ(predictions.size(), 12u);
  for (int p : predictions) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 3);
  }
}

TEST(KnnClassifier, EmptyTrainingSetFailsTyped) {
  KnnClassifier clf(1, NnDistance::kEuclidean);
  const core::Status status = clf.TryFit(core::Dataset(2));
  EXPECT_EQ(status.code(), core::StatusCode::kDegenerateInput)
      << status.ToString();
}

TEST(KnnClassifier, VoteTieGoesToLabelWithNearestMember) {
  // Labels 1 and 2 both get two of the five votes; label 2's member at
  // 0.2 is nearer the query than label 1's nearest at 0.3.
  core::Dataset train(3);
  const std::vector<std::pair<double, int>> points = {
      {0.1, 0}, {0.2, 2}, {0.3, 1}, {0.4, 1}, {0.5, 2}};
  for (const auto& [value, label] : points) {
    train.Add(core::TimeSeries(1, 1, value), label);
  }
  core::Dataset test(3);
  test.Add(core::TimeSeries(1, 1, 0.0), 2);
  KnnClassifier clf(5, NnDistance::kEuclidean, -1, /*z_normalize=*/false);
  ASSERT_TRUE(clf.TryFit(train).ok());
  EXPECT_EQ(clf.Predict(test), std::vector<int>{2});
}

TEST(Accuracy, CountsMatches) {
  EXPECT_DOUBLE_EQ(Accuracy({1, 2, 3}, {1, 2, 0}), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(Accuracy({}, {}), 0.0);
}

}  // namespace
}  // namespace tsaug::classify
