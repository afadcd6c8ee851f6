// End-to-end determinism of the parallelised hot paths: every public
// result must be bitwise identical for 1, 2 and 8 threads, because
// ParallelFor call sites only partition independent output slices and
// all shared-stream RNG draws stay in serial setup phases.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "augment/noise.h"
#include "augment/oversample.h"
#include "augment/timegan.h"
#include "augment/vae.h"
#include "classify/minirocket.h"
#include "classify/nearest_neighbor.h"
#include "classify/rocket.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/trace.h"
#include "eval/experiment.h"
#include "linalg/distance.h"
#include "linalg/knn.h"
#include "linalg/matrix.h"

namespace tsaug {
namespace {

class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(core::GetNumThreads()) {}
  ~ThreadCountGuard() { core::SetNumThreads(saved_); }

 private:
  int saved_;
};

const std::vector<int> kThreadCounts = {1, 2, 8};

data::TrainTest SmallData(std::uint64_t seed = 1) {
  data::SyntheticSpec spec;
  spec.num_classes = 2;
  spec.train_counts = {14, 6};
  spec.test_counts = {6, 6};
  spec.num_channels = 2;
  spec.length = 24;
  spec.class_separation = 1.2;
  spec.seed = seed;
  return data::MakeSynthetic(spec);
}

TEST(ParallelDeterminism, MatMulFamilyBitwiseIdentical) {
  ThreadCountGuard guard;
  core::Rng rng(7);
  linalg::Matrix a(37, 53), b(53, 29);
  for (double& v : a.data()) v = rng.Normal();
  for (double& v : b.data()) v = rng.Normal();
  linalg::Matrix at = a.Transposed();
  linalg::Matrix bt = b.Transposed();
  std::vector<double> x(53);
  for (double& v : x) v = rng.Normal();

  core::SetNumThreads(1);
  const linalg::Matrix ab = linalg::MatMul(a, b);
  const linalg::Matrix ata = linalg::MatMulTransposeA(at, b);
  const linalg::Matrix abt = linalg::MatMulTransposeB(a, bt);
  const std::vector<double> ax = linalg::MatVec(a, x);
  for (int threads : kThreadCounts) {
    core::SetNumThreads(threads);
    EXPECT_EQ(ab, linalg::MatMul(a, b)) << threads << " threads";
    EXPECT_EQ(ata, linalg::MatMulTransposeA(at, b)) << threads << " threads";
    EXPECT_EQ(abt, linalg::MatMulTransposeB(a, bt)) << threads << " threads";
    EXPECT_EQ(ax, linalg::MatVec(a, x)) << threads << " threads";
  }
}

TEST(ParallelDeterminism, RocketTransformAndPredictIdentical) {
  ThreadCountGuard guard;
  const data::TrainTest data = SmallData(3);

  core::SetNumThreads(1);
  classify::RocketTransform reference_transform(150, 11);
  reference_transform.Fit(2, 24);
  const nn::Tensor x = classify::DatasetToTensor(data.test, 24, true);
  const linalg::Matrix reference_features = reference_transform.Transform(x);

  classify::RocketClassifier reference(150, 11);
  reference.Fit(data.train);
  const std::vector<int> reference_predictions = reference.Predict(data.test);

  for (int threads : kThreadCounts) {
    core::SetNumThreads(threads);
    classify::RocketTransform transform(150, 11);
    transform.Fit(2, 24);
    EXPECT_EQ(reference_features, transform.Transform(x))
        << threads << " threads";

    classify::RocketClassifier clf(150, 11);
    clf.Fit(data.train);
    EXPECT_EQ(reference_predictions, clf.Predict(data.test))
        << threads << " threads";
  }
}

TEST(ParallelDeterminism, MiniRocketPredictIdentical) {
  ThreadCountGuard guard;
  const data::TrainTest data = SmallData(5);

  core::SetNumThreads(1);
  classify::MiniRocketClassifier reference(84, 2);
  reference.Fit(data.train);
  const std::vector<int> reference_predictions = reference.Predict(data.test);

  for (int threads : kThreadCounts) {
    core::SetNumThreads(threads);
    classify::MiniRocketClassifier clf(84, 2);
    clf.Fit(data.train);
    EXPECT_EQ(reference_predictions, clf.Predict(data.test))
        << threads << " threads";
  }
}

TEST(ParallelDeterminism, PairwiseDistancesIdentical) {
  ThreadCountGuard guard;
  const data::TrainTest data = SmallData(9);
  std::vector<core::TimeSeries> series;
  std::vector<std::vector<double>> points;
  for (int i = 0; i < data.train.size(); ++i) {
    series.push_back(data.train.series(i));
    points.push_back(data.train.series(i).values());
  }

  core::SetNumThreads(1);
  const std::vector<double> dtw_ref =
      linalg::PairwiseDtwDistances(series, /*window=*/5);
  const std::vector<double> euclid_ref = linalg::PairwiseDistances(points);
  const std::vector<int> snn_ref =
      linalg::SharedNearestNeighborSimilarity(points, 4);

  for (int threads : kThreadCounts) {
    core::SetNumThreads(threads);
    EXPECT_EQ(dtw_ref, linalg::PairwiseDtwDistances(series, 5))
        << threads << " threads";
    EXPECT_EQ(euclid_ref, linalg::PairwiseDistances(points))
        << threads << " threads";
    EXPECT_EQ(snn_ref, linalg::SharedNearestNeighborSimilarity(points, 4))
        << threads << " threads";
  }
}

TEST(ParallelDeterminism, DtwKnnPredictionsIdentical) {
  ThreadCountGuard guard;
  const data::TrainTest data = SmallData(13);

  core::SetNumThreads(1);
  classify::KnnClassifier reference(3, classify::NnDistance::kDtw,
                                    /*dtw_window=*/4);
  reference.Fit(data.train);
  const std::vector<int> reference_predictions = reference.Predict(data.test);

  for (int threads : kThreadCounts) {
    core::SetNumThreads(threads);
    classify::KnnClassifier clf(3, classify::NnDistance::kDtw, 4);
    clf.Fit(data.train);
    EXPECT_EQ(reference_predictions, clf.Predict(data.test))
        << threads << " threads";
  }
}

TEST(ParallelDeterminism, ExperimentGridIdentical) {
  ThreadCountGuard guard;
  const data::TrainTest data = SmallData(2);
  eval::ExperimentConfig config;
  config.model = eval::ModelKind::kRocket;
  config.runs = 2;
  config.rocket_kernels = 80;
  config.seed = 5;

  auto run_grid = [&] {
    // Fresh augmenters per call: they cache per-train-set state.
    std::vector<std::shared_ptr<augment::Augmenter>> techniques = {
        std::make_shared<augment::NoiseInjection>(1.0),
        std::make_shared<augment::Smote>(),
    };
    return eval::RunDatasetGrid("toy", data, techniques, config);
  };

  core::SetNumThreads(1);
  const eval::DatasetRow reference = run_grid();
  for (int threads : kThreadCounts) {
    core::SetNumThreads(threads);
    const eval::DatasetRow row = run_grid();
    EXPECT_EQ(reference.baseline_accuracy, row.baseline_accuracy)
        << threads << " threads";
    ASSERT_EQ(reference.cells.size(), row.cells.size());
    for (size_t i = 0; i < reference.cells.size(); ++i) {
      EXPECT_EQ(reference.cells[i].accuracy, row.cells[i].accuracy)
          << "cell " << reference.cells[i].technique << ", " << threads
          << " threads";
    }
  }
}

TEST(ParallelDeterminism, TracingEnabledGridIdentical) {
  // Tracing only reads the steady clock — never the RNG — so enabling it
  // must leave every grid cell bitwise identical at any thread count.
  // (CI also runs this whole binary under TSAUG_TRACE=1.)
  ThreadCountGuard thread_guard;
  const bool trace_was_enabled = core::trace::Enabled();
  const data::TrainTest data = SmallData(2);
  eval::ExperimentConfig config;
  config.model = eval::ModelKind::kRocket;
  config.runs = 2;
  config.rocket_kernels = 80;
  config.seed = 5;

  auto run_grid = [&] {
    // Fresh augmenters per call: they cache per-train-set state.
    std::vector<std::shared_ptr<augment::Augmenter>> techniques = {
        std::make_shared<augment::NoiseInjection>(1.0),
        std::make_shared<augment::Smote>(),
    };
    return eval::RunDatasetGrid("toy", data, techniques, config);
  };

  // Reference row computed with tracing off.
  core::trace::Disable();
  core::SetNumThreads(1);
  const eval::DatasetRow reference = run_grid();

  core::trace::Enable();
  for (int threads : kThreadCounts) {
    core::SetNumThreads(threads);
    const eval::DatasetRow row = run_grid();
    EXPECT_EQ(reference.baseline_accuracy, row.baseline_accuracy)
        << threads << " threads, tracing on";
    ASSERT_EQ(reference.cells.size(), row.cells.size());
    for (size_t i = 0; i < reference.cells.size(); ++i) {
      EXPECT_EQ(reference.cells[i].accuracy, row.cells[i].accuracy)
          << "cell " << reference.cells[i].technique << ", " << threads
          << " threads, tracing on";
    }
  }

  // The traced runs actually recorded something.
  EXPECT_GT(core::trace::CounterValue("eval.cells"), 0);

  if (!trace_was_enabled) core::trace::Disable();
}

// Balance/expand with a per-class generative augmenter: Prefit() fits the
// classes on the pool, so the augmented set must match, bit for bit, both
// every other thread count and a plain per-label TryGenerate loop that
// fits each class lazily on first use.
TEST(ParallelDeterminism, GenerativeBalanceIdentical) {
  ThreadCountGuard guard;
  data::SyntheticSpec spec;
  spec.num_classes = 5;
  spec.train_counts = {9, 6, 5, 4, 3};
  spec.test_counts = {1, 1, 1, 1, 1};
  spec.num_channels = 2;
  spec.length = 12;
  spec.seed = 4;
  const core::Dataset train = data::MakeSynthetic(spec).train;

  augment::TimeGanConfig timegan;
  timegan.embedding_iterations = 2;
  timegan.supervised_iterations = 2;
  timegan.joint_iterations = 1;
  augment::VaeConfig vae;
  vae.epochs = 4;
  // Fresh augmenters per call: they cache per-class models. The SMOTE
  // fallback keeps a class whose GAN fit is injected to fail in play.
  const std::vector<std::function<std::unique_ptr<augment::Augmenter>()>>
      makers = {
          [&] {
            return std::make_unique<augment::TimeGanAugmenter>(
                timegan, std::make_unique<augment::Smote>());
          },
          [&] { return std::make_unique<augment::VaeAugmenter>(vae); },
      };

  // The protocols' per-label requests, replayed through TryGenerate alone.
  auto lazy = [&](augment::Augmenter& augmenter, bool balance) {
    const std::vector<int> counts = train.ClassCounts();
    const int majority = counts[static_cast<size_t>(train.MajorityClass())];
    core::Rng rng(17);
    core::Dataset out = train;
    for (int label = 0; label < train.num_classes(); ++label) {
      const int count = counts[static_cast<size_t>(label)];
      const int extra = balance ? majority - count
                                : static_cast<int>(count * 0.5 + 0.5);
      if (extra <= 0) continue;
      for (core::TimeSeries& s : augmenter.Generate(train, label, extra, rng)) {
        out.Add(std::move(s), label);
      }
    }
    return out;
  };
  auto expect_same = [](const core::Dataset& a, const core::Dataset& b,
                        const std::string& what) {
    ASSERT_EQ(a.labels(), b.labels()) << what;
    for (int i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.series(i), b.series(i)) << what << ", series " << i;
    }
  };

  for (const auto& make : makers) {
    core::SetNumThreads(1);
    const std::string name = make()->name();
    const core::Dataset balanced = lazy(*make(), /*balance=*/true);
    const core::Dataset expanded = lazy(*make(), /*balance=*/false);
    for (int threads : kThreadCounts) {
      core::SetNumThreads(threads);
      const std::string what = name + ", " + std::to_string(threads) +
                               " threads";
      core::Rng balance_rng(17);
      expect_same(balanced,
                  augment::BalanceWithAugmenter(train, *make(), balance_rng),
                  "balance " + what);
      core::Rng expand_rng(17);
      expect_same(
          expanded,
          augment::ExpandWithAugmenter(train, *make(), 0.5, expand_rng),
          "expand " + what);
    }
  }
}

}  // namespace
}  // namespace tsaug
