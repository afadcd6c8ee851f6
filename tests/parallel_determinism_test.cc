// End-to-end determinism of the parallelised hot paths: every public
// result must be bitwise identical for 1, 2 and 8 threads, because
// ParallelFor call sites only partition independent output slices and
// all shared-stream RNG draws stay in serial setup phases.

#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "augment/noise.h"
#include "augment/oversample.h"
#include "augment/timegan.h"
#include "augment/vae.h"
#include "classify/inception_time.h"
#include "classify/nearest_neighbor.h"
#include "classify/rocket.h"
#include "core/faultpoint.h"
#include "core/kernels/kernels.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/trace.h"
#include "core/validate.h"
#include "data/scenarios.h"
#include "eval/experiment.h"
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

  core::SetNumThreads(1);
  const linalg::Matrix ab = linalg::MatMul(a, b);
  const linalg::Matrix ata = linalg::MatMulTransposeA(at, b);
  const linalg::Matrix gram = linalg::Gram(a);
  for (int threads : kThreadCounts) {
    core::SetNumThreads(threads);
    EXPECT_EQ(ab, linalg::MatMul(a, b)) << threads << " threads";
    EXPECT_EQ(ata, linalg::MatMulTransposeA(at, b)) << threads << " threads";
    EXPECT_EQ(gram, linalg::Gram(a)) << threads << " threads";
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
  ASSERT_TRUE(reference.TryFit(data.train).ok());
  const std::vector<int> reference_predictions = reference.Predict(data.test);

  for (int threads : kThreadCounts) {
    core::SetNumThreads(threads);
    classify::RocketTransform transform(150, 11);
    transform.Fit(2, 24);
    EXPECT_EQ(reference_features, transform.Transform(x))
        << threads << " threads";

    classify::RocketClassifier clf(150, 11);
    ASSERT_TRUE(clf.TryFit(data.train).ok());
    EXPECT_EQ(reference_predictions, clf.Predict(data.test))
        << threads << " threads";
  }
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(ParallelDeterminism, InceptionTimeFitIdentical) {
  ThreadCountGuard guard;
  const data::TrainTest data = SmallData(4);
  // The reduced-scale grid's InceptionTime, for three epochs.
  classify::InceptionTimeConfig config;
  config.num_filters = 4;
  config.depth = 3;
  config.kernel_sizes = {4, 8, 16};
  config.bottleneck_channels = 4;
  config.ensemble_size = 1;
  config.trainer.learning_rate = 2e-3;
  config.trainer.batch_size = 16;
  config.trainer.max_epochs = 3;
  config.trainer.early_stopping_patience = 3;

  auto fit = [&](int threads) {
    core::SetNumThreads(threads);
    classify::InceptionTimeClassifier clf(config, 21);
    EXPECT_TRUE(clf.TryFit(data.train).ok());
    return std::pair(clf.train_results(), clf.Predict(data.test));
  };
  const auto [reference, reference_predictions] = fit(1);
  ASSERT_EQ(reference.size(), 1u);
  ASSERT_EQ(reference[0].epoch_train_losses.size(), 3u);
  for (int threads : kThreadCounts) {
    const auto [results, predictions] = fit(threads);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(SameBits(reference[0].epoch_train_losses,
                         results[0].epoch_train_losses))
        << threads << " threads";
    EXPECT_EQ(reference[0].best_epoch, results[0].best_epoch)
        << threads << " threads";
    EXPECT_TRUE(SameBits({reference[0].best_val_accuracy},
                         {results[0].best_val_accuracy}))
        << threads << " threads";
    EXPECT_EQ(reference_predictions, predictions) << threads << " threads";
  }
}

TEST(ParallelDeterminism, SharedNearestNeighborSimilarityIdentical) {
  ThreadCountGuard guard;
  const data::TrainTest data = SmallData(9);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < data.train.size(); ++i) {
    points.push_back(data.train.series(i).values());
  }

  core::SetNumThreads(1);
  const std::vector<int> snn_ref =
      linalg::SharedNearestNeighborSimilarity(points, 4);

  for (int threads : kThreadCounts) {
    core::SetNumThreads(threads);
    EXPECT_EQ(snn_ref, linalg::SharedNearestNeighborSimilarity(points, 4))
        << threads << " threads";
  }
}

TEST(ParallelDeterminism, DtwKnnPredictionsIdentical) {
  ThreadCountGuard guard;
  const data::TrainTest data = SmallData(13);

  core::SetNumThreads(1);
  classify::KnnClassifier reference;
  ASSERT_TRUE(reference.TryFit(data.train).ok());
  const std::vector<int> reference_predictions = reference.Predict(data.test);

  for (int threads : kThreadCounts) {
    core::SetNumThreads(threads);
    classify::KnnClassifier clf;
    ASSERT_TRUE(clf.TryFit(data.train).ok());
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
    return eval::TryRunDatasetGrid("toy", data, techniques, config).value();
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
    return eval::TryRunDatasetGrid("toy", data, techniques, config).value();
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

class BackendGuard {
 public:
  BackendGuard() : saved_(core::kernels::ActiveBackend()) {}
  ~BackendGuard() { core::kernels::SetBackend(saved_); }

 private:
  core::kernels::Backend saved_;
};

std::vector<std::shared_ptr<augment::Augmenter>> SharedGridTechniques() {
  augment::TimeGanConfig timegan;
  timegan.embedding_iterations = 2;
  timegan.supervised_iterations = 2;
  timegan.joint_iterations = 1;
  // Fresh augmenters per grid: they cache per-train-set state.
  return {std::make_shared<augment::NoiseInjection>(1.0),
          std::make_shared<augment::Smote>(),
          std::make_shared<augment::TimeGanAugmenter>(
              timegan, std::make_unique<augment::Smote>())};
}

/// One cell of a run replayed through public calls: OK with its score, or
/// the Status that failed it.
struct DirectCell {
  core::Status status;
  double score = 0.0;
};

/// Replays run 0 of TryRunDatasetGrid on `name` cell by cell: the same
/// preflight repair, augmentation seeds and protocol, and fault domains,
/// then a plain TryTrainAndScore (no shared features) on each cell's
/// training set. Cell 0 is the baseline.
std::vector<DirectCell> DirectRunCells(const std::string& name,
                                       const data::TrainTest& data,
                                       const eval::ExperimentConfig& config) {
  std::uint64_t repair_seed = config.seed;
  for (char ch : name) {
    repair_seed = repair_seed * 1099511628211ull +
                  static_cast<unsigned char>(ch);
  }
  core::ValidateOptions options;
  options.min_length = 2;
  core::StatusOr<core::RepairOutcome> repaired =
      core::TryRepairTrainTest(data.train, data.test, options, repair_seed);
  EXPECT_TRUE(repaired.ok()) << repaired.status().ToString();
  if (!repaired.ok()) return {};
  const core::Dataset& train = repaired->train;
  const core::Dataset& test = repaired->test;
  const std::uint64_t run_seed = config.seed + 7919ull;
  const std::string domain = "cell/" + name + "/run0/";

  auto score = [&](const core::Dataset& cell_train) {
    DirectCell cell;
    core::StatusOr<eval::ScoreOutcome> outcome = eval::TryTrainAndScore(
        config, cell_train, core::Dataset(), test, run_seed);
    if (outcome.ok()) {
      cell.score = outcome->accuracy;
    } else {
      cell.status = outcome.status();
    }
    return cell;
  };

  std::vector<DirectCell> cells;
  {
    core::fault::ScopedDomain scoped(domain + "baseline");
    cells.push_back(score(train));
  }
  const auto techniques = SharedGridTechniques();
  for (size_t i = 0; i < techniques.size(); ++i) {
    augment::Augmenter& technique = *techniques[i];
    core::fault::ScopedDomain scoped(domain + technique.name());
    core::Rng rng(run_seed ^ (0xabcdull + i));
    core::StatusOr<core::Dataset> augmented =
        augment::TryBalanceWithAugmenter(train, technique, rng);
    if (augmented.ok() && augmented->size() == train.size()) {
      augmented = augment::TryExpandWithAugmenter(train, technique, 0.5, rng);
    }
    if (!augmented.ok()) {
      cells.push_back({augmented.status(), 0.0});
      continue;
    }
    cells.push_back(score(*augmented));
  }
  return cells;
}

/// Runs a one-run ROCKET grid over `name` at 1/2/8 threads on both kernel
/// backends and checks every cell against DirectRunCells at the same
/// setting. `misses` receives how many cells fell back from the run's
/// shared ROCKET features to a full transform.
void ExpectGridMatchesDirectCalls(const std::string& name,
                                  const data::TrainTest& data,
                                  std::int64_t* misses) {
  ThreadCountGuard thread_guard;
  BackendGuard backend_guard;
  const bool trace_was_enabled = core::trace::Enabled();
  core::trace::Enable();
  core::trace::Reset();
  eval::ExperimentConfig config;
  config.model = eval::ModelKind::kRocket;
  config.runs = 1;
  config.rocket_kernels = 60;
  config.seed = 9;
  for (core::kernels::Backend backend :
       {core::kernels::Backend::kScalar, core::kernels::Backend::kSimd}) {
    core::kernels::SetBackend(backend);
    for (int threads : kThreadCounts) {
      core::SetNumThreads(threads);
      const std::string what = name + ", " +
                               core::kernels::BackendName(backend) + ", " +
                               std::to_string(threads) + " threads";
      const eval::DatasetRow row =
          eval::TryRunDatasetGrid(name, data, SharedGridTechniques(), config)
              .value();
      const std::vector<DirectCell> direct = DirectRunCells(name, data, config);
      ASSERT_EQ(direct.size(), row.cells.size() + 1) << what;
      for (size_t c = 0; c < direct.size(); ++c) {
        const bool grid_failed = c == 0 ? row.baseline_failed_runs > 0
                                        : row.cells[c - 1].failed_runs > 0;
        const double grid_score =
            c == 0 ? row.baseline_accuracy : row.cells[c - 1].accuracy;
        const std::string cell =
            what + ", cell " + (c == 0 ? "baseline" : row.cells[c - 1].technique);
        EXPECT_EQ(grid_failed, !direct[c].status.ok())
            << cell << ": " << direct[c].status.ToString();
        if (!grid_failed && direct[c].status.ok()) {
          EXPECT_EQ(std::memcmp(&grid_score, &direct[c].score, sizeof(double)),
                    0)
              << cell << ": grid " << grid_score << ", direct "
              << direct[c].score;
        }
      }
    }
  }
  *misses = core::trace::CounterValue("eval.rocket_shared_miss");
  if (!trace_was_enabled) core::trace::Disable();
}

// The grid computes each run's ROCKET features of the base and test rows
// once and shares them across cells; that must be invisible in the
// scores. Under the _faults variant the targeted cells fail in the grid
// and in the replay alike.
TEST(ParallelDeterminism, GridScoresMatchDirectCalls) {
  std::int64_t misses = -1;
  ExpectGridMatchesDirectCalls("toy", SmallData(2), &misses);
  // Fixed-length data: every cell extends the base rows.
  EXPECT_EQ(misses, 0);
}

// Ragged series share too: every row is resampled to the run's
// max_length on its own, and the synthetic rows never raise it here.
TEST(ParallelDeterminism, VariableLengthGridScoresMatchDirectCalls) {
  std::int64_t misses = -1;
  ExpectGridMatchesDirectCalls(
      "varlen_tiny_mix",
      data::TryMakeScenarioDataset("varlen_tiny_mix", 5).value(), &misses);
  EXPECT_EQ(misses, 0);
}

// A training set that does not extend the shared rows bit for bit, or a
// different test set, kernel count or seed, takes the full-transform
// path, with the same score either way.
TEST(ParallelDeterminism, SharedFeaturesFallBackUnlessTrainingSetExtendsBase) {
  ThreadCountGuard guard;
  const bool trace_was_enabled = core::trace::Enabled();
  core::trace::Enable();
  const data::TrainTest data =
      data::TryMakeScenarioDataset("varlen_tiny_mix", 5).value();
  const core::Dataset& base = data.train;
  eval::ExperimentConfig config;
  config.model = eval::ModelKind::kRocket;
  config.rocket_kernels = 60;
  const std::uint64_t run_seed = 77;
  const classify::RocketRunFeatures shared(config.rocket_kernels, run_seed,
                                           base, data.test);

  // Two synthetic rows no longer than the base: the shared path.
  core::Dataset extended = base;
  extended.Add(base.series(1), base.label(1));
  extended.Add(base.series(2), base.label(2));
  // A synthetic row longer than every base row raises max_length.
  core::Dataset longer = base;
  longer.Add(core::TimeSeries(base.num_channels(), base.max_length() + 5, 0.3),
             0);
  // A base row rewritten (a NaN where the base has a number).
  core::Dataset rewritten = extended;
  rewritten.mutable_series(0).at(0, 0) =
      std::numeric_limits<double>::quiet_NaN();
  // The first base label changed, and the first two base rows swapped.
  core::Dataset relabelled(base.num_classes());
  for (int i = 0; i < extended.size(); ++i) {
    const int label = extended.label(i);
    relabelled.Add(extended.series(i),
                   i == 0 ? (label + 1) % base.num_classes() : label);
  }
  core::Dataset swapped = base.Subset({1, 0});
  for (int i = 2; i < extended.size(); ++i) {
    swapped.Add(extended.series(i), extended.label(i));
  }
  const core::Dataset other_test = data.test.Subset({1, 2, 3});

  struct Case {
    std::string what;
    const core::Dataset* train;
    const core::Dataset* test;
    int kernels;
    std::uint64_t seed;
    int misses;
  };
  const std::vector<Case> cases = {
      {"extended", &extended, &data.test, 60, run_seed, 0},
      {"base itself", &base, &data.test, 60, run_seed, 0},
      {"longer", &longer, &data.test, 60, run_seed, 1},
      {"rewritten", &rewritten, &data.test, 60, run_seed, 1},
      {"relabelled", &relabelled, &data.test, 60, run_seed, 1},
      {"rows swapped", &swapped, &data.test, 60, run_seed, 1},
      {"other test set", &extended, &other_test, 60, run_seed, 1},
      {"other kernel count", &extended, &data.test, 61, run_seed, 1},
      {"other seed", &extended, &data.test, 60, run_seed + 1, 1},
  };
  for (int threads : kThreadCounts) {
    core::SetNumThreads(threads);
    for (const Case& c : cases) {
      const std::string what = c.what + ", " + std::to_string(threads) +
                               " threads";
      eval::ExperimentConfig case_config = config;
      case_config.rocket_kernels = c.kernels;
      core::trace::Reset();
      core::StatusOr<eval::ScoreOutcome> with_shared =
          eval::TryTrainAndScore(case_config, *c.train, core::Dataset(),
                                 *c.test, c.seed, &shared);
      EXPECT_EQ(core::trace::CounterValue("eval.rocket_shared_miss"),
                c.misses)
          << what;
      core::StatusOr<eval::ScoreOutcome> plain = eval::TryTrainAndScore(
          case_config, *c.train, core::Dataset(), *c.test, c.seed);
      ASSERT_TRUE(with_shared.ok()) << what << with_shared.status().ToString();
      ASSERT_TRUE(plain.ok()) << what << plain.status().ToString();
      EXPECT_EQ(std::memcmp(&with_shared->accuracy, &plain->accuracy,
                            sizeof(double)),
                0)
          << what;
      EXPECT_EQ(with_shared->retries, plain->retries) << what;
    }
  }
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
      auto generated = augmenter.TryGenerate(train, label, extra, rng).value();
      for (core::TimeSeries& s : generated) {
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
      expect_same(
          balanced,
          augment::TryBalanceWithAugmenter(train, *make(), balance_rng).value(),
          "balance " + what);
      core::Rng expand_rng(17);
      expect_same(
          expanded,
          augment::TryExpandWithAugmenter(train, *make(), 0.5, expand_rng)
              .value(),
          "expand " + what);
    }
  }
}

}  // namespace
}  // namespace tsaug
