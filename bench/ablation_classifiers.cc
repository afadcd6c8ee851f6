// Extension: a mini "bake-off" across the implemented classifier families
// (kernel-based ROCKET & MiniRocket, deep InceptionTime & ResNet, and
// 1-NN DTW), on the paper's datasets — situating the paper's two baselines
// among their relatives. Also reports macro-F1, the imbalance-aware metric
// the accuracy tables hide.
#include <chrono>
#include <cstdio>
#include <memory>

#include "bench_settings.h"
#include "classify/boss.h"
#include "classify/inception_time.h"
#include "classify/random_forest.h"
#include "classify/minirocket.h"
#include "classify/nearest_neighbor.h"
#include "classify/resnet.h"
#include "classify/rocket.h"
#include "eval/metrics.h"

namespace {

std::vector<std::unique_ptr<tsaug::classify::Classifier>> MakeClassifiers(
    const tsaug::eval::BenchSettings& settings) {
  std::vector<std::unique_ptr<tsaug::classify::Classifier>> out;
  out.push_back(std::make_unique<tsaug::classify::RocketClassifier>(
      settings.rocket_kernels, settings.seed));
  out.push_back(std::make_unique<tsaug::classify::MiniRocketClassifier>(
      settings.rocket_kernels, settings.seed));

  const tsaug::eval::ExperimentConfig config = tsaug::eval::MakeExperimentConfig(
      settings, tsaug::eval::ModelKind::kInceptionTime);
  out.push_back(std::make_unique<tsaug::classify::InceptionTimeClassifier>(
      config.inception, settings.seed));

  tsaug::classify::ResNetConfig resnet;
  resnet.block_filters = {6, 8, 8};
  resnet.trainer = config.inception.trainer;
  out.push_back(std::make_unique<tsaug::classify::ResNetClassifier>(
      resnet, settings.seed));

  out.push_back(std::make_unique<tsaug::classify::KnnClassifier>(
      1, tsaug::classify::NnDistance::kDtw, /*dtw_window=*/4));
  out.push_back(std::make_unique<tsaug::classify::BossClassifier>());
  out.push_back(std::make_unique<tsaug::classify::IntervalForestClassifier>(
      24, tsaug::classify::RandomForest::Config{}, settings.seed));
  return out;
}

}  // namespace

int main() {
  tsaug::eval::BenchSettings settings = tsaug::bench::ReadSettingsOrExit();
  if (settings.datasets.empty()) {
    settings.datasets = {"RacketSports", "LSST", "EthanolConcentration",
                         "Heartbeat"};
  }

  std::printf("EXTENSION: classifier bake-off (accuracy %% / macro-F1 / fit+predict s)\n");
  for (const std::string& name : settings.datasets) {
    const tsaug::data::TrainTest data =
        tsaug::data::MakeUeaLikeDataset(name, settings.scale, settings.seed);
    std::printf("\n%s (%d train, %d classes):\n", name.c_str(),
                data.train.size(), data.train.num_classes());
    for (const auto& clf : MakeClassifiers(settings)) {
      const auto start = std::chrono::steady_clock::now();
      clf->Fit(data.train);
      const std::vector<int> predicted = clf->Predict(data.test);
      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      std::printf("  %-16s %6.2f%%  F1 %.3f  %6.2fs\n", clf->name().c_str(),
                  100.0 * tsaug::classify::Accuracy(predicted,
                                                    data.test.labels()),
                  tsaug::eval::MacroF1(predicted, data.test.labels(),
                                       data.test.num_classes()),
                  seconds);
    }
  }
  return 0;
}
