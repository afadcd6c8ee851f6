// Throughput microbenchmarks of every augmentation family on a shared
// workload (the generation cost a balancing pass pays per synthetic
// series). TimeGAN is measured separately for Fit vs Sample.
#include <benchmark/benchmark.h>

#include "augment/basic_time.h"
#include "augment/decompose.h"
#include "augment/frequency.h"
#include "augment/generative.h"
#include "augment/noise.h"
#include "augment/oversample.h"
#include "augment/preserving.h"
#include "augment/timegan.h"
#include "core/check.h"
#include "data/synthetic.h"

namespace {

tsaug::core::Dataset Workload() {
  tsaug::data::SyntheticSpec spec;
  spec.num_classes = 3;
  spec.train_counts = {20, 10, 6};
  spec.test_counts = {2, 2, 2};
  spec.num_channels = 4;
  spec.length = 64;
  spec.seed = 11;
  return tsaug::data::MakeSynthetic(spec).train;
}

template <typename AugmenterT>
void RunGenerate(benchmark::State& state, AugmenterT& augmenter) {
  static const tsaug::core::Dataset train = Workload();
  tsaug::core::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(augmenter.TryGenerate(train, 2, 8, rng).value());
  }
  state.SetItemsProcessed(state.iterations() * 8);
}

#define TSAUG_AUGMENTER_BENCH(name, ...)                   \
  void BM_##name(benchmark::State& state) {                \
    __VA_ARGS__ augmenter;                                 \
    RunGenerate(state, augmenter);                         \
  }                                                        \
  BENCHMARK(BM_##name)

TSAUG_AUGMENTER_BENCH(NoiseInjection, tsaug::augment::NoiseInjection);
TSAUG_AUGMENTER_BENCH(Scaling, tsaug::augment::Scaling);
TSAUG_AUGMENTER_BENCH(TimeWarp, tsaug::augment::TimeWarp);
TSAUG_AUGMENTER_BENCH(WindowWarp, tsaug::augment::WindowWarp);
TSAUG_AUGMENTER_BENCH(Permutation, tsaug::augment::Permutation);
TSAUG_AUGMENTER_BENCH(FrequencyPerturbation,
                      tsaug::augment::FrequencyPerturbation);
TSAUG_AUGMENTER_BENCH(SpectrogramMasking, tsaug::augment::SpectrogramMasking);
TSAUG_AUGMENTER_BENCH(Smote, tsaug::augment::Smote);
TSAUG_AUGMENTER_BENCH(BorderlineSmote, tsaug::augment::BorderlineSmote);
TSAUG_AUGMENTER_BENCH(Adasyn, tsaug::augment::Adasyn);
TSAUG_AUGMENTER_BENCH(DecompositionAugmenter,
                      tsaug::augment::DecompositionAugmenter);
TSAUG_AUGMENTER_BENCH(RangeNoise, tsaug::augment::RangeNoise);
TSAUG_AUGMENTER_BENCH(Ohit, tsaug::augment::Ohit);
TSAUG_AUGMENTER_BENCH(GaussianGenerator, tsaug::augment::GaussianGenerator);
TSAUG_AUGMENTER_BENCH(ArGenerator, tsaug::augment::ArGenerator);

void BM_TimeGanFit(benchmark::State& state) {
  const tsaug::core::Dataset train = Workload();
  std::vector<tsaug::core::TimeSeries> class_series;
  for (int i = 0; i < train.size(); ++i) {
    if (train.label(i) == 0) class_series.push_back(train.series(i));
  }
  tsaug::augment::TimeGanConfig config;
  config.hidden_dim = 6;
  config.num_layers = 1;
  config.embedding_iterations = 20;
  config.supervised_iterations = 15;
  config.joint_iterations = 8;
  config.max_sequence_length = 16;
  for (auto _ : state) {
    tsaug::augment::TimeGan gan(config);
    const tsaug::core::Status fitted = gan.TryFit(class_series);
    TSAUG_CHECK_MSG(fitted.ok(), "%s", fitted.ToString().c_str());
    benchmark::DoNotOptimize(gan.fitted());
  }
}
BENCHMARK(BM_TimeGanFit)->Unit(benchmark::kMillisecond);

void BM_TimeGanSample(benchmark::State& state) {
  const tsaug::core::Dataset train = Workload();
  std::vector<tsaug::core::TimeSeries> class_series;
  for (int i = 0; i < train.size(); ++i) {
    if (train.label(i) == 0) class_series.push_back(train.series(i));
  }
  tsaug::augment::TimeGanConfig config;
  config.hidden_dim = 6;
  config.num_layers = 1;
  config.embedding_iterations = 20;
  config.supervised_iterations = 15;
  config.joint_iterations = 8;
  config.max_sequence_length = 16;
  tsaug::augment::TimeGan gan(config);
  const tsaug::core::Status fitted = gan.TryFit(class_series);
  TSAUG_CHECK_MSG(fitted.ok(), "%s", fitted.ToString().c_str());
  tsaug::core::Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gan.Sample(8, rng));
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_TimeGanSample);

}  // namespace

BENCHMARK_MAIN();
