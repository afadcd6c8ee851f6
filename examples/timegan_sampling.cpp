// TimeGAN walkthrough: train a TimeGAN on one class of a dataset, sample
// synthetic series, and compare real vs synthetic statistics. Writes both
// sets as CSV so they can be plotted side by side.
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "augment/timegan.h"
#include "core/check.h"
#include "core/io.h"
#include "data/synthetic.h"

int main() {
  tsaug::data::SyntheticSpec spec;
  spec.num_classes = 2;
  spec.train_counts = {24, 8};
  spec.test_counts = {2, 2};
  spec.num_channels = 2;
  spec.length = 20;
  spec.seed = 21;
  const tsaug::core::Dataset train = tsaug::data::MakeSynthetic(spec).train;

  // Collect the minority class (label 1) -- the class the paper's
  // protocol would ask TimeGAN to enlarge.
  std::vector<tsaug::core::TimeSeries> minority;
  for (int i = 0; i < train.size(); ++i) {
    if (train.label(i) == 1) minority.push_back(train.series(i));
  }
  std::printf("training TimeGAN on %zu minority series...\n", minority.size());

  tsaug::augment::TimeGanConfig config;  // reduced schedule by default
  config.hidden_dim = 8;
  config.num_layers = 1;
  config.embedding_iterations = 300;
  config.supervised_iterations = 200;
  config.joint_iterations = 100;
  config.learning_rate = 2e-3;
  config.max_sequence_length = 20;
  config.seed = 4;
  tsaug::augment::TimeGan gan(config);
  const tsaug::core::Status fitted = gan.TryFit(minority);
  TSAUG_CHECK_MSG(fitted.ok(), "%s", fitted.ToString().c_str());
  std::printf("phase losses: reconstruction %.3f / supervised %.4f / "
              "generator %.3f / discriminator %.3f\n",
              gan.diagnostics().reconstruction_loss,
              gan.diagnostics().supervised_loss,
              gan.diagnostics().generator_loss,
              gan.diagnostics().discriminator_loss);

  tsaug::core::Rng rng(5);
  const std::vector<tsaug::core::TimeSeries> synthetic = gan.Sample(8, rng);

  const std::filesystem::path out_dir = "timegan_out";
  std::filesystem::create_directories(out_dir);
  for (size_t i = 0; i < minority.size() && i < 8; ++i) {
    tsaug::core::WriteSeriesCsv(
        minority[i], (out_dir / ("real_" + std::to_string(i) + ".csv")).string());
  }
  for (size_t i = 0; i < synthetic.size(); ++i) {
    tsaug::core::WriteSeriesCsv(
        synthetic[i],
        (out_dir / ("synthetic_" + std::to_string(i) + ".csv")).string());
  }

  // Per-channel moment comparison.
  std::printf("\n%-10s %12s %12s %12s %12s\n", "channel", "real_mean",
              "synth_mean", "real_std", "synth_std");
  for (int c = 0; c < 2; ++c) {
    double rm = 0.0;
    double sm = 0.0;
    double rv = 0.0;
    double sv = 0.0;
    for (const auto& s : minority) rm += s.ChannelMean(c) / static_cast<double>(minority.size());
    for (const auto& s : synthetic) sm += s.ChannelMean(c) / static_cast<double>(synthetic.size());
    for (const auto& s : minority) {
      rv += std::pow(s.ChannelStdDev(c), 2) / static_cast<double>(minority.size());
    }
    for (const auto& s : synthetic) {
      sv += std::pow(s.ChannelStdDev(c), 2) / static_cast<double>(synthetic.size());
    }
    std::printf("%-10d %12.3f %12.3f %12.3f %12.3f\n", c, rm, sm,
                std::sqrt(rv), std::sqrt(sv));
  }
  std::printf("\nwrote real_*.csv / synthetic_*.csv to %s/\n", out_dir.c_str());
  return 0;
}
