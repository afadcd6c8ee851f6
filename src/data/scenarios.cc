#include "data/scenarios.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/rng.h"

namespace tsaug::data {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Seed stream for one scenario: FNV-1a over the id, folded with the
/// study seed. Two scenarios under one study seed draw decorrelated
/// streams; one scenario under one seed is bit-stable across processes.
std::uint64_t ScenarioSeed(const std::string& id, std::uint64_t seed) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : id) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h ^ (seed * 0x9e3779b97f4a7c15ull);
}

/// The shared starting point: a small, mildly imbalanced, rectangular
/// three-class dataset every scenario then deforms. Small on purpose —
/// the stress grid runs hundreds of cells in CI.
SyntheticSpec BaseSpec(const std::string& id, std::uint64_t seed) {
  SyntheticSpec spec;
  spec.name = id;
  spec.num_classes = 3;
  spec.train_counts = {10, 8, 6};
  spec.test_counts = {6, 5, 4};
  spec.num_channels = 3;
  spec.length = 32;
  spec.noise_level = 0.3;
  spec.class_separation = 1.2;
  spec.instance_variability = 0.15;
  spec.seed = ScenarioSeed(id, seed);
  return spec;
}

// --- deterministic post-transforms -----------------------------------------

/// Adds `delta` to every observed sample (NaN stays NaN).
void ShiftSeries(core::TimeSeries& series, double delta) {
  for (double& v : series.values()) v += delta;
}

/// Keeps the first `length` steps of every channel.
core::TimeSeries Truncate(const core::TimeSeries& series, int length) {
  TSAUG_CHECK(length >= 1 && length <= series.length());
  core::TimeSeries out(series.num_channels(), length);
  for (int c = 0; c < series.num_channels(); ++c) {
    for (int t = 0; t < length; ++t) out.at(c, t) = series.at(c, t);
  }
  return out;
}

void TruncateAll(core::Dataset& dataset, int length) {
  for (int i = 0; i < dataset.size(); ++i) {
    dataset.mutable_series(i) = Truncate(dataset.series(i), length);
  }
}

/// Missing-completely-at-random: each sample independently knocked out.
void KnockoutMcar(core::Dataset& dataset, double rate, core::Rng& rng) {
  for (int i = 0; i < dataset.size(); ++i) {
    for (double& v : dataset.mutable_series(i).values()) {
      if (rng.Bernoulli(rate)) v = kNaN;
    }
  }
}

/// Bursty missingness: contiguous runs of [min_run, max_run] steps, each
/// step starting a run with probability `start_prob`, per channel.
void KnockoutBursty(core::Dataset& dataset, double start_prob, int min_run,
                    int max_run, core::Rng& rng) {
  for (int i = 0; i < dataset.size(); ++i) {
    core::TimeSeries& series = dataset.mutable_series(i);
    for (int c = 0; c < series.num_channels(); ++c) {
      int t = 0;
      while (t < series.length()) {
        if (rng.Bernoulli(start_prob)) {
          const int run = rng.Int(min_run, max_run);
          for (int k = 0; k < run && t + k < series.length(); ++k) {
            series.at(c, t + k) = kNaN;
          }
          t += run;
        } else {
          ++t;
        }
      }
    }
  }
}

/// Knocks out one whole channel of every instance (train and test): the
/// dataset-wide dead channel the drop-channel repair policy targets.
void KillChannelEverywhere(TrainTest& data, int channel) {
  for (core::Dataset* split : {&data.train, &data.test}) {
    for (int i = 0; i < split->size(); ++i) {
      for (double& v : split->mutable_series(i).channel(channel)) v = kNaN;
    }
  }
}

/// Per-instance whole-channel dropout: each (instance, channel) is fully
/// knocked out with probability `rate` — the impute repair policy target.
void DropoutChannels(core::Dataset& dataset, double rate, core::Rng& rng) {
  for (int i = 0; i < dataset.size(); ++i) {
    core::TimeSeries& series = dataset.mutable_series(i);
    for (int c = 0; c < series.num_channels(); ++c) {
      if (!rng.Bernoulli(rate)) continue;
      for (double& v : series.channel(c)) v = kNaN;
    }
  }
}

void MakeChannelConstant(core::Dataset& dataset, int channel, double value) {
  for (int i = 0; i < dataset.size(); ++i) {
    for (double& v : dataset.mutable_series(i).channel(channel)) v = value;
  }
}

/// Test-set drift schedules. `step`: one shift for every test instance.
void DriftStep(TrainTest& data, double delta) {
  for (int i = 0; i < data.test.size(); ++i) {
    ShiftSeries(data.test.mutable_series(i), delta);
  }
}

/// `ramp`: the shift grows linearly across the test set in instance
/// order, reaching `delta` on the last instance — a slow domain slide.
void DriftRamp(TrainTest& data, double delta) {
  const int n = data.test.size();
  for (int i = 0; i < n; ++i) {
    const double frac = n > 1 ? static_cast<double>(i) / (n - 1) : 1.0;
    ShiftSeries(data.test.mutable_series(i), delta * frac);
  }
}

/// `per-class`: each class drifts by its own delta (deltas[label]).
void DriftPerClass(TrainTest& data, const std::vector<double>& deltas) {
  for (int i = 0; i < data.test.size(); ++i) {
    const size_t label = static_cast<size_t>(data.test.label(i));
    if (label < deltas.size()) {
      ShiftSeries(data.test.mutable_series(i), deltas[label]);
    }
  }
}

/// Removes every training instance of `label`, keeping the label space.
void EmptyTrainClass(TrainTest& data, int label) {
  std::vector<int> keep;
  for (int i = 0; i < data.train.size(); ++i) {
    if (data.train.label(i) != label) keep.push_back(i);
  }
  data.train = data.train.Subset(keep);
}

/// Resamples the per-instance length to a deterministic draw in
/// [min_len, max_len] by truncation (generation happens at max_len).
void VariableLengths(core::Dataset& dataset, int min_len, core::Rng& rng) {
  for (int i = 0; i < dataset.size(); ++i) {
    const int len = rng.Int(min_len, dataset.series(i).length());
    dataset.mutable_series(i) = Truncate(dataset.series(i), len);
  }
}

// --- the catalog ------------------------------------------------------------

using Generator = TrainTest (*)(const std::string& id, std::uint64_t seed);

struct ScenarioEntry {
  ScenarioInfo info;
  Generator generate;
};

TrainTest GenDriftStepMild(const std::string& id, std::uint64_t seed) {
  TrainTest data = MakeSynthetic(BaseSpec(id, seed));
  DriftStep(data, 0.8);
  return data;
}

TrainTest GenDriftStepSevere(const std::string& id, std::uint64_t seed) {
  TrainTest data = MakeSynthetic(BaseSpec(id, seed));
  DriftStep(data, 2.5);
  return data;
}

TrainTest GenDriftRampMild(const std::string& id, std::uint64_t seed) {
  TrainTest data = MakeSynthetic(BaseSpec(id, seed));
  DriftRamp(data, 1.5);
  return data;
}

TrainTest GenDriftRampSevere(const std::string& id, std::uint64_t seed) {
  TrainTest data = MakeSynthetic(BaseSpec(id, seed));
  DriftRamp(data, 4.0);
  return data;
}

TrainTest GenDriftClassSkew(const std::string& id, std::uint64_t seed) {
  TrainTest data = MakeSynthetic(BaseSpec(id, seed));
  DriftPerClass(data, {0.0, 2.0, 0.0});
  return data;
}

TrainTest GenDriftSignFlip(const std::string& id, std::uint64_t seed) {
  TrainTest data = MakeSynthetic(BaseSpec(id, seed));
  DriftPerClass(data, {-1.5, 0.0, 1.5});
  return data;
}

TrainTest GenImbalanceMild(const std::string& id, std::uint64_t seed) {
  SyntheticSpec spec = BaseSpec(id, seed);
  spec.train_counts = CountsForImbalanceDegree(24, 3, 0.2);
  return MakeSynthetic(spec);
}

TrainTest GenImbalanceSevere(const std::string& id, std::uint64_t seed) {
  SyntheticSpec spec = BaseSpec(id, seed);
  spec.train_counts = CountsForImbalanceDegree(24, 3, 0.5);
  return MakeSynthetic(spec);
}

TrainTest GenImbalanceExtreme(const std::string& id, std::uint64_t seed) {
  SyntheticSpec spec = BaseSpec(id, seed);
  spec.train_counts = CountsForImbalanceDegree(28, 4, 0.7);
  spec.num_classes = 4;
  spec.test_counts = {5, 4, 3, 3};
  return MakeSynthetic(spec);
}

TrainTest GenImbalanceSingleton(const std::string& id, std::uint64_t seed) {
  SyntheticSpec spec = BaseSpec(id, seed);
  spec.train_counts = {16, 6, 1};  // one single-member minority class
  return MakeSynthetic(spec);
}

TrainTest GenImbalanceSingletonMany(const std::string& id,
                                    std::uint64_t seed) {
  SyntheticSpec spec = BaseSpec(id, seed);
  spec.num_classes = 4;
  spec.train_counts = {18, 1, 1, 1};  // three singleton minorities
  spec.test_counts = {6, 3, 3, 3};
  return MakeSynthetic(spec);
}

TrainTest GenMissingMcar20(const std::string& id, std::uint64_t seed) {
  TrainTest data = MakeSynthetic(BaseSpec(id, seed));
  core::Rng rng(ScenarioSeed(id, seed) ^ 0x6d63ull);
  KnockoutMcar(data.train, 0.2, rng);
  KnockoutMcar(data.test, 0.2, rng);
  return data;
}

TrainTest GenMissingMcar60(const std::string& id, std::uint64_t seed) {
  TrainTest data = MakeSynthetic(BaseSpec(id, seed));
  core::Rng rng(ScenarioSeed(id, seed) ^ 0x6d63ull);
  KnockoutMcar(data.train, 0.6, rng);
  KnockoutMcar(data.test, 0.6, rng);
  return data;
}

TrainTest GenMissingBursty(const std::string& id, std::uint64_t seed) {
  TrainTest data = MakeSynthetic(BaseSpec(id, seed));
  core::Rng rng(ScenarioSeed(id, seed) ^ 0x6275ull);
  KnockoutBursty(data.train, 0.08, 8, 12, rng);
  KnockoutBursty(data.test, 0.08, 8, 12, rng);
  return data;
}

TrainTest GenMissingChannelDropout(const std::string& id,
                                   std::uint64_t seed) {
  TrainTest data = MakeSynthetic(BaseSpec(id, seed));
  core::Rng rng(ScenarioSeed(id, seed) ^ 0x64726full);
  DropoutChannels(data.train, 0.3, rng);
  DropoutChannels(data.test, 0.3, rng);
  return data;
}

TrainTest GenMissingChannelDead(const std::string& id, std::uint64_t seed) {
  TrainTest data = MakeSynthetic(BaseSpec(id, seed));
  KillChannelEverywhere(data, 0);
  return data;
}

TrainTest GenMissingExtreme95(const std::string& id, std::uint64_t seed) {
  TrainTest data = MakeSynthetic(BaseSpec(id, seed));
  core::Rng rng(ScenarioSeed(id, seed) ^ 0x3935ull);
  KnockoutMcar(data.train, 0.95, rng);
  KnockoutMcar(data.test, 0.95, rng);
  return data;
}

TrainTest GenMissingNearTotal99(const std::string& id, std::uint64_t seed) {
  TrainTest data = MakeSynthetic(BaseSpec(id, seed));
  core::Rng rng(ScenarioSeed(id, seed) ^ 0x3939ull);
  KnockoutMcar(data.train, 0.99, rng);
  KnockoutMcar(data.test, 0.99, rng);
  return data;
}

TrainTest GenVarlenMild(const std::string& id, std::uint64_t seed) {
  TrainTest data = MakeSynthetic(BaseSpec(id, seed));
  core::Rng rng(ScenarioSeed(id, seed) ^ 0x766cull);
  VariableLengths(data.train, 24, rng);
  VariableLengths(data.test, 24, rng);
  return data;
}

TrainTest GenVarlenExtreme(const std::string& id, std::uint64_t seed) {
  SyntheticSpec spec = BaseSpec(id, seed);
  spec.length = 64;
  TrainTest data = MakeSynthetic(spec);
  core::Rng rng(ScenarioSeed(id, seed) ^ 0x7665ull);
  VariableLengths(data.train, 4, rng);
  VariableLengths(data.test, 4, rng);
  return data;
}

TrainTest GenVarlenTinyMix(const std::string& id, std::uint64_t seed) {
  TrainTest data = MakeSynthetic(BaseSpec(id, seed));
  // Every third instance collapses to a single step — below the length
  // floor, so the repair pass must stretch exactly these.
  for (core::Dataset* split : {&data.train, &data.test}) {
    for (int i = 0; i < split->size(); i += 3) {
      split->mutable_series(i) = Truncate(split->series(i), 1);
    }
  }
  return data;
}

TrainTest GenLengthOneAll(const std::string& id, std::uint64_t seed) {
  TrainTest data = MakeSynthetic(BaseSpec(id, seed));
  TruncateAll(data.train, 1);
  TruncateAll(data.test, 1);
  return data;
}

TrainTest GenConstantChannel(const std::string& id, std::uint64_t seed) {
  TrainTest data = MakeSynthetic(BaseSpec(id, seed));
  MakeChannelConstant(data.train, 1, 0.7);
  MakeChannelConstant(data.test, 1, 0.7);
  return data;
}

TrainTest GenConstantAll(const std::string& id, std::uint64_t seed) {
  TrainTest data = MakeSynthetic(BaseSpec(id, seed));
  for (core::Dataset* split : {&data.train, &data.test}) {
    for (int c = 0; c < 3; ++c) {
      MakeChannelConstant(*split, c, 0.25 * (c + 1));
    }
  }
  return data;
}

TrainTest GenSingleChannel(const std::string& id, std::uint64_t seed) {
  SyntheticSpec spec = BaseSpec(id, seed);
  spec.num_channels = 1;
  return MakeSynthetic(spec);
}

TrainTest GenAllNanChannelPair(const std::string& id, std::uint64_t seed) {
  TrainTest data = MakeSynthetic(BaseSpec(id, seed));
  KillChannelEverywhere(data, 2);
  core::Rng rng(ScenarioSeed(id, seed) ^ 0x706eull);
  DropoutChannels(data.train, 0.25, rng);
  DropoutChannels(data.test, 0.25, rng);
  return data;
}

TrainTest GenEmptyClass(const std::string& id, std::uint64_t seed) {
  TrainTest data = MakeSynthetic(BaseSpec(id, seed));
  EmptyTrainClass(data, 2);
  return data;
}

TrainTest GenCombinedWorstCase(const std::string& id, std::uint64_t seed) {
  SyntheticSpec spec = BaseSpec(id, seed);
  spec.train_counts = {14, 5, 1};  // singleton minority
  TrainTest data = MakeSynthetic(spec);
  core::Rng rng(ScenarioSeed(id, seed) ^ 0x6377ull);
  KnockoutBursty(data.train, 0.06, 6, 10, rng);
  KnockoutBursty(data.test, 0.06, 6, 10, rng);
  DropoutChannels(data.train, 0.2, rng);
  DriftRamp(data, 2.0);
  VariableLengths(data.train, 16, rng);
  VariableLengths(data.test, 16, rng);
  return data;
}

const std::vector<ScenarioEntry>& Entries() {
  static const std::vector<ScenarioEntry>* entries = [] {
    auto* list = new std::vector<ScenarioEntry>{
        {{"drift_step_mild", "drift", "test set shifted by +0.8"},
         GenDriftStepMild},
        {{"drift_step_severe", "drift", "test set shifted by +2.5"},
         GenDriftStepSevere},
        {{"drift_ramp_mild", "drift", "linear 0..1.5 ramp across the test set"},
         GenDriftRampMild},
        {{"drift_ramp_severe", "drift",
          "linear 0..4.0 ramp across the test set"},
         GenDriftRampSevere},
        {{"drift_class_skew", "drift", "only class 1 drifts (+2.0)"},
         GenDriftClassSkew},
        {{"drift_sign_flip", "drift",
          "classes drift in opposite directions (-1.5 / +1.5)"},
         GenDriftSignFlip},
        {{"imbalance_mild", "imbalance", "Hellinger imbalance degree 0.2"},
         GenImbalanceMild},
        {{"imbalance_severe", "imbalance", "Hellinger imbalance degree 0.5"},
         GenImbalanceSevere},
        {{"imbalance_extreme", "imbalance",
          "4 classes at imbalance degree 0.7"},
         GenImbalanceExtreme},
        {{"imbalance_singleton", "imbalance",
          "minority class with a single training instance"},
         GenImbalanceSingleton},
        {{"imbalance_singleton_many", "imbalance",
          "three of four classes are singletons"},
         GenImbalanceSingletonMany},
        {{"missing_mcar_20", "missing", "20% missing completely at random"},
         GenMissingMcar20},
        {{"missing_mcar_60", "missing", "60% missing completely at random"},
         GenMissingMcar60},
        {{"missing_bursty", "missing", "contiguous 8-12 step missing runs"},
         GenMissingBursty},
        {{"missing_channel_dropout", "missing",
          "whole channels missing per instance (p=0.3)"},
         GenMissingChannelDropout},
        {{"missing_channel_dead", "missing",
          "channel 0 missing in every instance"},
         GenMissingChannelDead},
        {{"missing_extreme_95", "missing", "95% missing at random"},
         GenMissingExtreme95},
        {{"missing_near_total_99", "missing", "99% missing at random"},
         GenMissingNearTotal99},
        {{"varlen_mild", "geometry", "lengths vary in [24, 32]"},
         GenVarlenMild},
        {{"varlen_extreme", "geometry", "lengths vary in [4, 64]"},
         GenVarlenExtreme},
        {{"varlen_tiny_mix", "geometry",
          "every third series truncated to one step"},
         GenVarlenTinyMix},
        {{"length_one_all", "geometry",
          "every series one step long (below the model floor; fails typed)"},
         GenLengthOneAll},
        {{"constant_channel", "geometry", "channel 1 frozen at 0.7"},
         GenConstantChannel},
        {{"constant_all", "geometry", "every channel constant"},
         GenConstantAll},
        {{"single_channel", "geometry", "univariate (1-channel) dataset"},
         GenSingleChannel},
        {{"allnan_channel_pair", "geometry",
          "dead channel 2 plus per-instance dropout"},
         GenAllNanChannelPair},
        {{"empty_class", "imbalance",
          "class 2 present in test but absent from training"},
         GenEmptyClass},
        {{"combined_worst_case", "missing",
          "singleton class + bursty missing + dropout + ramp drift + varlen"},
         GenCombinedWorstCase},
    };
    return list;
  }();
  return *entries;
}

}  // namespace

const std::vector<ScenarioInfo>& ScenarioCatalog() {
  static const std::vector<ScenarioInfo>* catalog = [] {
    auto* list = new std::vector<ScenarioInfo>();
    for (const ScenarioEntry& entry : Entries()) list->push_back(entry.info);
    return list;
  }();
  return *catalog;
}

std::vector<std::string> ScenarioIds() {
  std::vector<std::string> ids;
  ids.reserve(Entries().size());
  for (const ScenarioEntry& entry : Entries()) ids.push_back(entry.info.id);
  return ids;
}

core::StatusOr<TrainTest> TryMakeScenarioDataset(const std::string& id,
                                                 std::uint64_t seed) {
  for (const ScenarioEntry& entry : Entries()) {
    if (entry.info.id == id) return entry.generate(id, seed);
  }
  return core::InvalidArgumentError("scenarios: unknown scenario id \"" + id +
                                    "\"");
}

}  // namespace tsaug::data
