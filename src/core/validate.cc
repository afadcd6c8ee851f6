#include "core/validate.h"

#include <cmath>
#include <utility>

#include "core/preprocess.h"
#include "core/rng.h"

namespace tsaug::core {
namespace {

/// True when channel `c` of `series` holds no observed (non-NaN) sample.
bool ChannelAllMissing(const TimeSeries& series, int c) {
  for (double v : series.channel(c)) {
    if (!std::isnan(v)) return false;
  }
  return true;
}

bool AllValuesMissing(const Dataset& dataset) {
  for (int i = 0; i < dataset.size(); ++i) {
    for (double v : dataset.series(i).values()) {
      if (!std::isnan(v)) return false;
    }
  }
  return !dataset.empty();
}

/// Channels missing in every instance of `dataset` (indices into the
/// shared channel space; requires consistent channels).
std::vector<int> ChannelsMissingEverywhere(const Dataset& dataset) {
  std::vector<int> dead;
  if (dataset.empty()) return dead;
  const int channels = dataset.series(0).num_channels();
  for (int c = 0; c < channels; ++c) {
    bool everywhere = true;
    for (int i = 0; i < dataset.size() && everywhere; ++i) {
      everywhere = ChannelAllMissing(dataset.series(i), c);
    }
    if (everywhere) dead.push_back(c);
  }
  return dead;
}

/// A copy of `series` without the channels in `drop` (sorted ascending).
TimeSeries DropChannels(const TimeSeries& series,
                        const std::vector<int>& drop) {
  std::vector<std::vector<double>> kept;
  size_t next = 0;
  for (int c = 0; c < series.num_channels(); ++c) {
    if (next < drop.size() && drop[next] == c) {
      ++next;
      continue;
    }
    const auto view = series.channel(c);
    kept.emplace_back(view.begin(), view.end());
  }
  return TimeSeries::FromChannels(kept);
}

/// Observed mean of channel `c` across every instance (0.0 when nothing
/// is observed — callers only use this for channels observed somewhere).
double DatasetChannelMean(const Dataset& dataset, int c) {
  double sum = 0.0;
  long long count = 0;
  for (int i = 0; i < dataset.size(); ++i) {
    for (double v : dataset.series(i).channel(c)) {
      if (std::isnan(v)) continue;
      sum += v;
      ++count;
    }
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

}  // namespace

bool ValidationReport::HasFatal() const {
  for (const Diagnosis& d : findings) {
    if (d.severity == Severity::kFatal) return true;
  }
  return false;
}

bool ValidationReport::NeedsRepair() const {
  for (const Diagnosis& d : findings) {
    if (d.severity == Severity::kRepairable) return true;
  }
  return false;
}

Status ValidationReport::FirstFatal() const {
  for (const Diagnosis& d : findings) {
    if (d.severity == Severity::kFatal) return d.status;
  }
  return OkStatus();
}

bool ChannelsConsistent(const Dataset& dataset) {
  for (int i = 1; i < dataset.size(); ++i) {
    if (dataset.series(i).num_channels() !=
        dataset.series(0).num_channels()) {
      return false;
    }
  }
  return true;
}

ValidationReport ValidateDataset(const Dataset& dataset,
                                 const ValidateOptions& options) {
  ValidationReport report;
  auto add = [&report](Severity severity, Status status) {
    report.findings.push_back(Diagnosis{severity, std::move(status)});
  };

  if (dataset.empty()) {
    add(Severity::kFatal, DegenerateInputError("validate: dataset is empty"));
    return report;
  }

  // Geometry first: the shape checks below assume a shared channel space.
  for (int i = 0; i < dataset.size(); ++i) {
    if (dataset.series(i).num_channels() < 1 ||
        dataset.series(i).length() < 1) {
      add(Severity::kFatal,
          GeometryMismatchError("validate: series " + std::to_string(i) +
                                " has no samples"));
      return report;
    }
  }
  if (!ChannelsConsistent(dataset)) {
    add(Severity::kFatal,
        GeometryMismatchError(
            "validate: inconsistent channel counts across instances"));
    return report;
  }

  if (AllValuesMissing(dataset)) {
    add(Severity::kFatal,
        AllMissingError("validate: every value in the dataset is missing"));
    return report;
  }

  // Length floor. A dataset whose *longest* series is below the floor has
  // no temporal signal to train on; individual short series can be
  // stretched up to it.
  int max_len = 0;
  int below_floor = 0;
  for (int i = 0; i < dataset.size(); ++i) {
    const int len = dataset.series(i).length();
    max_len = len > max_len ? len : max_len;
    if (len < options.min_length) ++below_floor;
  }
  if (max_len < options.min_length) {
    add(Severity::kFatal,
        DegenerateInputError(
            "validate: every series is shorter than the model floor (" +
            std::to_string(max_len) + " < " +
            std::to_string(options.min_length) + ")"));
  } else if (below_floor > 0) {
    add(Severity::kRepairable,
        DegenerateInputError("validate: " + std::to_string(below_floor) +
                             " series below the length floor of " +
                             std::to_string(options.min_length)));
  }

  // Missingness structure: channels dead everywhere are repairable by
  // dropping (fatal when that would leave nothing); per-instance dead
  // channels are repairable by imputation.
  const std::vector<int> dead = ChannelsMissingEverywhere(dataset);
  const int channels = dataset.series(0).num_channels();
  if (!dead.empty()) {
    if (static_cast<int>(dead.size()) >= channels) {
      add(Severity::kFatal,
          AllMissingError(
              "validate: every channel is missing in every instance"));
    } else {
      add(Severity::kRepairable,
          AllMissingError("validate: " + std::to_string(dead.size()) + "/" +
                          std::to_string(channels) +
                          " channels missing in every instance"));
    }
  }
  int instance_dead = 0;
  for (int i = 0; i < dataset.size(); ++i) {
    for (int c = 0; c < channels; ++c) {
      if (ChannelAllMissing(dataset.series(i), c)) ++instance_dead;
    }
  }
  // Subtract the channels already diagnosed as dead everywhere.
  instance_dead -= static_cast<int>(dead.size()) * dataset.size();
  if (instance_dead > 0) {
    add(Severity::kRepairable,
        AllMissingError("validate: " + std::to_string(instance_dead) +
                        " per-instance all-missing channels"));
  }

  // Class structure. Gaps in the label space are tolerated: balancing
  // skips them, and a per-class generator asked for one reports
  // kEmptyClass itself.
  const std::vector<int> counts = dataset.ClassCounts();
  for (size_t label = 0; label < counts.size(); ++label) {
    if (counts[label] == 0) {
      add(Severity::kNote,
          EmptyClassError("validate: class " + std::to_string(label) +
                          " has no instances"));
    } else if (counts[label] == 1) {
      add(Severity::kNote,
          DegenerateInputError("validate: class " + std::to_string(label) +
                               " has a single instance"));
    }
  }

  // Constant channels are tolerated (z-normalisation centres them) but
  // worth surfacing: a stress scenario plants them deliberately.
  int constant_channels = 0;
  for (int i = 0; i < dataset.size(); ++i) {
    for (int c = 0; c < channels; ++c) {
      if (ChannelAllMissing(dataset.series(i), c)) continue;
      if (dataset.series(i).ChannelStdDev(c) == 0.0) ++constant_channels;
    }
  }
  if (constant_channels > 0) {
    add(Severity::kNote,
        DegenerateInputError("validate: " +
                             std::to_string(constant_channels) +
                             " constant (zero-variance) channels"));
  }

  return report;
}

StatusOr<RepairOutcome> TryRepairTrainTest(const Dataset& train,
                                           const Dataset& test,
                                           const ValidateOptions& options,
                                           std::uint64_t seed) {
  const ValidationReport train_report = ValidateDataset(train, options);
  if (train_report.HasFatal()) {
    Status fatal = train_report.FirstFatal();
    return fatal.AddContext("repair(train)");
  }
  const ValidationReport test_report = ValidateDataset(test, options);
  if (test_report.HasFatal()) {
    Status fatal = test_report.FirstFatal();
    return fatal.AddContext("repair(test)");
  }

  RepairOutcome outcome;
  if (!train_report.NeedsRepair() && !test_report.NeedsRepair()) {
    // Healthy (or note-only) data: hand the inputs back untouched so the
    // non-stress grids keep their exact bits.
    outcome.train = train;
    outcome.test = test;
    return outcome;
  }

  outcome.repaired = true;
  outcome.train = Dataset(train.num_classes());
  outcome.test = Dataset(test.num_classes());

  // Policy 1 — drop channels that the *training* set never observed, from
  // both splits. Decided on train only: the model cannot learn from a
  // channel it never sees, whatever the test set holds. ValidateDataset
  // already guaranteed at least one channel survives.
  const std::vector<int> drop = ChannelsMissingEverywhere(train);
  outcome.dropped_channels = static_cast<int>(drop.size());

  // Policies 2+3 run per instance in deterministic order (train first,
  // then test) off one seeded stream, so every process that repairs this
  // pair — golden run, any shard, a resumed worker — produces identical
  // bytes.
  Rng rng(seed);
  auto repair_into = [&](const Dataset& source, Dataset& sink) {
    for (int i = 0; i < source.size(); ++i) {
      TimeSeries series = drop.empty() ? source.series(i)
                                       : DropChannels(source.series(i), drop);
      // Policy 2 — a channel missing in this instance but observed
      // elsewhere in training: anchor it to the training set's observed
      // channel mean with bounded jitter (1e-3), enough to avoid an
      // artificial zero-variance channel, far below signal scale.
      size_t dropped_before = 0;
      for (int c = 0; c < series.num_channels(); ++c) {
        while (dropped_before < drop.size() &&
               drop[dropped_before] <= c + static_cast<int>(dropped_before)) {
          ++dropped_before;
        }
        const int original_channel = c + static_cast<int>(dropped_before);
        if (!ChannelAllMissing(series, c)) continue;
        const double mean = DatasetChannelMean(train, original_channel);
        for (double& v : series.channel(c)) {
          v = mean + rng.Normal(0.0, 1e-3);
        }
        ++outcome.imputed_channels;
      }
      // Policy 3 — stretch below-floor series up to the floor.
      if (series.length() < options.min_length) {
        series = ResampleToLength(series, options.min_length);
        ++outcome.resampled_series;
      }
      sink.Add(std::move(series), source.label(i));
    }
  };
  repair_into(train, outcome.train);
  repair_into(test, outcome.test);
  return outcome;
}

}  // namespace tsaug::core
