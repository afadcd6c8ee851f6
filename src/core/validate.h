#ifndef TSAUG_CORE_VALIDATE_H_
#define TSAUG_CORE_VALIDATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/status.h"

namespace tsaug::core {

/// Preflight validation for datasets entering the pipeline.
///
/// The stress-scenario catalog (src/data/scenarios.h) deliberately produces
/// inputs the classifiers and augmenters were never written for: all-NaN
/// channels, length-1 series, single-member classes, inconsistent
/// geometries. The contract downstream is "never an abort, never a silent
/// accuracy 0": every degenerate input is either repaired by a bounded,
/// deterministic policy before it reaches a TSAUG_CHECK, or surfaces as a
/// typed failed cell. ValidateDataset is the diagnosis pass;
/// TryRepairTrainTest is the repair pass. Healthy data passes through both
/// untouched — bit for bit — so the Table-III grids keep their exact
/// results.
///
/// TSAUG_CHECK remains the contract for programmer errors; these helpers
/// exist so *data-shaped* hazards stop being programmer errors at the grid
/// boundary.

/// How a finding constrains what runs next.
enum class Severity {
  /// Tolerated downstream (constant channel, singleton class, gaps in the
  /// label space); recorded for the report, changes nothing.
  kNote,
  /// A deterministic repair policy exists (drop an everywhere-missing
  /// channel, resample a below-floor series); data must pass through
  /// TryRepairTrainTest before training.
  kRepairable,
  /// No sound repair (empty dataset, inconsistent channel counts, every
  /// value missing): the consumer must fail typed with this status.
  kFatal,
};

/// One preflight finding: a typed Status (kEmptyClass, kAllMissing,
/// kGeometryMismatch, kDegenerateInput) plus how severely it constrains
/// the run.
struct Diagnosis {
  Severity severity = Severity::kNote;
  Status status;
};

struct ValidationReport {
  std::vector<Diagnosis> findings;

  bool ok() const { return findings.empty(); }
  bool HasFatal() const;
  bool NeedsRepair() const;
  /// The first fatal finding's status (OK when none) — what a grid cell
  /// records when the dataset cannot run at all.
  Status FirstFatal() const;
};

struct ValidateOptions {
  /// Shortest usable series for the consuming model. ROCKET convolves
  /// windows of >= 2 steps (RocketTransform::Fit aborts below that), and
  /// a z-normalised single point is identically zero, so the default
  /// floor is 2. Series below the floor are repairable when the dataset's
  /// longest series reaches it; a dataset entirely below it is fatal.
  int min_length = 2;
};

/// Diagnoses `dataset` against `options`. Pure inspection: never mutates,
/// never aborts (it avoids the Dataset accessors that TSAUG_CHECK on
/// degenerate shapes). Findings appear in deterministic order.
ValidationReport ValidateDataset(const Dataset& dataset,
                                 const ValidateOptions& options = {});

/// True when every series has the same channel count (vacuously true for
/// an empty dataset). Dataset::num_channels() aborts otherwise, so check
/// this before calling it on untrusted data.
bool ChannelsConsistent(const Dataset& dataset);

/// The result of the repair pass over one train/test pair.
struct RepairOutcome {
  Dataset train;
  Dataset test;
  /// True when any repair actually fired; false means the inputs were
  /// returned untouched (healthy data keeps its exact bits).
  bool repaired = false;
  /// Channels removed because they were missing in every training
  /// instance (the same channels are removed from the test set: a model
  /// cannot use a channel it never observed).
  int dropped_channels = 0;
  /// Per-instance all-NaN channels rewritten to the channel's dataset
  /// mean plus bounded seeded jitter (linear imputation has no anchor
  /// points to work with inside a fully-missing channel).
  int imputed_channels = 0;
  /// Series below the length floor stretched up to it by deterministic
  /// linear resampling.
  int resampled_series = 0;
};

/// Bounded, seeded, deterministic repair of the repairable findings:
///   - a channel missing in *every* training instance is dropped from
///     train and test (fatal instead if no channel would remain);
///   - a channel missing in *one* instance is imputed to the channel's
///     observed mean with jitter drawn from Rng(seed) in instance order;
///   - series shorter than options.min_length are resampled up to the
///     floor (fatal instead if every series is below it).
/// Returns the repaired pair, or the typed status of the first hazard no
/// policy covers. Healthy inputs come back bit-identical with
/// repaired == false. Deterministic in (inputs, options, seed) — shard
/// workers and the golden run compute the same repair independently.
[[nodiscard]] StatusOr<RepairOutcome> TryRepairTrainTest(
    const Dataset& train, const Dataset& test, const ValidateOptions& options,
    std::uint64_t seed);

}  // namespace tsaug::core

#endif  // TSAUG_CORE_VALIDATE_H_
