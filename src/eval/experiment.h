#ifndef TSAUG_EVAL_EXPERIMENT_H_
#define TSAUG_EVAL_EXPERIMENT_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "augment/augmenter.h"
#include "augment/timegan.h"
#include "classify/inception_time.h"
#include "classify/rocket.h"
#include "core/status.h"
#include "data/synthetic.h"
#include "eval/journal.h"

namespace tsaug::eval {

/// Which of the paper's two baseline models a grid runs.
enum class ModelKind {
  kRocket,
  kInceptionTime,
};

std::string ModelKindName(ModelKind model);

/// Configuration of one study grid (one of Tables IV/V).
struct ExperimentConfig {
  ModelKind model = ModelKind::kRocket;
  /// Paper: accuracies averaged over 5 runs.
  int runs = 5;
  int rocket_kernels = 10000;
  classify::InceptionTimeConfig inception;
  std::uint64_t seed = 0;

  /// Which dataset catalog the grid runs over ("" = the default UEA-like
  /// Table-III suite; "stress" = the scenario catalog in
  /// data/scenarios.h). Folded into ConfigFingerprint when non-empty, so
  /// a journal written by a stress grid can never be silently replayed
  /// against another suite whose dataset names happen to collide.
  std::string dataset_suite;

  /// When non-empty, completed cells are journaled here (see
  /// eval/journal.h) and a grid restarted against the same journal skips
  /// them, reproducing the uninterrupted report bit for bit.
  std::string journal_path;

  /// Wall-clock budget per cell phase (augmentation, then training), in
  /// seconds; 0 disables it. A cell that overruns is recorded as failed
  /// with kDeadlineExceeded — the grid itself keeps going.
  double cell_budget_seconds = 0.0;

  /// Shard filter (eval/shard.h): with shard_count > 1, this process
  /// computes, journals and folds only the cells that
  /// ShardOfCell(dataset, run, cell, shard_count) assigns to shard_index;
  /// every other cell is skipped entirely. Like the budget/journal knobs,
  /// sharding is excluded from ConfigFingerprint — it changes *where* a
  /// cell runs, never what it computes, so shard journals merge into an
  /// unsharded run's journal.
  int shard_index = 0;
  int shard_count = 1;

  /// Replay mode for the shard supervisor's merge step: every cell must
  /// come from the journal. Nothing is computed or appended; a cell the
  /// journal lacks (its shard exhausted retries) is recorded as failed
  /// with kUnavailable instead of being silently recomputed in-process.
  bool resume_only = false;
};

/// Accuracy of one augmentation technique on one dataset: the mean over
/// the runs that succeeded. A cell run that fails after every recovery
/// policy is exhausted (singular ridge solve, diverged training, injected
/// fault) bumps `failed_runs` and keeps the final Status for the report;
/// the rest of the grid is unaffected. When *every* run of a cell failed,
/// `accuracy` is NaN — aggregate statistics skip non-finite cells instead
/// of treating them as accuracy 0.
struct CellResult {
  CellResult() = default;
  CellResult(std::string technique_name, double mean_accuracy)
      : technique(std::move(technique_name)), accuracy(mean_accuracy) {}

  std::string technique;
  double accuracy = 0.0;
  /// Runs of this cell that failed after retries were exhausted.
  int failed_runs = 0;
  /// Internal recoveries (alpha escalations, divergence restores, LOOCV
  /// fallbacks) summed over this cell's successful runs.
  int recovered_retries = 0;
  /// Runs of this cell restored from the journal instead of recomputed.
  int resumed_runs = 0;
  /// Status of the most recent failed run (ok when failed_runs == 0).
  core::Status last_error;
};

/// One row of Table IV/V: baseline accuracy plus one cell per technique
/// and the relative improvement of the best technique (Eq. 3, in %).
struct DatasetRow {
  std::string dataset;
  double baseline_accuracy = 0.0;
  int baseline_failed_runs = 0;
  int baseline_retries = 0;
  int baseline_resumed_runs = 0;
  core::Status baseline_error;
  std::vector<CellResult> cells;

  /// True when a stop request (signal, injected stop) cut the grid short:
  /// the row averages only the runs completed before the interruption.
  bool interrupted = false;
  /// Cells (across all runs) restored from the journal.
  int resumed_cells = 0;

  /// Best finite augmented accuracy, or NaN when every cell failed.
  double BestAugmentedAccuracy() const;
  /// Technique of the best finite cell, or "" when every cell failed.
  std::string BestTechnique() const;
  /// Relative gain of the best technique over the baseline, in percent.
  /// NaN when the baseline or every augmented cell is non-finite.
  double ImprovementPercent() const;
};

/// A full study grid (all datasets x techniques for one model).
struct StudyResult {
  ModelKind model = ModelKind::kRocket;
  std::vector<DatasetRow> rows;

  /// True when a stop request ended the study before every dataset ran.
  bool interrupted = false;
  /// Journal backing this study ("" when journaling was off).
  std::string journal_path;
  /// Cells restored from the journal, summed over rows.
  int resumed_cells = 0;

  /// The paper's bottom-row statistic: mean of per-dataset improvements
  /// (rows with a non-finite improvement are skipped; NaN if none left).
  double AverageImprovement() const;

  /// Table VI counts: for each technique family ("noise" groups the three
  /// levels; "smote"/"timegan" stand alone), the number of datasets where
  /// the family's best cell beats the baseline.
  std::map<std::string, int> ImprovementCounts() const;
};

/// Eq. (3): relative gain of an augmented model over the baseline.
double RelativeGain(double augmented_accuracy, double baseline_accuracy);

/// Result of one successful train-and-score: the accuracy plus how many
/// internal recoveries (ridge alpha escalations, LOOCV fallbacks, trainer
/// divergence restores) the model needed to get there.
struct ScoreOutcome {
  double accuracy = 0.0;
  int retries = 0;
};

/// Trains the configured model on `train` and scores it on `test`.
/// For InceptionTime, `validation` holds the original stratified samples
/// used for early stopping (the paper keeps augmented data out of it).
/// Returns the Status of a model whose training failed after its recovery
/// policies were exhausted.
///
/// `shared` (ROCKET only) holds a run's transform and the features of its
/// base training rows and of `test`. When it was built for
/// (config.rocket_kernels, run_seed) and Extends(train, test), only the
/// rows of `train` after the base are transformed; otherwise the call
/// falls back to a fresh RocketClassifier. Either way the outcome is
/// bit-identical.
[[nodiscard]] core::StatusOr<ScoreOutcome> TryTrainAndScore(
    const ExperimentConfig& config, const core::Dataset& train,
    const core::Dataset& validation, const core::Dataset& test,
    std::uint64_t run_seed,
    const classify::RocketRunFeatures* shared = nullptr);

/// Identity string of a grid: model, runs, seed, architecture and the
/// technique list. Written into the journal header so a journal can never
/// be silently resumed against a different experiment.
std::string ConfigFingerprint(
    const ExperimentConfig& config,
    const std::vector<std::shared_ptr<augment::Augmenter>>& techniques);

/// Runs the full technique grid for one dataset: baseline plus every
/// augmenter in `techniques` (each applied with the paper's
/// balance-to-majority protocol), averaged over config.runs runs.
///
/// Durability: when `journal` is non-null (a Journal the caller opened,
/// shared across a study's datasets) it is used as-is; otherwise, when
/// config.journal_path is non-empty, a journal is opened there for this
/// grid. Cells found in the journal are restored instead of recomputed and
/// the resulting row is bitwise identical to an uninterrupted run.
/// Interruption: a stop request (SIGINT/SIGTERM via
/// core::InstallStopSignalHandlers, or an injected "grid.run"/"cell.start"
/// stop) discards the partially-evaluated run, marks the row interrupted
/// and returns what completed — with every finished cell already flushed
/// to the journal.
[[nodiscard]] core::StatusOr<DatasetRow> TryRunDatasetGrid(
    const std::string& name, const data::TrainTest& data,
    const std::vector<std::shared_ptr<augment::Augmenter>>& techniques,
    const ExperimentConfig& config, Journal* journal = nullptr);

}  // namespace tsaug::eval

#endif  // TSAUG_EVAL_EXPERIMENT_H_
