#ifndef TSAUG_EVAL_REPORT_H_
#define TSAUG_EVAL_REPORT_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "core/stats.h"
#include "data/uea_catalog.h"
#include "eval/experiment.h"

namespace tsaug::eval {

/// Prints Table III (dataset properties) in the paper's column order.
void PrintPropertiesTable(const std::vector<core::DatasetProperties>& rows,
                          std::ostream& out);

/// Prints a Table IV/V-style accuracy grid: one row per dataset with the
/// baseline, one column per technique (accuracies in %), the per-dataset
/// best-technique relative improvement, and the average improvement row.
void PrintAccuracyTable(const StudyResult& result, std::ostream& out);

/// Prints Table VI: improvement-occurrence counts per technique family for
/// the two models side by side.
void PrintImprovementCounts(const StudyResult& rocket,
                            const StudyResult& inception, std::ostream& out);

/// Environment-variable knobs shared by the table benches so `bench/*`
/// stays tractable on one core but can be dialed up to paper scale:
///   TSAUG_SCALE        tiny|small|paper   (default tiny)
///   TSAUG_RUNS         runs per cell      (default 2; paper 5)
///   TSAUG_KERNELS      ROCKET kernels     (default 500; paper 10000)
///   TSAUG_EPOCHS       InceptionTime max epochs (default 40; paper 200)
///   TSAUG_TIMEGAN_ITERS  per-phase cap    (default 60; paper 2500)
///   TSAUG_DATASETS     comma-separated subset of Table III names
///   TSAUG_TECHNIQUES   comma-separated subset of the paper's technique
///                      names (noise_1.0, noise_3.0, noise_5.0, smote,
///                      timegan); empty/unset = all five
///   TSAUG_JOURNAL      cell journal path (default off; see eval/journal.h)
///   TSAUG_CELL_BUDGET  per-cell wall budget in seconds (default off)
/// The benches also accept --journal=PATH and --cell-budget-seconds=S
/// flags (bench/fig_demo_common.h), which override the environment.
struct BenchSettings {
  data::ScalePreset scale = data::ScalePreset::kTiny;
  int runs = 2;
  int rocket_kernels = 500;
  int inception_epochs = 40;
  int timegan_iterations = 60;
  std::vector<std::string> datasets;    // empty = all 13
  std::vector<std::string> techniques;  // empty = all 5 paper techniques
  std::uint64_t seed = 42;
  std::string journal_path;          // empty = journaling off
  double cell_budget_seconds = 0.0;  // 0 = no per-cell deadline
};

/// Reads the TSAUG_* environment variables. An unset or empty variable
/// keeps its default; a malformed one is kInvalidArgument naming it: a
/// TSAUG_SCALE other than tiny|small|paper, a TSAUG_RUNS, TSAUG_KERNELS,
/// TSAUG_EPOCHS or TSAUG_TIMEGAN_ITERS that is not a whole integer >= 1, a
/// TSAUG_SEED that is not one >= 0, a TSAUG_CELL_BUDGET that is not a
/// finite number >= 0, or a TSAUG_TECHNIQUES entry naming no paper
/// technique.
[[nodiscard]] core::StatusOr<BenchSettings> ReadBenchSettings();

/// Applies the bench command-line flags to `settings`:
///   --journal=PATH (or --journal PATH)           journal file
///   --cell-budget-seconds=S (or ... -seconds S)  per-cell wall budget
/// Flags override the TSAUG_JOURNAL / TSAUG_CELL_BUDGET environment
/// variables. An unknown flag, a missing value or a budget outside
/// [0, 1e9] (as for TSAUG_CELL_BUDGET) is kInvalidArgument, and `settings`
/// is unchanged.
[[nodiscard]] core::Status ApplyGridFlags(int argc, char** argv,
                                          BenchSettings& settings);

/// The experiment configuration for a table bench under these settings.
ExperimentConfig MakeExperimentConfig(const BenchSettings& settings,
                                      ModelKind model);

/// The paper's techniques sized to these settings, filtered to
/// settings.techniques (paper names, as ReadBenchSettings checks) when set.
std::vector<std::shared_ptr<augment::Augmenter>> MakePaperTechniques(
    const BenchSettings& settings);

/// kInvalidArgument "unknown <kind> '<name>'" for the first of `names`
/// that is not in `known`; OK when all are. Grids check their dataset list
/// with it before the first dataset runs (kind "paper dataset" or "stress
/// dataset"), ReadBenchSettings the TSAUG_TECHNIQUES entries.
[[nodiscard]] core::Status CheckNames(const std::vector<std::string>& names,
                                      const std::vector<std::string>& known,
                                      const std::string& kind);

/// Runs the full study grid (all selected datasets) for one model: the
/// settings' config, techniques and UEA-like loader handed to
/// RunShardedStudy (eval/shard.h), unsharded. With settings.journal_path
/// set, one journal is shared across all datasets, so an interrupted study
/// resumes from wherever it was killed. A stop request (core/cancel.h)
/// ends the study after flushing the current dataset's completed cells;
/// the partial result is marked interrupted. Returns kInvalidArgument for
/// a dataset name outside the paper's catalog (before any dataset runs)
/// and the Status of a journal that cannot be opened (e.g. a fingerprint
/// mismatch).
[[nodiscard]] core::StatusOr<StudyResult> RunStudy(
    const BenchSettings& settings, ModelKind model);

}  // namespace tsaug::eval

#endif  // TSAUG_EVAL_REPORT_H_
