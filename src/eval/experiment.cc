#include "eval/experiment.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "classify/rocket.h"
#include "core/cancel.h"
#include "core/faultpoint.h"
#include "core/parallel.h"
#include "core/trace.h"
#include "core/validate.h"
#include "eval/shard.h"
#include "linalg/ridge.h"

namespace tsaug::eval {

std::string ModelKindName(ModelKind model) {
  switch (model) {
    case ModelKind::kRocket:
      return "ROCKET";
    case ModelKind::kInceptionTime:
      return "InceptionTime";
  }
  TSAUG_CHECK(false);
  return "";
}

double DatasetRow::BestAugmentedAccuracy() const {
  // Cells whose every run failed hold NaN; they must not masquerade as
  // accuracy 0 (which would still "win" over an absent best and poison
  // the improvement statistics).
  double best = std::numeric_limits<double>::quiet_NaN();
  for (const CellResult& cell : cells) {
    if (!std::isfinite(cell.accuracy)) continue;
    if (!std::isfinite(best) || cell.accuracy > best) best = cell.accuracy;
  }
  return best;
}

std::string DatasetRow::BestTechnique() const {
  TSAUG_CHECK(!cells.empty());
  const CellResult* best = nullptr;
  for (const CellResult& cell : cells) {
    if (!std::isfinite(cell.accuracy)) continue;
    if (best == nullptr || cell.accuracy > best->accuracy) best = &cell;
  }
  return best == nullptr ? std::string() : best->technique;
}

double DatasetRow::ImprovementPercent() const {
  // A NaN best (every cell failed) propagates through RelativeGain.
  return 100.0 * RelativeGain(BestAugmentedAccuracy(), baseline_accuracy);
}

double StudyResult::AverageImprovement() const {
  double total = 0.0;
  int counted = 0;
  for (const DatasetRow& row : rows) {
    const double improvement = row.ImprovementPercent();
    if (!std::isfinite(improvement)) continue;
    total += improvement;
    ++counted;
  }
  if (counted == 0) return std::numeric_limits<double>::quiet_NaN();
  return total / static_cast<double>(counted);
}

namespace {

// Table VI groups the three noise levels into one "noise" family.
std::string TechniqueFamily(const std::string& technique) {
  if (technique.rfind("noise", 0) == 0) return "noise";
  return technique;
}

}  // namespace

std::map<std::string, int> StudyResult::ImprovementCounts() const {
  std::map<std::string, int> counts;
  for (const DatasetRow& row : rows) {
    // Best finite accuracy per family on this dataset. All-failed (NaN)
    // cells are skipped: std::max against NaN is not a comparison we want
    // deciding the table. The family still appears with a zero count.
    std::map<std::string, double> family_best;
    for (const CellResult& cell : row.cells) {
      const std::string family = TechniqueFamily(cell.technique);
      counts.try_emplace(family, 0);
      if (!std::isfinite(cell.accuracy)) continue;
      auto [it, inserted] = family_best.emplace(family, cell.accuracy);
      if (!inserted) it->second = std::max(it->second, cell.accuracy);
    }
    if (!std::isfinite(row.baseline_accuracy)) continue;
    for (const auto& [family, accuracy] : family_best) {
      if (accuracy > row.baseline_accuracy) ++counts[family];
    }
  }
  return counts;
}

double RelativeGain(double augmented_accuracy, double baseline_accuracy) {
  if (!(std::isfinite(baseline_accuracy) && baseline_accuracy > 0.0)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return (augmented_accuracy - baseline_accuracy) / baseline_accuracy;
}

namespace {

/// Typed preflight shared by both models: the shapes below used to be
/// TSAUG_CHECK aborts inside DatasetToTensor / the transforms. The stress
/// catalog produces all of them on purpose; each must fail the cell, not
/// the process.
core::Status PreflightSplits(const core::Dataset& train,
                             const core::Dataset& test) {
  if (train.empty()) {
    return core::DegenerateInputError("train_and_score: training set empty");
  }
  if (test.empty()) {
    return core::DegenerateInputError("train_and_score: test set empty");
  }
  if (!core::ChannelsConsistent(train) || !core::ChannelsConsistent(test)) {
    return core::GeometryMismatchError(
        "train_and_score: inconsistent channel counts within a split");
  }
  if (train.series(0).num_channels() != test.series(0).num_channels()) {
    return core::GeometryMismatchError(
        "train_and_score: train has " +
        std::to_string(train.series(0).num_channels()) +
        " channels but test has " +
        std::to_string(test.series(0).num_channels()));
  }
  for (const core::Dataset* split : {&train, &test}) {
    for (int i = 0; i < split->size(); ++i) {
      if (split->series(i).length() < 1) {
        return core::GeometryMismatchError(
            "train_and_score: series with no samples");
      }
    }
  }
  if (train.max_length() < 2) {
    return core::DegenerateInputError(
        "train_and_score: every training series is below the model floor "
        "of 2 steps");
  }
  return core::OkStatus();
}

ScoreOutcome RocketOutcome(const linalg::RidgeClassifierCV& ridge,
                           const std::vector<int>& predicted,
                           const core::Dataset& test) {
  ScoreOutcome outcome;
  outcome.accuracy = classify::Accuracy(predicted, test.labels());
  outcome.retries = ridge.solve_retries() + (ridge.loocv_fell_back() ? 1 : 0);
  return outcome;
}

}  // namespace

core::StatusOr<ScoreOutcome> TryTrainAndScore(
    const ExperimentConfig& config, const core::Dataset& train,
    const core::Dataset& validation, const core::Dataset& test,
    std::uint64_t run_seed, const classify::RocketRunFeatures* shared) {
  TSAUG_RETURN_IF_ERROR(PreflightSplits(train, test));
  switch (config.model) {
    case ModelKind::kRocket: {
      if (shared != nullptr &&
          shared->transform().num_kernels() == config.rocket_kernels &&
          shared->transform().seed() == run_seed &&
          shared->Extends(train, test)) {
        linalg::RidgeClassifierCV ridge;
        TSAUG_RETURN_IF_ERROR(shared->TryFitRidge(train, ridge));
        return RocketOutcome(ridge, ridge.Predict(shared->test_features()),
                             test);
      }
      // A training set that does not extend the shared rows (e.g. a
      // variable-length set whose synthetic rows raise max_length)
      // transforms every row itself.
      if (shared != nullptr) core::trace::AddCount("eval.rocket_shared_miss");
      classify::RocketClassifier model(config.rocket_kernels, run_seed);
      TSAUG_RETURN_IF_ERROR(model.TryFit(train));
      return RocketOutcome(model.ridge(), model.Predict(test), test);
    }
    case ModelKind::kInceptionTime: {
      classify::InceptionTimeClassifier model(config.inception, run_seed);
      // Degenerate data, not programmer error: a stratified split of a
      // near-empty or all-singleton training set can legitimately come
      // back empty, and the cell must fail typed.
      if (validation.empty()) {
        return core::DegenerateInputError(
            "train_and_score: empty validation split (InceptionTime "
            "requires one)");
      }
      TSAUG_RETURN_IF_ERROR(model.TryFitWithValidation(train, validation));
      ScoreOutcome outcome;
      outcome.accuracy = model.Score(test);
      for (const nn::TrainResult& result : model.train_results()) {
        outcome.retries += result.divergence_retries;
      }
      return outcome;
    }
  }
  TSAUG_CHECK(false);
  return ScoreOutcome{};
}

std::string ConfigFingerprint(
    const ExperimentConfig& config,
    const std::vector<std::shared_ptr<augment::Augmenter>>& techniques) {
  // Everything that changes what a cell computes belongs here; knobs that
  // only shape *when* a grid stops (budget, journal path) do not — a cell
  // completed under one budget is just as valid under another.
  std::string fp = "model=" + ModelKindName(config.model) +
                   ";runs=" + std::to_string(config.runs) +
                   ";seed=" + std::to_string(config.seed);
  if (!config.dataset_suite.empty()) {
    fp += ";suite=" + config.dataset_suite;
  }
  if (config.model == ModelKind::kRocket) {
    fp += ";kernels=" + std::to_string(config.rocket_kernels);
  } else {
    const classify::InceptionTimeConfig& inc = config.inception;
    fp += ";filters=" + std::to_string(inc.num_filters) +
          ";depth=" + std::to_string(inc.depth) +
          ";ensemble=" + std::to_string(inc.ensemble_size) +
          ";epochs=" + std::to_string(inc.trainer.max_epochs);
  }
  fp += ";techniques=";
  for (size_t i = 0; i < techniques.size(); ++i) {
    if (i > 0) fp += ",";
    fp += techniques[i]->name();
  }
  return fp;
}

namespace {

/// The grid body, with an already-open (or absent) journal.
DatasetRow RunGridAgainstJournal(
    const std::string& name, const data::TrainTest& data,
    const std::vector<std::shared_ptr<augment::Augmenter>>& techniques,
    const ExperimentConfig& config, Journal* journal) {
  TSAUG_CHECK(config.runs >= 1);
  TSAUG_TRACE_SCOPE("eval.dataset_grid");
  DatasetRow row;
  row.dataset = name;
  row.cells.reserve(techniques.size());
  for (const auto& technique : techniques) {
    CellResult cell;
    cell.technique = technique->name();
    row.cells.push_back(std::move(cell));
  }

  const size_t num_cells = techniques.size() + 1;  // cell 0 = baseline
  // Accuracy is the mean over *successful* runs, accumulated as sum +
  // count and finalised after the run loop (NaN when no run succeeded).
  std::vector<double> score_sum(num_cells, 0.0);
  std::vector<int> ok_runs(num_cells, 0);

  // Dataset preflight (core/validate.h): diagnose once per dataset,
  // repair deterministically when a bounded policy exists, or mark every
  // cell of the row typed-failed when none does — never an abort, never
  // an accuracy-0 masquerade. Healthy datasets come back bit-identical
  // (repair declines to touch them), so the Table-III grids keep their
  // exact results. The repair seed depends only on (config.seed, dataset
  // name): the golden run, every shard and every resumed attempt compute
  // the same repaired bytes independently.
  std::uint64_t repair_seed = config.seed;
  for (char ch : name) {
    repair_seed = repair_seed * 1099511628211ull +
                  static_cast<unsigned char>(ch);
  }
  core::ValidateOptions preflight_options;
  preflight_options.min_length = 2;
  core::StatusOr<core::RepairOutcome> preflight = core::TryRepairTrainTest(
      data.train, data.test, preflight_options, repair_seed);
  core::Status preflight_fatal;
  const core::Dataset* train_set = &data.train;
  const core::Dataset* test_set = &data.test;
  if (!preflight.ok()) {
    preflight_fatal = preflight.status();
    preflight_fatal.AddContext("preflight(" + name + ")");
    core::trace::AddCount("grid.preflight_fatal");
  } else if (preflight->repaired) {
    train_set = &preflight->train;
    test_set = &preflight->test;
    core::trace::AddCount("grid.preflight_repaired");
  }

  for (int run = 0; run < config.runs; ++run) {
    {
      // Run-boundary stop poll under its own fault domain, so a test can
      // interrupt exactly run r of one dataset ("cancel.stop@grid/<name>/
      // run<r>:1") without also tripping the per-cell polls.
      core::fault::ScopedDomain run_domain("grid/" + name + "/run" +
                                           std::to_string(run));
      if (!core::CheckStop("grid.run").ok()) {
        row.interrupted = true;
        break;
      }
    }
    const std::uint64_t run_seed =
        config.seed + 7919ull * static_cast<unsigned long long>(run + 1);
    core::Rng rng(run_seed);

    // The paper's protocol: InceptionTime validates on original samples
    // only (2:1 stratified split of the training set); augmentation is
    // applied to the training portion. ROCKET has no validation phase and
    // trains on the full (augmented) training set.
    core::Dataset train_part = *train_set;
    core::Dataset validation;
    if (config.model == ModelKind::kInceptionTime && preflight_fatal.ok()) {
      auto split = train_set->StratifiedSplit(
          1.0 - config.inception.validation_fraction, rng);
      train_part = std::move(split.first);
      validation = std::move(split.second);
    }

    // Fault-point domains, one per cell: hit counters are keyed per
    // (rule, domain), so a spec like "ridge.solve@run0/smote:1" targets
    // one cell deterministically at any thread count.
    std::vector<std::string> cell_domain;
    cell_domain.reserve(num_cells);
    const std::string domain_prefix =
        "cell/" + name + "/run" + std::to_string(run) + "/";
    cell_domain.push_back(domain_prefix + "baseline");
    for (const auto& technique : techniques) {
      cell_domain.push_back(domain_prefix + technique->name());
    }

    // Cells already on disk are restored, not recomputed: the journal
    // stores the score's bit pattern, so the resumed row is bitwise
    // identical to the uninterrupted one.
    std::vector<const JournalCell*> resumed(num_cells, nullptr);
    if (journal != nullptr && journal->is_open()) {
      for (size_t c = 0; c < num_cells; ++c) {
        resumed[c] = journal->Find(name, run, static_cast<int>(c));
      }
    }

    // Shard filter (eval/shard.h): cells another shard owns are skipped
    // entirely — no augmentation, no training, no journal record, no fold
    // into the row statistics. Ownership is a pure function of the cell
    // identity, so the union of all shards' journals is exactly the
    // unsharded run's journal.
    std::vector<char> owned(num_cells, 1);
    if (config.shard_count > 1) {
      for (size_t c = 0; c < num_cells; ++c) {
        owned[c] = ShardOfCell(name, run, static_cast<int>(c),
                               config.shard_count) == config.shard_index
                       ? 1
                       : 0;
      }
    }

    // Serial setup phase: every RNG draw (splits above, augmentation
    // below) happens here, with per-cell seeds derived up front, so the
    // evaluation phase is free of shared mutable state. A cell whose
    // augmentation fails (degenerate class, injected fault) is marked
    // failed here and skipped by the evaluation phase; the grid goes on.
    // `cell_done[c]` records that cell c's outcome was actually computed
    // (as opposed to never claimed before an interruption) — only done
    // cells are journaled.
    std::vector<core::Dataset> cell_train;
    std::vector<core::Status> cell_status(num_cells);
    std::vector<char> cell_done(num_cells, 0);
    // Replay mode (config.resume_only): every owned cell must come from
    // the journal. A missing cell — its shard exhausted retries — is
    // marked failed-unavailable up front, so neither the setup nor the
    // evaluation phase computes anything and the report shows the gap
    // instead of silently recomputing it.
    if (config.resume_only) {
      for (size_t c = 0; c < num_cells; ++c) {
        if (owned[c] == 0 || resumed[c] != nullptr) continue;
        cell_status[c] = core::UnavailableError(
            "grid: cell missing from journal (its shard failed)");
        cell_done[c] = 1;
      }
    } else if (!preflight_fatal.ok()) {
      // Irreparable dataset: every owned cell of this run fails with the
      // preflight diagnosis. The cells are journaled like any other
      // failure, so a resumed or merged run replays the same typed row
      // instead of recomputing (and re-diagnosing) the dataset.
      for (size_t c = 0; c < num_cells; ++c) {
        if (owned[c] == 0 || resumed[c] != nullptr) continue;
        cell_status[c] = preflight_fatal;
        cell_done[c] = 1;
      }
    }
    cell_train.reserve(num_cells);
    cell_train.push_back(train_part);  // cell 0 = baseline
    for (size_t i = 0; i < techniques.size(); ++i) {
      if (owned[i + 1] == 0 || !cell_status[i + 1].ok() ||
          resumed[i + 1] != nullptr) {
        cell_train.push_back(train_part);  // placeholder, never trained on
        continue;
      }
      augment::Augmenter& technique = *techniques[i];
      technique.Invalidate();  // train_part changes per run/dataset
      core::fault::ScopedDomain domain(cell_domain[i + 1]);
      // Per-cell wall budget: a fresh deadline for the augmentation phase
      // (the training phase below gets its own). The token is installed
      // thread-locally so every CheckStop poll inside the augmenter —
      // VAE epochs, DBA iterations, OHIT clusters — sees it.
      core::StopSource cell_stop;
      if (config.cell_budget_seconds > 0.0) {
        cell_stop.SetDeadlineAfterSeconds(config.cell_budget_seconds);
      }
      core::ScopedStopToken scoped(cell_stop.token());
      const core::Status start = core::CheckStop("cell.start");
      if (!start.ok()) {
        cell_status[i + 1] = start;
        cell_done[i + 1] = 1;
        cell_train.push_back(train_part);
        continue;
      }
      core::Rng aug_rng(run_seed ^ (0xabcdull + i));
      core::StatusOr<core::Dataset> augmented =
          augment::TryBalanceWithAugmenter(train_part, technique, aug_rng);
      if (augmented.ok() && augmented.value().size() == train_part.size()) {
        // Already balanced (Table III lists three such datasets): the
        // paper still reports distinct augmented accuracies for them, so
        // synthetic data must have been added anyway. We grow every class
        // by 50%, the same augmenter budget a ~1:2 imbalanced dataset
        // receives from balancing.
        augmented =
            augment::TryExpandWithAugmenter(train_part, technique, 0.5,
                                            aug_rng);
      }
      if (augmented.ok()) {
        cell_train.push_back(std::move(augmented).value());
      } else {
        cell_status[i + 1] = augmented.status();
        cell_done[i + 1] = 1;
        cell_train.push_back(train_part);  // placeholder, never trained on
      }
    }

    // Shared ROCKET features (classify/rocket.h): every ROCKET cell of this
    // run trains on train_part with its own rows appended and scores on the
    // same test set, so the base and test rows are transformed once, here,
    // where the transform's row loop has the whole pool. Built only when
    // some cell will be evaluated, and outside every cell fault domain, so
    // per-cell fault counters and poll order are untouched. Each cell
    // still checks that its training set extends train_part bit for bit
    // and falls back to a full transform when it does not.
    std::optional<classify::RocketRunFeatures> shared;
    if (config.model == ModelKind::kRocket &&
        PreflightSplits(train_part, *test_set).ok()) {
      bool any_evaluated = false;
      for (size_t c = 0; c < num_cells; ++c) {
        if (owned[c] != 0 && resumed[c] == nullptr && cell_status[c].ok()) {
          any_evaluated = true;
        }
      }
      if (any_evaluated) {
        TSAUG_TRACE_SCOPE("eval.rocket_shared");
        shared.emplace(config.rocket_kernels, run_seed, train_part,
                       *test_set);
      }
    }

    // Parallel evaluation phase: each grid cell trains and scores an
    // independent classifier into its own slot. Training seeds are fixed
    // per run and fault-point counters are domain-keyed, so scores — and
    // hence the row — are identical at any thread count, with injection
    // on or off. Nested ParallelFor calls inside the classifiers run
    // inline on the worker evaluating that cell. Safe by-reference
    // capture: every worker writes only its own cell's disjoint
    // scores/retries/status slots, `shared` is read-only, and the
    // reduction order below is fixed.
    std::vector<double> scores(num_cells, 0.0);
    std::vector<int> retries(num_cells, 0);
    core::ParallelFor(
        0, static_cast<std::int64_t>(num_cells), 1,
        [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t cell = lo; cell < hi; ++cell) {
            const size_t c = static_cast<size_t>(cell);
            if (owned[c] == 0) continue;          // another shard's cell
            if (resumed[c] != nullptr) continue;  // restored from journal
            if (!cell_status[c].ok()) continue;   // augmentation failed
            // Per-cell wall time, keyed by technique so grid reports break
            // down where the sweep's compute goes. Scoping is observation
            // only: it reads a clock, never the RNG, so cell results stay
            // bitwise identical with tracing on or off.
            core::trace::Scope cell_scope(
                cell == 0 ? std::string("eval.cell.baseline")
                          : "eval.cell." +
                                row.cells[c - 1].technique);
            core::trace::AddCount("eval.cells");
            core::fault::ScopedDomain domain(cell_domain[c]);
            // Fresh deadline for the training phase of this cell. The
            // ScopedStopToken is thread-local and restored on scope exit,
            // so concurrent cells on other workers are unaffected.
            core::StopSource cell_stop;
            if (config.cell_budget_seconds > 0.0) {
              cell_stop.SetDeadlineAfterSeconds(config.cell_budget_seconds);
            }
            core::ScopedStopToken scoped(cell_stop.token());
            const core::Status start = core::CheckStop("cell.start");
            if (!start.ok()) {
              cell_status[c] = start;
              cell_done[c] = 1;
              continue;
            }
            core::StatusOr<ScoreOutcome> outcome =
                TryTrainAndScore(config, cell_train[c], validation, *test_set,
                                 run_seed, shared ? &*shared : nullptr);
            if (outcome.ok()) {
              scores[c] = outcome.value().accuracy;
              retries[c] = outcome.value().retries;
            } else {
              cell_status[c] = outcome.status();
            }
            cell_done[c] = 1;
          }
        });

    // A stop request mid-run (signal, or an injected kCancelled) leaves
    // this run partially evaluated: discard it from the row statistics —
    // resuming re-runs it — but first journal the cells that did finish,
    // so the re-run only recomputes what is actually missing.
    bool run_interrupted = core::GlobalStopRequested();
    for (size_t c = 0; c < num_cells; ++c) {
      if (cell_status[c].code() == core::StatusCode::kCancelled) {
        run_interrupted = true;
      }
    }

    // Journal completed cells in fixed order, outside any fault domain
    // (a "journal.flush:N" spec counts appends globally, not per cell).
    // Cancelled and deadline-exceeded outcomes are never journaled: they
    // depend on wall time or operator action, so a resumed run must
    // re-attempt them.
    if (journal != nullptr && journal->is_open() && !config.resume_only) {
      for (size_t c = 0; c < num_cells; ++c) {
        if (resumed[c] != nullptr || !cell_done[c]) continue;
        const core::StatusCode code = cell_status[c].code();
        if (code == core::StatusCode::kCancelled ||
            code == core::StatusCode::kDeadlineExceeded) {
          continue;
        }
        JournalCell record;
        record.dataset = name;
        record.run = run;
        record.cell = static_cast<int>(c);
        record.name = c == 0 ? std::string("baseline")
                             : row.cells[c - 1].technique;
        record.score = scores[c];
        record.retries = retries[c];
        record.status = cell_status[c];
        const core::Status appended = journal->Append(record);
        if (!appended.ok()) {
          // A journal write failure degrades durability, not correctness:
          // warn and keep computing.
          std::fprintf(stderr, "journal: append failed: %s\n",
                       appended.ToString().c_str());
        }
      }
    }

    if (run_interrupted) {
      row.interrupted = true;
      break;
    }

    // Deterministic reduction in fixed cell order, folding restored cells
    // in at the same positions their recomputation would occupy.
    for (size_t c = 0; c < num_cells; ++c) {
      if (owned[c] == 0) continue;  // another shard's cell, never computed
      if (resumed[c] != nullptr) {
        scores[c] = resumed[c]->score;
        retries[c] = resumed[c]->retries;
        cell_status[c] = resumed[c]->status;
        ++row.resumed_cells;
        core::trace::AddCount("grid.cell_resumed");
      }
      if (!cell_status[c].ok()) core::trace::AddCount("grid.cell_failed");
      if (retries[c] > 0) core::trace::AddCount("grid.cell_retried");
    }
    if (owned[0] != 0) {
      if (cell_status[0].ok()) {
        score_sum[0] += scores[0];
        ++ok_runs[0];
        row.baseline_retries += retries[0];
      } else {
        ++row.baseline_failed_runs;
        row.baseline_error = cell_status[0];
      }
      if (resumed[0] != nullptr) ++row.baseline_resumed_runs;
    }
    for (size_t i = 0; i < techniques.size(); ++i) {
      if (owned[i + 1] == 0) continue;  // another shard's cell
      if (cell_status[i + 1].ok()) {
        score_sum[i + 1] += scores[i + 1];
        ++ok_runs[i + 1];
        row.cells[i].recovered_retries += retries[i + 1];
      } else {
        ++row.cells[i].failed_runs;
        row.cells[i].last_error = cell_status[i + 1];
      }
      if (resumed[i + 1] != nullptr) ++row.cells[i].resumed_runs;
    }
  }

  row.baseline_accuracy =
      ok_runs[0] > 0 ? score_sum[0] / ok_runs[0]
                     : std::numeric_limits<double>::quiet_NaN();
  for (size_t i = 0; i < techniques.size(); ++i) {
    row.cells[i].accuracy =
        ok_runs[i + 1] > 0 ? score_sum[i + 1] / ok_runs[i + 1]
                           : std::numeric_limits<double>::quiet_NaN();
  }
  return row;
}

}  // namespace

core::StatusOr<DatasetRow> TryRunDatasetGrid(
    const std::string& name, const data::TrainTest& data,
    const std::vector<std::shared_ptr<augment::Augmenter>>& techniques,
    const ExperimentConfig& config, Journal* journal) {
  Journal local;
  if (journal == nullptr && !config.journal_path.empty()) {
    TSAUG_RETURN_IF_ERROR(local.Open(config.journal_path,
                                     ConfigFingerprint(config, techniques)));
    journal = &local;
  }
  return RunGridAgainstJournal(name, data, techniques, config, journal);
}

}  // namespace tsaug::eval
