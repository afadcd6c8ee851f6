// Grid workloads: reduced Table IV (ROCKET) and Table V (InceptionTime)
// grids and a TimeGAN-only grid, run through eval::TryRunDatasetGrid.
//
// Untraced run: set up the inputs several times (TimeSetUp), then repeat
// whole grid passes until the time budget is spent.
// Every pass must produce the same canonical report; at a seed with a
// golden entry it must match that digest; and one dataset's row is
// recomputed through the modules' public calls and must match bit for
// bit.
//
// Traced run: alternate an untraced pass with a decomposed pass that
// mirrors the grid's structure with public calls and records a span
// around each of them; per-layer metrics come from those spans.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "augment/augmenter.h"
#include "bench.h"
#include "classify/classifier.h"
#include "classify/inception_time.h"
#include "classify/rocket.h"
#include "core/parallel.h"
#include "core/trace.h"
#include "core/validate.h"
#include "data/uea_catalog.h"
#include "eval/experiment.h"
#include "eval/report.h"
#include "eval/shard.h"
#include "linalg/ridge.h"

namespace tsaug::perfbench {
namespace {

struct GridSpec {
  const char* name;
  eval::ModelKind model;
  data::ScalePreset scale;
  int runs;
  int rocket_kernels;
  int inception_epochs;
  int timegan_iterations;
  std::vector<std::string> datasets;  // empty = all 13 of Table III
  std::vector<std::string> techniques;
};

const std::vector<GridSpec>& GridSpecs() {
  static const std::vector<GridSpec> specs = {
      // Table IV protocol: ROCKET transform and ridge LOOCV own the time.
      {"table4_rocket", eval::ModelKind::kRocket, data::ScalePreset::kTiny,
       1, 1000, 40, 60, {}, {"noise_1.0", "noise_3.0", "noise_5.0", "smote"}},
      // Table V protocol: the nn trainer owns the time; ROCKET never runs.
      {"table5_inception", eval::ModelKind::kInceptionTime,
       data::ScalePreset::kTiny, 1, 500, 12, 60, {},
       {"noise_1.0", "noise_3.0", "noise_5.0", "smote"}},
      // TimeGAN trains once per class in the serial augmentation phase.
      {"timegan_augment", eval::ModelKind::kRocket, data::ScalePreset::kTiny,
       1, 500, 40, 6,
       {"CharacterTrajectories", "LSST", "SpokenArabicDigits", "Epilepsy",
        "Heartbeat"},
       {"timegan"}},
  };
  return specs;
}

const GridSpec* FindSpec(const std::string& name) {
  for (const GridSpec& spec : GridSpecs()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

/// Everything a grid pass reads: built by SetUp, never mutated by a pass
/// except for the augmenters' per-class caches, which every cell
/// invalidates before use.
struct GridInputs {
  eval::ExperimentConfig config;
  std::vector<std::shared_ptr<augment::Augmenter>> techniques;
  std::vector<std::string> names;
  std::vector<data::TrainTest> data;
  /// Seconds spent generating each dataset.
  std::vector<double> generate_seconds;

  std::int64_t CellsPerDataset() const {
    return static_cast<std::int64_t>(config.runs) *
           static_cast<std::int64_t>(techniques.size() + 1);
  }
};

GridInputs SetUp(const GridSpec& spec, const Options& options) {
  GridInputs in;
  eval::BenchSettings settings;
  settings.scale = spec.scale;
  settings.runs = spec.runs;
  settings.rocket_kernels = spec.rocket_kernels;
  settings.inception_epochs = spec.inception_epochs;
  settings.timegan_iterations = spec.timegan_iterations;
  settings.techniques = spec.techniques;
  settings.seed = options.seed;
  in.names = spec.datasets;
  if (in.names.empty()) {
    for (const data::UeaDatasetInfo& info : data::UeaImbalancedCatalog()) {
      in.names.push_back(info.name);
    }
  }
  if (options.smoke) {
    // Smallest sizes that still run every stage of the workload.
    settings.scale = data::ScalePreset::kTiny;
    settings.rocket_kernels = 50;
    settings.inception_epochs = 2;
    settings.timegan_iterations = 2;
    in.names.resize(2);
  }
  in.config = eval::MakeExperimentConfig(settings, spec.model);
  in.techniques = eval::MakePaperTechniques(settings);
  for (const std::string& name : in.names) {
    const double start = NowSeconds();
    in.data.push_back(
        data::MakeUeaLikeDataset(name, settings.scale, options.seed));
    in.generate_seconds.push_back(NowSeconds() - start);
  }
  return in;
}

/// One complete grid over every dataset of the workload.
struct Pass {
  double seconds = 0.0;
  std::vector<double> row_seconds;
  eval::StudyResult study;
  std::int64_t cells = 0;
  std::int64_t failed = 0;
};

std::int64_t FailedRuns(const eval::DatasetRow& row) {
  std::int64_t failed = row.baseline_failed_runs;
  for (const eval::CellResult& cell : row.cells) failed += cell.failed_runs;
  return failed;
}

Pass RunPass(const GridInputs& in) {
  Pass pass;
  pass.study.model = in.config.model;
  const double start = NowSeconds();
  for (size_t d = 0; d < in.names.size(); ++d) {
    const double row_start = NowSeconds();
    core::StatusOr<eval::DatasetRow> row = eval::TryRunDatasetGrid(
        in.names[d], in.data[d], in.techniques, in.config);
    pass.row_seconds.push_back(NowSeconds() - row_start);
    pass.cells += in.CellsPerDataset();
    if (!row.ok()) {
      std::fprintf(stderr, "tsaug_bench: %s: %s\n", in.names[d].c_str(),
                   row.status().ToString().c_str());
      pass.failed += in.CellsPerDataset();
      continue;
    }
    pass.failed += FailedRuns(*row);
    pass.study.rows.push_back(std::move(row).value());
  }
  pass.seconds = NowSeconds() - start;
  return pass;
}

/// Digest of eval::WriteCanonicalReport's bytes for `study`.
std::string ReportDigest(const eval::StudyResult& study,
                         const Options& options) {
  const std::string path =
      options.work_dir + "/" + options.workload + ".report";
  const core::Status written = eval::WriteCanonicalReport(study, path);
  if (!written.ok()) return "unwritable:" + written.ToString();
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  return Digest(bytes);
}

/// Spans and counts of decomposed grid rows.
struct Decomposition {
  SpanLog serial;              // dataset, preflight and augmentation spans
  std::vector<SpanLog> cells;  // one log per evaluated cell
  std::int64_t transformed_rows = 0;
  std::int64_t synthetic_series = 0;
  std::int64_t ridge_retries = 0;
  std::int64_t epochs = 0;
  std::int64_t divergence_retries = 0;
  std::vector<double> epoch_seconds;
  std::vector<double> dataset_seconds;
};

struct CellOutcome {
  core::Status status;
  double accuracy = 0.0;
  std::int64_t rows = 0;
  int ridge_retries = 0;
  std::vector<nn::TrainResult> train_results;
};

/// One ROCKET cell through the public calls classify::RocketClassifier
/// and eval::TryTrainAndScore make, in their order, with a span each.
CellOutcome RocketCell(const eval::ExperimentConfig& config,
                       const core::Dataset& train, const core::Dataset& test,
                       std::uint64_t run_seed, SpanLog& log, int parent,
                       const std::string& owner) {
  CellOutcome out;
  const int length = train.max_length();
  nn::Tensor x;
  {
    ScopedSpan span(log, "classify.to_tensor", owner, parent);
    x = classify::DatasetToTensor(train, length, /*z_normalize=*/true);
  }
  classify::RocketTransform transform(config.rocket_kernels, run_seed);
  linalg::Matrix features;
  {
    ScopedSpan span(log, "classify.rocket.transform", owner, parent);
    transform.Fit(train.num_channels(), length);
    features = transform.Transform(x);
  }
  linalg::RidgeClassifierCV ridge;
  {
    ScopedSpan span(log, "linalg.ridge.fit", owner, parent);
    out.status = ridge.TryFit(features, train.labels(), train.num_classes());
  }
  if (!out.status.ok()) return out;
  nn::Tensor x_test;
  {
    ScopedSpan span(log, "classify.to_tensor", owner, parent);
    x_test = classify::DatasetToTensor(test, length, /*z_normalize=*/true);
  }
  linalg::Matrix test_features;
  {
    ScopedSpan span(log, "classify.rocket.transform", owner, parent);
    test_features = transform.Transform(x_test);
  }
  std::vector<int> predicted;
  {
    ScopedSpan span(log, "linalg.ridge.predict", owner, parent);
    predicted = ridge.Predict(test_features);
  }
  out.accuracy = classify::Accuracy(predicted, test.labels());
  out.rows = x.dim(0) + x_test.dim(0);
  out.ridge_retries =
      ridge.solve_retries() + (ridge.loocv_fell_back() ? 1 : 0);
  return out;
}

CellOutcome InceptionCell(const eval::ExperimentConfig& config,
                          const core::Dataset& train,
                          const core::Dataset& validation,
                          const core::Dataset& test, std::uint64_t run_seed,
                          SpanLog& log, int parent, const std::string& owner) {
  CellOutcome out;
  classify::InceptionTimeClassifier model(config.inception, run_seed);
  {
    ScopedSpan span(log, "classify.inception.fit", owner, parent);
    out.status = model.TryFitWithValidation(train, validation);
  }
  if (!out.status.ok()) return out;
  {
    ScopedSpan span(log, "classify.inception.predict", owner, parent);
    out.accuracy = model.Score(test);
  }
  out.train_results = model.train_results();
  return out;
}

/// Recomputes dataset `d`'s grid row the way eval::TryRunDatasetGrid
/// does — preflight, then per run a serial augmentation phase and a
/// parallel evaluation phase — but through the modules' public calls, with
/// a span around each. Healthy datasets only: the workloads' datasets
/// never take the grid's failure paths, and a failure here is reported.
core::StatusOr<eval::DatasetRow> DecomposedRow(const GridInputs& in,
                                               size_t d, Decomposition& out) {
  const std::string& name = in.names[d];
  const eval::ExperimentConfig& config = in.config;
  SpanLog& serial = out.serial;
  const double row_start = NowSeconds();
  ScopedSpan row_span(serial, "eval.dataset", name);

  std::uint64_t repair_seed = config.seed;
  for (char ch : name) {
    repair_seed =
        repair_seed * 1099511628211ull + static_cast<unsigned char>(ch);
  }
  core::ValidateOptions preflight_options;
  preflight_options.min_length = 2;
  core::StatusOr<core::RepairOutcome> preflight = [&] {
    ScopedSpan span(serial, "core.validate", name, row_span.id());
    return core::TryRepairTrainTest(in.data[d].train, in.data[d].test,
                                    preflight_options, repair_seed);
  }();
  if (!preflight.ok()) return preflight.status();
  const core::Dataset& train_set =
      preflight->repaired ? preflight->train : in.data[d].train;
  const core::Dataset& test_set =
      preflight->repaired ? preflight->test : in.data[d].test;

  const size_t num_cells = in.techniques.size() + 1;
  std::vector<double> score_sum(num_cells, 0.0);
  std::vector<int> ok_runs(num_cells, 0);
  eval::DatasetRow row;
  row.dataset = name;
  for (const auto& technique : in.techniques) {
    row.cells.emplace_back(technique->name(), 0.0);
  }

  for (int run = 0; run < config.runs; ++run) {
    const std::uint64_t run_seed =
        config.seed + 7919ull * static_cast<unsigned long long>(run + 1);
    core::Rng rng(run_seed);
    const std::string prefix = name + "/" + std::to_string(run) + "/";
    core::Dataset train_part = train_set;
    core::Dataset validation;
    if (config.model == eval::ModelKind::kInceptionTime) {
      ScopedSpan span(serial, "core.dataset.split", prefix, row_span.id());
      auto split = train_set.StratifiedSplit(
          1.0 - config.inception.validation_fraction, rng);
      train_part = std::move(split.first);
      validation = std::move(split.second);
    }

    std::vector<core::Dataset> cell_train;
    std::vector<core::Status> cell_status(num_cells);
    cell_train.push_back(train_part);
    {
      ScopedSpan phase(serial, "eval.augment_phase", prefix, row_span.id());
      for (size_t i = 0; i < in.techniques.size(); ++i) {
        augment::Augmenter& technique = *in.techniques[i];
        const std::string owner = prefix + std::to_string(i + 1);
        ScopedSpan span(serial, "augment." + technique.name(), owner,
                        phase.id());
        technique.Invalidate();
        core::Rng aug_rng(run_seed ^ (0xabcdull + i));
        core::StatusOr<core::Dataset> augmented =
            augment::TryBalanceWithAugmenter(train_part, technique, aug_rng);
        if (augmented.ok() && augmented->size() == train_part.size()) {
          augmented = augment::TryExpandWithAugmenter(train_part, technique,
                                                      0.5, aug_rng);
        }
        if (augmented.ok()) {
          out.synthetic_series += augmented->size() - train_part.size();
          cell_train.push_back(std::move(augmented).value());
        } else {
          cell_status[i + 1] = augmented.status();
          cell_train.push_back(train_part);
        }
      }
    }

    std::vector<SpanLog> cell_logs(num_cells);
    std::vector<CellOutcome> outcomes(num_cells);
    {
      ScopedSpan phase(serial, "eval.eval_phase", prefix, row_span.id());
      // Safe by-reference capture: cell c writes only cell_logs[c] and
      // outcomes[c]; everything else is read-only during the loop.
      core::ParallelFor(
          0, static_cast<std::int64_t>(num_cells), 1,
          [&](std::int64_t lo, std::int64_t hi) {
            for (std::int64_t cell = lo; cell < hi; ++cell) {
              const size_t c = static_cast<size_t>(cell);
              if (!cell_status[c].ok()) continue;
              const std::string owner = prefix + std::to_string(c);
              SpanLog& log = cell_logs[c];
              ScopedSpan cell_span(log, "eval.cell", owner);
              outcomes[c] =
                  config.model == eval::ModelKind::kRocket
                      ? RocketCell(config, cell_train[c], test_set, run_seed,
                                   log, cell_span.id(), owner)
                      : InceptionCell(config, cell_train[c], validation,
                                      test_set, run_seed, log,
                                      cell_span.id(), owner);
            }
          });
    }

    for (size_t c = 0; c < num_cells; ++c) {
      const CellOutcome& outcome = outcomes[c];
      const core::Status status =
          cell_status[c].ok() ? outcome.status : cell_status[c];
      if (status.ok()) {
        score_sum[c] += outcome.accuracy;
        ++ok_runs[c];
      } else if (c == 0) {
        ++row.baseline_failed_runs;
        row.baseline_error = status;
      } else {
        ++row.cells[c - 1].failed_runs;
        row.cells[c - 1].last_error = status;
      }
      out.transformed_rows += outcome.rows;
      out.ridge_retries += outcome.ridge_retries;
      for (const nn::TrainResult& result : outcome.train_results) {
        out.epochs += result.epochs_run;
        out.divergence_retries += result.divergence_retries;
        out.epoch_seconds.insert(out.epoch_seconds.end(),
                                 result.epoch_seconds.begin(),
                                 result.epoch_seconds.end());
      }
      out.cells.push_back(std::move(cell_logs[c]));
    }
  }

  const double nan = std::nan("");
  row.baseline_accuracy = ok_runs[0] > 0 ? score_sum[0] / ok_runs[0] : nan;
  for (size_t i = 0; i + 1 < num_cells; ++i) {
    row.cells[i].accuracy =
        ok_runs[i + 1] > 0 ? score_sum[i + 1] / ok_runs[i + 1] : nan;
  }
  out.dataset_seconds.push_back(NowSeconds() - row_start);
  return row;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Cells of `decomposed` whose accuracy or failure count differs from
/// the grid's row (accuracies compared bit for bit).
std::int64_t Mismatches(const eval::DatasetRow& grid,
                        const eval::DatasetRow& decomposed) {
  std::int64_t mismatches =
      !SameBits(grid.baseline_accuracy, decomposed.baseline_accuracy) ||
      grid.baseline_failed_runs != decomposed.baseline_failed_runs;
  for (size_t i = 0; i < grid.cells.size(); ++i) {
    mismatches += !SameBits(grid.cells[i].accuracy,
                            decomposed.cells[i].accuracy) ||
                  grid.cells[i].failed_runs != decomposed.cells[i].failed_runs;
  }
  return mismatches;
}

/// Decomposes dataset `d`, compares it with the grid's row and counts
/// its cells as attempted. Returns the row cells that differ — all of
/// them when the decomposition itself fails.
std::int64_t CompareDecomposedRow(const GridInputs& in, size_t d,
                                  const eval::DatasetRow& grid,
                                  Decomposition& out, RunRecord& record) {
  record.Attempt(in.CellsPerDataset(), 0);
  core::StatusOr<eval::DatasetRow> row = DecomposedRow(in, d, out);
  if (!row.ok()) {
    std::fprintf(stderr, "tsaug_bench: decomposing %s: %s\n",
                 in.names[d].c_str(), row.status().ToString().c_str());
    return static_cast<std::int64_t>(grid.cells.size() + 1);
  }
  return Mismatches(grid, *row);
}

void CheckDecomposition(const GridInputs& in, std::int64_t mismatches,
                        const std::string& what, RunRecord& record) {
  record.Check("decomposed_cells", mismatches == 0,
               what + ": " + std::to_string(mismatches) +
                   " cells differ from the grid",
               mismatches * in.config.runs);
}

void RunUntraced(const GridSpec& spec, const Options& options) {
  RunRecord record;
  GridInputs in;
  const double setup_s = TimeSetUp(options.smoke ? 1 : 6, [&] {
    const double start = NowSeconds();
    GridInputs next = SetUp(spec, options);
    const double seconds = NowSeconds() - start;
    in = std::move(next);
    return seconds;
  });

  // Successive passes drive the grid from successive CPUs: the serial
  // augmentation phase runs on the driving thread alone.
  std::vector<Pass> passes;
  const double start = NowSeconds();
  do {
    const CpuPin pin(static_cast<int>(passes.size()));
    passes.push_back(RunPass(in));
  } while (NowSeconds() - start + passes.back().seconds <= options.seconds);

  // Each dataset row is timed once per pass and its time is the best of
  // the run's passes. Other tenants of a shared host slow one CPU at a
  // time for tens of seconds, and a pass that lands a cell there waits
  // for it; such slowdowns only ever add time, so the best pass of each
  // row is what the program itself costs (README.md, "Why the grids
  // report best times").
  std::vector<double> best_row_ms(in.names.size(), 0.0);
  std::int64_t nondeterministic = 0;
  const std::string digest = ReportDigest(passes.front().study, options);
  for (const Pass& pass : passes) {
    record.Attempt(pass.cells, pass.failed);
    for (size_t d = 0; d < best_row_ms.size(); ++d) {
      const double ms = pass.row_seconds[d] * 1e3;
      if (&pass == &passes.front() || ms < best_row_ms[d]) best_row_ms[d] = ms;
    }
    if (&pass != &passes.front() &&
        ReportDigest(pass.study, options) != digest) {
      nondeterministic += pass.cells;
    }
  }
  double best_pass_ms = 0.0;
  for (double ms : best_row_ms) best_pass_ms += ms;
  record.Metric("throughput_per_s",
                static_cast<double>(passes.front().cells) /
                    (best_pass_ms * 1e-3),
                "1/s");
  record.Metric("latency_ms_p50", Quantile(best_row_ms, 0.5), "ms");
  record.Metric("latency_ms_p90", Quantile(best_row_ms, 0.9), "ms");
  record.Metric("setup_s", setup_s, "s");

  record.Check("passes_identical", nondeterministic == 0,
               std::to_string(passes.size()) + " passes", nondeterministic);
  record.GoldenCheck(options, digest, passes.front().cells);
  const Pass& last = passes.back();
  if (last.study.rows.size() == in.names.size()) {
    // One dataset per run, chosen by the seed, recomputed through the
    // modules' public calls.
    const size_t d = options.seed % in.names.size();
    Decomposition spans;
    CheckDecomposition(
        in, CompareDecomposedRow(in, d, last.study.rows[d], spans, record),
        in.names[d], record);
  }
  record.Metric("peak_rss_mb", PeakRssMb(), "MB");
  record.PrintResult();
}

void RunTraced(const GridSpec& spec, const Options& options) {
  RunRecord record;
  const GridInputs in = SetUp(spec, options);
  double generate_seconds = 0.0;
  for (double s : in.generate_seconds) generate_seconds += s;

  std::vector<double> untraced_seconds;
  std::vector<double> traced_seconds;
  Decomposition total;
  std::int64_t mismatches = 0;
  std::int64_t pool_regions = 0;
  std::int64_t inline_regions = 0;
  const double start = NowSeconds();
  do {
    const Pass pass = RunPass(in);
    record.Attempt(pass.cells, pass.failed);
    untraced_seconds.push_back(pass.seconds);

    if (pass.study.rows.size() != in.names.size()) break;  // counted failed

    core::trace::Reset();
    core::trace::Enable();
    const double traced_start = NowSeconds();
    for (size_t d = 0; d < in.names.size(); ++d) {
      mismatches +=
          CompareDecomposedRow(in, d, pass.study.rows[d], total, record);
    }
    traced_seconds.push_back(NowSeconds() - traced_start);
    core::trace::Disable();
    pool_regions += core::trace::CounterValue("parallel.pool_regions");
    inline_regions += core::trace::CounterValue("parallel.inline_regions");
  } while (NowSeconds() - start + untraced_seconds.back() +
               traced_seconds.back() <=
           options.seconds);
  CheckDecomposition(in, mismatches, "every dataset", record);

  const double passes =
      static_cast<double>(std::max<size_t>(1, traced_seconds.size()));
  std::vector<SpanLog> logs = std::move(total.cells);
  logs.push_back(std::move(total.serial));
  auto per_pass = [&](const std::string& name) {
    return SumSeconds(logs, name) / passes;
  };
  const double cell_s = SumSeconds(logs, "eval.cell");
  double attributed_s = 0.0;
  for (const SpanLog& log : logs) {
    for (const Span& span : log.spans()) {
      if (span.parent >= 0 && log.spans()[static_cast<size_t>(span.parent)]
                                      .name == "eval.cell") {
        attributed_s += span.seconds();
      }
    }
  }
  const double eval_phase_s = SumSeconds(logs, "eval.eval_phase");
  const double transform_s = SumSeconds(logs, "classify.rocket.transform");
  double augment_s = 0.0;
  for (const auto& technique : in.techniques) {
    const std::string name = "augment." + technique->name();
    augment_s += SumSeconds(logs, name);
    record.Metric(name + "_s", per_pass(name), "s");
  }
  record.Metric("augment.series_per_s",
                augment_s > 0.0
                    ? static_cast<double>(total.synthetic_series) / augment_s
                    : 0.0,
                "series/s");

  record.Metric("core.parallel.utilization",
                eval_phase_s > 0.0
                    ? cell_s / (eval_phase_s * options.threads)
                    : 0.0,
                "ratio");
  record.Metric("core.parallel.pool_regions",
                static_cast<double>(pool_regions) / passes, "count");
  record.Metric("core.parallel.inline_regions",
                static_cast<double>(inline_regions) / passes, "count");
  record.Metric("core.validate_s", per_pass("core.validate"), "s");
  record.Metric("data.generate_s", generate_seconds, "s");

  record.Metric("eval.augment_phase_s", per_pass("eval.augment_phase"), "s");
  record.Metric("eval.eval_phase_s", eval_phase_s / passes, "s");
  record.Metric("eval.dataset_s_p50", Quantile(total.dataset_seconds, 0.5),
                "s");
  record.Metric("eval.dataset_s_max", Quantile(total.dataset_seconds, 1.0),
                "s");
  record.Metric("eval.cell_attributed_share",
                cell_s > 0.0 ? attributed_s / cell_s : 0.0, "ratio");
  record.Metric("eval.tracing_overhead",
                Quantile(traced_seconds, 0.5) /
                        Quantile(untraced_seconds, 0.5) -
                    1.0,
                "ratio");

  record.Metric("classify.to_tensor_s", per_pass("classify.to_tensor"), "s");
  record.Metric("classify.rocket.transform_s", transform_s / passes, "s");
  record.Metric("classify.rocket.rows_per_s",
                transform_s > 0.0
                    ? static_cast<double>(total.transformed_rows) / transform_s
                    : 0.0,
                "rows/s");
  record.Metric("classify.inception.fit_s",
                per_pass("classify.inception.fit"), "s");
  record.Metric("classify.inception.predict_s",
                per_pass("classify.inception.predict"), "s");
  record.Metric("linalg.ridge.fit_s", per_pass("linalg.ridge.fit"), "s");
  record.Metric("linalg.ridge.predict_s", per_pass("linalg.ridge.predict"),
                "s");
  record.Metric("linalg.ridge.retries",
                static_cast<double>(total.ridge_retries) / passes, "count");
  record.Metric("nn.trainer.epochs",
                static_cast<double>(total.epochs) / passes, "count");
  record.Metric("nn.trainer.epoch_s_p50", Quantile(total.epoch_seconds, 0.5),
                "s");
  record.Metric("nn.trainer.divergence_retries",
                static_cast<double>(total.divergence_retries) / passes,
                "count");
  WriteSpans(options.work_dir + "/" + options.workload + ".spans.tsv",
              logs);
  record.PrintResult();
}

}  // namespace

bool IsGridWorkload(const std::string& name) {
  return FindSpec(name) != nullptr;
}

void RunGridWorkload(const Options& options) {
  const GridSpec& spec = *FindSpec(options.workload);
  if (options.traced) {
    RunTraced(spec, options);
  } else {
    RunUntraced(spec, options);
  }
}

}  // namespace tsaug::perfbench
