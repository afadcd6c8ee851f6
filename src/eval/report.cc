#include "eval/report.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>

#include "augment/pipeline.h"
#include "core/flags.h"
#include "data/uea_catalog.h"
#include "eval/shard.h"

namespace tsaug::eval {
namespace {

std::string FormatDouble(double v, int precision = 2) {
  // Non-finite means "no successful run produced this number" (all-failed
  // cell, improvement over a failed baseline): print n/a, never "nan".
  if (!std::isfinite(v)) return "n/a";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, v);
  return buffer;
}

void PrintRule(const std::vector<size_t>& widths, std::ostream& out) {
  for (size_t w : widths) {
    out << "+";
    for (size_t i = 0; i < w + 2; ++i) out << "-";
  }
  out << "+\n";
}

void PrintRow(const std::vector<std::string>& cells,
              const std::vector<size_t>& widths, std::ostream& out) {
  for (size_t i = 0; i < cells.size(); ++i) {
    out << "| " << cells[i];
    for (size_t p = cells[i].size(); p < widths[i] + 1; ++p) out << " ";
  }
  out << "|\n";
}

void PrintTable(const std::vector<std::vector<std::string>>& rows,
                std::ostream& out) {
  TSAUG_CHECK(!rows.empty());
  std::vector<size_t> widths(rows[0].size(), 0);
  for (const auto& row : rows) {
    TSAUG_CHECK(row.size() == widths.size());
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  PrintRule(widths, out);
  PrintRow(rows[0], widths, out);
  PrintRule(widths, out);
  for (size_t r = 1; r < rows.size(); ++r) PrintRow(rows[r], widths, out);
  PrintRule(widths, out);
}

}  // namespace

void PrintPropertiesTable(const std::vector<core::DatasetProperties>& rows,
                          std::ostream& out) {
  std::vector<std::vector<std::string>> table;
  table.push_back({"Dataset", "n_classes", "Train_size", "Dim", "Length",
                   "Var_train", "Var_test", "Im_ratio", "d_train_test",
                   "prop_miss"});
  for (const core::DatasetProperties& p : rows) {
    table.push_back({p.name, std::to_string(p.n_classes),
                     std::to_string(p.train_size), std::to_string(p.dim),
                     std::to_string(p.length), FormatDouble(p.var_train),
                     FormatDouble(p.var_test), FormatDouble(p.im_ratio),
                     FormatDouble(p.d_train_test), FormatDouble(p.prop_miss)});
  }
  PrintTable(table, out);
}

void PrintAccuracyTable(const StudyResult& result, std::ostream& out) {
  TSAUG_CHECK(!result.rows.empty());
  const std::string model = ModelKindName(result.model);

  std::vector<std::vector<std::string>> table;
  std::vector<std::string> header = {"Dataset", model};
  for (const CellResult& cell : result.rows[0].cells) {
    header.push_back(model + "_" + cell.technique);
  }
  header.push_back("Improvement (%)");
  table.push_back(header);

  // Cells that deviated from a plain run are annotated rather than
  // hidden: "!N" marks N runs that failed after retries were exhausted
  // (failed runs are excluded from the mean; an all-failed cell shows
  // n/a), "~" marks a cell that recovered through internal retries, "^"
  // marks a cell with runs restored from the journal.
  bool any_failed = false;
  auto annotate = [&](double accuracy, int failed_runs, int retried,
                      int resumed) {
    std::string text = FormatDouble(100.0 * accuracy);
    if (resumed > 0) text += "^";
    if (retried > 0) text += "~";
    if (failed_runs > 0) {
      // Two appends, not "!" + to_string(...): GCC 12 -O2 mis-analyses the
      // char*-plus-rvalue-string overload and fires a bogus -Wrestrict,
      // which -Werror turns fatal on the strict CI leg.
      text += "!";
      text += std::to_string(failed_runs);
      any_failed = true;
    }
    return text;
  };

  for (const DatasetRow& row : result.rows) {
    std::vector<std::string> line = {
        row.dataset, annotate(row.baseline_accuracy, row.baseline_failed_runs,
                              row.baseline_retries,
                              row.baseline_resumed_runs)};
    for (const CellResult& cell : row.cells) {
      line.push_back(annotate(cell.accuracy, cell.failed_runs,
                              cell.recovered_retries, cell.resumed_runs));
    }
    line.push_back(FormatDouble(row.ImprovementPercent()));
    table.push_back(line);
  }
  std::vector<std::string> footer = {"Average Improvement", "-"};
  for (size_t i = 0; i < result.rows[0].cells.size(); ++i) footer.push_back("-");
  footer.push_back(FormatDouble(result.AverageImprovement()));
  table.push_back(footer);

  PrintTable(table, out);

  if (result.interrupted) {
    out << "INTERRUPTED: a stop request ended the study early; rows cover "
           "completed runs only.\n";
  }
  if (!result.journal_path.empty()) {
    out << "Journal: " << result.journal_path << " (" << result.resumed_cells
        << " cell(s) resumed)\n";
  }

  // One line per failed cell with its final Status, so a degraded sweep is
  // diagnosable from the report alone.
  if (any_failed) {
    out << "Failed cells (excluded from cell means and aggregates):\n";
    for (const DatasetRow& row : result.rows) {
      if (row.baseline_failed_runs > 0) {
        out << "  " << row.dataset << "/baseline: " << row.baseline_failed_runs
            << " run(s), last error: " << row.baseline_error.ToString()
            << "\n";
      }
      for (const CellResult& cell : row.cells) {
        if (cell.failed_runs > 0) {
          out << "  " << row.dataset << "/" << cell.technique << ": "
              << cell.failed_runs
              << " run(s), last error: " << cell.last_error.ToString() << "\n";
        }
      }
    }
  }
}

void PrintImprovementCounts(const StudyResult& rocket,
                            const StudyResult& inception, std::ostream& out) {
  const auto rocket_counts = rocket.ImprovementCounts();
  const auto inception_counts = inception.ImprovementCounts();
  std::vector<std::vector<std::string>> table;
  table.push_back({"Augmentation Technique", "ROCKET", "InceptionTime"});
  for (const std::string family : {"smote", "timegan", "noise"}) {
    const auto r = rocket_counts.find(family);
    const auto i = inception_counts.find(family);
    table.push_back({family,
                     r != rocket_counts.end() ? std::to_string(r->second) : "-",
                     i != inception_counts.end() ? std::to_string(i->second)
                                                 : "-"});
  }
  PrintTable(table, out);
}

namespace {

/// Reads integer knob `name` into `out` when it is set and non-empty; its
/// whole value must be an int no smaller than `min`.
core::Status EnvInt(const char* name, int min, int* out) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0' ||
      core::ParseInt(value, min, INT_MAX, out)) {
    return core::OkStatus();
  }
  return core::InvalidArgumentError(std::string(name) + "='" + value +
                                    "' is not an integer >= " +
                                    std::to_string(min));
}

/// The comma-separated entries of `name`, empty ones skipped.
std::vector<std::string> EnvList(const char* name) {
  std::vector<std::string> entries;
  if (const char* value = std::getenv(name); value != nullptr) {
    std::stringstream stream(value);
    std::string entry;
    while (std::getline(stream, entry, ',')) {
      if (!entry.empty()) entries.push_back(entry);
    }
  }
  return entries;
}

}  // namespace

core::StatusOr<BenchSettings> ReadBenchSettings() {
  BenchSettings settings;
  const char* scale = std::getenv("TSAUG_SCALE");
  const std::string scale_name = scale != nullptr ? scale : "";
  if (scale_name == "paper") {
    settings.scale = data::ScalePreset::kPaper;
    settings.runs = 5;
    settings.rocket_kernels = 10000;
    settings.inception_epochs = 200;
    settings.timegan_iterations = 2500;
  } else if (scale_name == "small") {
    settings.scale = data::ScalePreset::kSmall;
    settings.rocket_kernels = 1000;
    settings.inception_epochs = 30;
    settings.timegan_iterations = 120;
  } else if (!scale_name.empty() && scale_name != "tiny") {
    return core::InvalidArgumentError("TSAUG_SCALE='" + scale_name +
                                      "' is not tiny, small or paper");
  }
  TSAUG_RETURN_IF_ERROR(EnvInt("TSAUG_RUNS", 1, &settings.runs));
  TSAUG_RETURN_IF_ERROR(EnvInt("TSAUG_KERNELS", 1, &settings.rocket_kernels));
  TSAUG_RETURN_IF_ERROR(
      EnvInt("TSAUG_EPOCHS", 1, &settings.inception_epochs));
  TSAUG_RETURN_IF_ERROR(
      EnvInt("TSAUG_TIMEGAN_ITERS", 1, &settings.timegan_iterations));
  int seed = static_cast<int>(settings.seed);
  TSAUG_RETURN_IF_ERROR(EnvInt("TSAUG_SEED", 0, &seed));
  settings.seed = static_cast<std::uint64_t>(seed);
  if (const char* journal = std::getenv("TSAUG_JOURNAL"); journal != nullptr) {
    settings.journal_path = journal;
  }
  if (const char* budget = std::getenv("TSAUG_CELL_BUDGET");
      budget != nullptr && *budget != '\0' &&
      !core::ParseDouble(budget, 0.0, 1e9, &settings.cell_budget_seconds)) {
    return core::InvalidArgumentError(std::string("TSAUG_CELL_BUDGET='") +
                                      budget + "' is not a number of seconds");
  }
  settings.datasets = EnvList("TSAUG_DATASETS");
  settings.techniques = EnvList("TSAUG_TECHNIQUES");
  std::vector<std::string> paper_techniques;
  for (const auto& technique : augment::PaperTechniques({})) {
    paper_techniques.push_back(technique->name());
  }
  core::Status techniques_ok =
      CheckNames(settings.techniques, paper_techniques, "paper technique");
  if (!techniques_ok.ok()) return techniques_ok.AddContext("TSAUG_TECHNIQUES");
  return settings;
}

core::Status ApplyGridFlags(int argc, char** argv, BenchSettings& settings) {
  BenchSettings parsed = settings;
  TSAUG_RETURN_IF_ERROR(core::ParseFlags(
      argc, argv,
      {core::StringFlag("--journal", &parsed.journal_path),
       core::DoubleFlag("--cell-budget-seconds", 0.0, 1e9,
                        &parsed.cell_budget_seconds)}));
  settings = std::move(parsed);
  return core::OkStatus();
}

ExperimentConfig MakeExperimentConfig(const BenchSettings& settings,
                                      ModelKind model) {
  ExperimentConfig config;
  config.model = model;
  config.runs = settings.runs;
  config.rocket_kernels = settings.rocket_kernels;
  config.seed = settings.seed;
  config.journal_path = settings.journal_path;
  config.cell_budget_seconds = settings.cell_budget_seconds;

  // InceptionTime sized to the scale preset: paper architecture at paper
  // scale, a shrunken-but-faithful variant otherwise.
  if (settings.scale != data::ScalePreset::kPaper) {
    config.inception.num_filters = 4;
    config.inception.depth = 3;
    config.inception.kernel_sizes = {4, 8, 16};
    config.inception.bottleneck_channels = 4;
    config.inception.ensemble_size = 1;
    config.inception.trainer.learning_rate = 2e-3;  // skip the LR finder
    config.inception.trainer.batch_size = 16;
    // Tiny validation sets make accuracy-based early stopping a coin
    // flip; at reduced scale let every run use the full epoch budget (the
    // best-model restore still applies).
    config.inception.trainer.early_stopping_patience =
        settings.inception_epochs;
  }
  config.inception.trainer.max_epochs = settings.inception_epochs;
  return config;
}

std::vector<std::shared_ptr<augment::Augmenter>> MakePaperTechniques(
    const BenchSettings& settings) {
  augment::TimeGanConfig timegan;
  timegan.embedding_iterations = settings.timegan_iterations;
  timegan.supervised_iterations = settings.timegan_iterations;
  timegan.joint_iterations = std::max(1, settings.timegan_iterations * 2 / 5);
  if (settings.scale == data::ScalePreset::kPaper) {
    timegan = augment::PaperScaleTimeGanConfig();
  } else if (settings.scale == data::ScalePreset::kTiny) {
    timegan.hidden_dim = 6;
    timegan.num_layers = 1;
    timegan.max_sequence_length = 16;
  }
  timegan.seed = settings.seed;
  std::vector<std::shared_ptr<augment::Augmenter>> all =
      augment::PaperTechniques(timegan);
  if (settings.techniques.empty()) return all;

  // TSAUG_TECHNIQUES filter, preserving the paper's technique order (the
  // order is part of the config fingerprint, so every process of a
  // sharded run must derive the same list from the same environment).
  std::vector<std::shared_ptr<augment::Augmenter>> selected;
  for (const auto& technique : all) {
    for (const std::string& wanted : settings.techniques) {
      if (technique->name() == wanted) {
        selected.push_back(technique);
        break;
      }
    }
  }
  return selected;
}

core::Status CheckNames(const std::vector<std::string>& names,
                        const std::vector<std::string>& known,
                        const std::string& kind) {
  for (const std::string& name : names) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      return core::InvalidArgumentError("unknown " + kind + " '" + name + "'");
    }
  }
  return core::OkStatus();
}

core::StatusOr<StudyResult> RunStudy(const BenchSettings& settings,
                                     ModelKind model) {
  const ExperimentConfig config = MakeExperimentConfig(settings, model);
  const auto techniques = MakePaperTechniques(settings);

  std::vector<std::string> known;
  for (const data::UeaDatasetInfo& info : data::UeaImbalancedCatalog()) {
    known.push_back(info.name);
  }
  const std::vector<std::string> names =
      settings.datasets.empty() ? known : settings.datasets;
  TSAUG_RETURN_IF_ERROR(CheckNames(names, known, "paper dataset"));
  const std::string model_name = ModelKindName(model);
  const DatasetLoader loader = [&](const std::string& name) {
    std::fprintf(stderr, "[%s] running %s...\n", model_name.c_str(),
                 name.c_str());
    return data::MakeUeaLikeDataset(name, settings.scale, settings.seed);
  };
  return RunShardedStudy(names, loader, techniques, config);
}

}  // namespace tsaug::eval
