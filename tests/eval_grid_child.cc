// Helper binary for eval_journal_resume_test (not a gtest): runs one
// fixed toy grid in a child process so the test can kill it mid-grid
// (TSAUG_FAULTS=journal.flush:N!) and resume against the same journal.
//
// Environment contract:
//   TSAUG_CHILD_OUT      (required) path for the canonical result dump
//   TSAUG_CHILD_JOURNAL  journal path; empty/unset runs without a journal
//   TSAUG_CHILD_BUDGET   optional per-cell budget in seconds
//
// The dump prints every cell's accuracy as its IEEE-754 bit pattern, so
// "resumed run == straight run" can be checked as byte equality of two
// small text files. Resume bookkeeping (resumed_runs/resumed_cells) is
// deliberately excluded: it differs between the two runs by design.
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "augment/augmenter.h"
#include "augment/noise.h"
#include "augment/oversample.h"
#include "core/flags.h"
#include "core/status.h"
#include "data/synthetic.h"
#include "eval/experiment.h"

namespace {

std::string EnvOr(const char* name, const std::string& fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::string(value) : fallback;
}

std::uint64_t Bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

void DumpCell(std::ostream& out, const std::string& name, double accuracy,
              int failed_runs, int retries,
              const tsaug::core::Status& error) {
  out << name << " bits=" << Bits(accuracy) << " failed=" << failed_runs
      << " retries=" << retries << " err=" << error.ToString() << "\n";
}

}  // namespace

int main() {
  using tsaug::augment::Augmenter;
  using tsaug::eval::CellResult;
  using tsaug::eval::DatasetRow;

  const std::string out_path = EnvOr("TSAUG_CHILD_OUT", "");
  if (out_path.empty()) {
    std::cerr << "eval_grid_child: TSAUG_CHILD_OUT is required\n";
    return 2;
  }

  // The same toy problem as eval_fault_tolerance_test: small enough to run
  // a 3-run grid in well under a second, non-trivial enough that every
  // cell's accuracy depends on the run seed.
  tsaug::data::SyntheticSpec spec;
  spec.num_classes = 2;
  spec.train_counts = {14, 6};
  spec.test_counts = {6, 6};
  spec.num_channels = 2;
  spec.length = 24;
  spec.class_separation = 1.4;
  spec.seed = 2;
  const tsaug::data::TrainTest data = tsaug::data::MakeSynthetic(spec);

  tsaug::eval::ExperimentConfig config;
  config.model = tsaug::eval::ModelKind::kRocket;
  config.runs = 3;
  config.rocket_kernels = 80;
  config.seed = 5;
  config.journal_path = EnvOr("TSAUG_CHILD_JOURNAL", "");
  const std::string budget = EnvOr("TSAUG_CHILD_BUDGET", "0");
  if (!tsaug::core::ParseDouble(budget.c_str(), 0.0, 1e9,
                                &config.cell_budget_seconds)) {
    std::cerr << "eval_grid_child: bad TSAUG_CHILD_BUDGET '" << budget
              << "'\n";
    return 2;
  }

  const std::vector<std::shared_ptr<Augmenter>> techniques = {
      std::make_shared<tsaug::augment::NoiseInjection>(1.0),
      std::make_shared<tsaug::augment::Smote>()};

  const tsaug::core::StatusOr<DatasetRow> row =
      tsaug::eval::TryRunDatasetGrid("toy", data, techniques, config);
  if (!row.ok()) {
    std::cerr << "eval_grid_child: " << row.status().ToString() << "\n";
    return 3;
  }

  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  DumpCell(out, "baseline", row->baseline_accuracy, row->baseline_failed_runs,
           row->baseline_retries, row->baseline_error);
  for (const CellResult& cell : row->cells) {
    DumpCell(out, cell.technique, cell.accuracy, cell.failed_runs,
             cell.recovered_retries, cell.last_error);
  }
  out << "interrupted=" << (row->interrupted ? 1 : 0) << "\n";
  return out.good() ? 0 : 2;
}
