// The paper's stated analysis goal (Sec. IV-C): "we compare the
// performance ... trying to capture some correlations between G and the
// aforementioned properties". This bench runs the ROCKET grid, computes
// each dataset's best relative gain G_r, and correlates it against every
// Table III property (Pearson and rank/Spearman).
//
// Paper finding to compare against: no strong single predictor — the gain
// is not explained by any one property ("no one-size-fits-all").
#include <cstdio>
#include <vector>

#include "bench_settings.h"
#include "core/stats.h"
#include "eval/metrics.h"

int main() {
  const tsaug::eval::BenchSettings settings =
      tsaug::bench::ReadSettingsOrExit();
  const tsaug::core::StatusOr<tsaug::eval::StudyResult> result =
      tsaug::eval::RunStudy(settings, tsaug::eval::ModelKind::kRocket);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  const tsaug::eval::StudyResult& study = *result;

  // Properties of the same generated datasets.
  std::vector<double> gains;
  std::vector<tsaug::core::DatasetProperties> properties;
  for (const tsaug::eval::DatasetRow& row : study.rows) {
    gains.push_back(row.ImprovementPercent());
    const tsaug::data::TrainTest data = tsaug::data::MakeUeaLikeDataset(
        row.dataset, settings.scale, settings.seed);
    properties.push_back(
        tsaug::core::ComputeProperties(row.dataset, data.train, data.test));
  }

  struct Column {
    const char* name;
    std::vector<double> values;
  };
  std::vector<Column> columns = {
      {"n_classes", {}},   {"train_size", {}}, {"dim", {}},
      {"length", {}},      {"var_train", {}},  {"im_ratio", {}},
      {"d_train_test", {}}, {"prop_miss", {}},  {"baseline_acc", {}},
  };
  for (size_t i = 0; i < properties.size(); ++i) {
    const tsaug::core::DatasetProperties& p = properties[i];
    columns[0].values.push_back(p.n_classes);
    columns[1].values.push_back(p.train_size);
    columns[2].values.push_back(p.dim);
    columns[3].values.push_back(p.length);
    columns[4].values.push_back(p.var_train);
    columns[5].values.push_back(p.im_ratio);
    columns[6].values.push_back(p.d_train_test);
    columns[7].values.push_back(p.prop_miss);
    columns[8].values.push_back(study.rows[i].baseline_accuracy);
  }

  std::printf("\nANALYSIS: correlation of best relative gain G_r with "
              "dataset properties (ROCKET, %zu datasets)\n",
              gains.size());
  std::printf("%-14s %10s %10s\n", "property", "Pearson", "Spearman");
  for (const Column& column : columns) {
    std::printf("%-14s %10.3f %10.3f\n", column.name,
                tsaug::eval::PearsonCorrelation(column.values, gains),
                tsaug::eval::SpearmanCorrelation(column.values, gains));
  }
  std::printf("\nPaper conclusion: no property strongly predicts the gain "
              "(technique effectiveness varies per dataset).\n");
  return 0;
}
