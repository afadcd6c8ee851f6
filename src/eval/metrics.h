#ifndef TSAUG_EVAL_METRICS_H_
#define TSAUG_EVAL_METRICS_H_

#include <vector>

namespace tsaug::eval {

/// Pearson correlation coefficient of two equal-length samples; returns 0
/// when either sample is constant. Used by the gain-vs-properties
/// analysis (the paper's Sec. IV-C goal of "capturing correlations
/// between G and the dataset properties").
double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b);

/// Spearman rank correlation (Pearson on ranks; ties get average ranks) —
/// more robust for the heavy-tailed property columns (d_train_test spans
/// five orders of magnitude in Table III).
double SpearmanCorrelation(const std::vector<double>& a,
                           const std::vector<double>& b);

}  // namespace tsaug::eval

#endif  // TSAUG_EVAL_METRICS_H_
