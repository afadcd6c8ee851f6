#ifndef TSAUG_AUGMENT_DBA_H_
#define TSAUG_AUGMENT_DBA_H_

#include <string>
#include <vector>

#include "augment/augmenter.h"

namespace tsaug::augment {

/// DTW barycenter averaging (Petitjean et al., the paper's ref [78]):
/// the Frechet-mean-like average of a set of series under DTW alignment.
/// `weights` gives each member's contribution; the barycenter keeps
/// `initial`'s length and is refined for `iterations` rounds. Returns
/// kDegenerateInput when the weighted alignment paths leave a barycenter
/// position with no mass (all-zero effective weights on that position).
[[nodiscard]] core::StatusOr<core::TimeSeries> TryDtwBarycenterAverage(
    const std::vector<core::TimeSeries>& members,
    const std::vector<double>& weights, const core::TimeSeries& initial,
    int iterations = 5, int window = -1);

/// Weighted-DBA augmentation (Forestier et al.): a synthetic series is the
/// DBA barycenter of the class with random weights concentrated on one
/// random reference member — a smooth, alignment-aware interpolation that
/// respects temporal structure where flat SMOTE averaging would smear it.
class DbaAugmenter : public Augmenter {
 public:
  /// `reference_weight`: weight mass on the reference member (the rest is
  /// spread over up to `max_neighbors` random same-class members).
  explicit DbaAugmenter(double reference_weight = 0.5, int max_neighbors = 5,
                        int iterations = 3, int window = -1);
  std::string name() const override { return "dba"; }
  TaxonomyBranch branch() const override { return TaxonomyBranch::kBasicTime; }
  core::StatusOr<std::vector<core::TimeSeries>> DoGenerate(
      const core::Dataset& train, int label, int count,
      core::Rng& rng) override;

 private:
  double reference_weight_;
  int max_neighbors_;
  int iterations_;
  int window_;
};

}  // namespace tsaug::augment

#endif  // TSAUG_AUGMENT_DBA_H_
