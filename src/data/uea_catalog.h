#ifndef TSAUG_DATA_UEA_CATALOG_H_
#define TSAUG_DATA_UEA_CATALOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/synthetic.h"

namespace tsaug::data {

/// Geometry of one of the paper's 13 imbalanced UEA datasets (Table III),
/// plus the archive's test-set size.
struct UeaDatasetInfo {
  std::string name;
  int n_classes = 0;
  int train_size = 0;
  int test_size = 0;
  int dim = 0;
  int length = 0;
  double im_ratio = 0.0;   // Hellinger imbalance degree from Table III
  double prop_miss = 0.0;  // missing-step proportion from Table III
  /// ROCKET baseline accuracy from Table IV (in %): used to calibrate the
  /// synthetic stand-in's difficulty so the per-dataset accuracy *spread*
  /// of the study (41%..99%) is preserved.
  double paper_rocket_acc = 90.0;
};

/// The 13 imbalanced multivariate datasets the paper evaluates on.
const std::vector<UeaDatasetInfo>& UeaImbalancedCatalog();

/// Look-up by name; aborts on unknown names.
const UeaDatasetInfo& FindUeaDataset(const std::string& name);

/// Downscaling applied to the archive geometry so experiments run on a
/// laptop (and in this repo's benches) while preserving class structure,
/// imbalance profile and missingness. kPaper keeps the original geometry.
enum class ScalePreset {
  kPaper,  // original sizes (Table III)
  kSmall,  // train<=64, test<=64, length<=64, dim<=8
  kTiny,   // train<=28, test<=28, length<=32, dim<=4
};

/// Generates the UEA-like synthetic train/test pair for a catalogue entry:
/// its geometry at the chosen scale, with class counts fitted to the Table
/// III imbalance degree and dims/lengths/sizes capped per preset.
TrainTest MakeUeaLikeDataset(const std::string& name, ScalePreset scale,
                             std::uint64_t seed);

}  // namespace tsaug::data

#endif  // TSAUG_DATA_UEA_CATALOG_H_
