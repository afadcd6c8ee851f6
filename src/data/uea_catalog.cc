#include "data/uea_catalog.h"

#include <algorithm>

#include "core/check.h"

namespace tsaug::data {

const std::vector<UeaDatasetInfo>& UeaImbalancedCatalog() {
  // Geometry from Table III of the paper; test sizes from the UEA archive.
  static const std::vector<UeaDatasetInfo>* const kCatalog =
      new std::vector<UeaDatasetInfo>{
          {"CharacterTrajectories", 20, 1422, 1436, 3, 182, 13.06, 0.33, 98.52},
          {"EigenWorms", 5, 128, 131, 6, 17984, 3.26, 0.0, 89.16},
          {"Epilepsy", 4, 137, 138, 3, 206, 1.05, 0.0, 98.99},
          {"EthanolConcentration", 4, 261, 263, 3, 1751, 2.0, 0.0, 41.29},
          {"FingerMovements", 2, 316, 100, 28, 50, 0.0, 0.0, 52.20},
          {"Handwriting", 26, 150, 850, 3, 152, 12.23, 0.0, 58.71},
          {"Heartbeat", 2, 204, 205, 61, 405, 0.3, 0.0, 73.76},
          {"LSST", 14, 2459, 2466, 6, 36, 9.49, 0.0, 63.84},
          {"PEMS-SF", 7, 267, 173, 963, 144, 3.07, 0.0, 82.43},
          {"PenDigits", 10, 7494, 3498, 2, 8, 4.02, 0.0, 97.87},
          {"RacketSports", 4, 151, 152, 6, 30, 1.06, 0.0, 90.66},
          {"SelfRegulationSCP1", 2, 268, 293, 6, 896, 0.0, 0.0, 85.39},
          {"SpokenArabicDigits", 10, 6599, 2199, 13, 93, 0.0, 0.57, 96.20},
      };
  return *kCatalog;
}

const UeaDatasetInfo& FindUeaDataset(const std::string& name) {
  for (const UeaDatasetInfo& info : UeaImbalancedCatalog()) {
    if (info.name == name) return info;
  }
  TSAUG_CHECK_MSG(false, "unknown UEA dataset '%s'", name.c_str());
  return UeaImbalancedCatalog().front();  // unreachable
}

namespace {

struct ScaleCaps {
  int max_train;
  int max_test;
  int max_length;
  int max_dim;
};

ScaleCaps CapsFor(ScalePreset scale) {
  switch (scale) {
    case ScalePreset::kPaper:
      return {1 << 30, 1 << 30, 1 << 30, 1 << 30};
    case ScalePreset::kSmall:
      return {64, 64, 64, 8};
    case ScalePreset::kTiny:
      return {28, 28, 32, 4};
  }
  TSAUG_CHECK(false);
  return {};
}

/// A SyntheticSpec whose generated data matches `info`'s geometry at the
/// chosen scale.
SyntheticSpec SpecFromUeaInfo(const UeaDatasetInfo& info, ScalePreset scale,
                              std::uint64_t seed) {
  const ScaleCaps caps = CapsFor(scale);
  SyntheticSpec spec;
  spec.name = info.name;
  spec.num_classes = info.n_classes;
  // Keep at least 3 instances per class in train (so SMOTE and the 2:1
  // validation split stay meaningful) and 1 in test.
  const int min_train_total = 3 * info.n_classes;
  const int min_test_total = info.n_classes;
  const int train_total =
      std::max(min_train_total, std::min(info.train_size, caps.max_train));
  const int test_total =
      std::max(min_test_total, std::min(info.test_size, caps.max_test));
  spec.train_counts =
      CountsForImbalanceDegree(train_total, info.n_classes, info.im_ratio,
                               /*min_count=*/3);
  spec.test_counts = CountsForImbalanceDegree(test_total, info.n_classes,
                                              info.im_ratio,
                                              /*min_count=*/1);
  spec.num_channels = std::max(1, std::min(info.dim, caps.max_dim));
  spec.length = std::max(8, std::min(info.length, caps.max_length));
  spec.missing_prop = info.prop_miss;
  // Difficulty calibration: the generator's signal-to-noise ratio is set
  // from the paper's ROCKET baseline accuracy so the study keeps the
  // archive's per-dataset accuracy spread (EthanolConcentration ~40%
  // through CharacterTrajectories ~99%). Hard datasets get weak, heavily
  // overlapped class signatures under strong noise.
  const double difficulty =
      std::clamp(1.0 - info.paper_rocket_acc / 100.0, 0.0, 0.6);
  spec.class_separation = std::clamp(1.0 - 1.55 * difficulty, 0.08, 1.0);
  spec.noise_level = 0.35 + 1.6 * difficulty;
  spec.instance_variability = 0.18 + 1.3 * difficulty;
  // Mild train/test drift mirrors the archive's nonzero d_train_test;
  // harder datasets drift more (domain shift is part of their difficulty).
  spec.drift = 0.05 + 0.5 * difficulty;
  spec.seed = seed ^ std::hash<std::string>{}(info.name);
  return spec;
}

}  // namespace

TrainTest MakeUeaLikeDataset(const std::string& name, ScalePreset scale,
                             std::uint64_t seed) {
  return MakeSynthetic(SpecFromUeaInfo(FindUeaDataset(name), scale, seed));
}

}  // namespace tsaug::data
