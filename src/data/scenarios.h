#ifndef TSAUG_DATA_SCENARIOS_H_
#define TSAUG_DATA_SCENARIOS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"
#include "data/synthetic.h"

namespace tsaug::data {

/// Stress-scenario dataset catalog.
///
/// Where the UEA-like catalog (data/uea_catalog.h) reproduces the paper's
/// mild Table-III envelope, this catalog deliberately generates the hard
/// inputs the broader surveys benchmark across: concept drift between
/// train and test, imbalance down to single-member classes, structured
/// missingness up to near-total, and degenerate geometries (length-1
/// series, dead channels, constant channels). Every scenario is built as
/// a deterministic post-transform over MakeSynthetic, addressable by a
/// stable string id that the experiment config folds into its fingerprint
/// (ExperimentConfig::dataset_suite), so a stress journal can never be
/// replayed against a different catalog.
///
/// Some scenarios are *designed to fail typed*: length_one_all, for
/// example, is below every model's length floor, and the grid must turn
/// it into kDegenerateInput cells rather than abort. The repair scenarios
/// (dead channels, per-instance dropout, short-series mixes) are designed
/// to pass through core/validate.h's deterministic repair policies and
/// then train normally.
struct ScenarioInfo {
  std::string id;      // stable catalog id; doubles as the dataset name
  std::string family;  // "drift" | "imbalance" | "missing" | "geometry"
  std::string summary;
};

/// The full catalog, in fixed order (ids are unique).
const std::vector<ScenarioInfo>& ScenarioCatalog();

/// All catalog ids, in catalog order.
std::vector<std::string> ScenarioIds();

/// Generates the train/test pair of one scenario. Deterministic in
/// (id, seed); every draw comes from a stream derived from both, so two
/// scenarios never share bits even under one study seed.
/// kInvalidArgument for ids the catalog does not contain.
[[nodiscard]] core::StatusOr<TrainTest> TryMakeScenarioDataset(
    const std::string& id, std::uint64_t seed);

}  // namespace tsaug::data

#endif  // TSAUG_DATA_SCENARIOS_H_
