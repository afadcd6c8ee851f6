#ifndef TSAUG_DATA_TS_FORMAT_H_
#define TSAUG_DATA_TS_FORMAT_H_

#include <iosfwd>
#include <string>

#include "core/dataset.h"

namespace tsaug::data {

/// Loader for the UEA/UCR `.ts` sktime format: the path for running the
/// study on the real archive once its files are in the repository. Until
/// then every grid runs on the synthetic catalogue (see DESIGN.md).
///
/// Supported subset:
///   - `#` comment lines and `@<directive>` header lines
///     (`@classLabel true <labels...>` defines the label vocabulary;
///     other directives are accepted and ignored),
///   - one case per line after `@data`: dimensions separated by `:`,
///     comma-separated values per dimension, final field = class label,
///   - `?` for missing values (mapped to NaN),
///   - variable-length and multi-dimension cases.
///
/// Labels are mapped to dense ints in vocabulary order (or first-seen
/// order when no @classLabel vocabulary is declared).
bool ReadTsFile(std::istream& in, core::Dataset* dataset,
                std::string* error = nullptr);
bool ReadTsFile(const std::string& path, core::Dataset* dataset,
                std::string* error = nullptr);

/// Writes a dataset in the same `.ts` subset (round-trips ReadTsFile).
void WriteTsFile(const core::Dataset& dataset, const std::string& problem_name,
                 std::ostream& out);

/// Loads `<dir>/<name>_TRAIN.ts` and `<dir>/<name>_TEST.ts`. Returns false
/// (with `error` set) if either file is missing or malformed.
bool LoadUeaProblem(const std::string& directory, const std::string& name,
                    core::Dataset* train, core::Dataset* test,
                    std::string* error = nullptr);

}  // namespace tsaug::data

#endif  // TSAUG_DATA_TS_FORMAT_H_
