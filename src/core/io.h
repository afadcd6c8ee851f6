#ifndef TSAUG_CORE_IO_H_
#define TSAUG_CORE_IO_H_

#include <iosfwd>
#include <string>
#include <string_view>

#include "core/status.h"
#include "core/time_series.h"

namespace tsaug::core {

/// The one whole-file writer behind every report, merged journal, trace
/// and bench file: replaces `path` with `bytes`, checking the open, the
/// write, the flush and the close. kUnavailable naming `path` on failure.
[[nodiscard]] Status WriteFile(const std::string& path, std::string_view bytes);

/// Writes one series as CSV with a `t,ch0,ch1,...` header. Missing values
/// are emitted as the literal `NaN`.
void WriteSeriesCsv(const TimeSeries& series, std::ostream& out);
bool WriteSeriesCsv(const TimeSeries& series, const std::string& path);

}  // namespace tsaug::core

#endif  // TSAUG_CORE_IO_H_
