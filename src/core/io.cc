#include "core/io.h"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace tsaug::core {
namespace {

void WriteValue(std::ostream& out, double v) {
  if (std::isnan(v)) {
    out << "NaN";
  } else {
    out << v;
  }
}

}  // namespace

Status WriteFile(const std::string& path, std::string_view bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return UnavailableError("cannot open " + path);
  const bool wrote =
      std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
  const bool flushed = std::fflush(file) == 0;
  if (std::fclose(file) != 0 || !flushed || !wrote) {
    return UnavailableError("short write to " + path);
  }
  return OkStatus();
}

void WriteSeriesCsv(const TimeSeries& series, std::ostream& out) {
  out << "t";
  for (int c = 0; c < series.num_channels(); ++c) out << ",ch" << c;
  out << "\n";
  for (int t = 0; t < series.length(); ++t) {
    out << t;
    for (int c = 0; c < series.num_channels(); ++c) {
      out << ",";
      WriteValue(out, series.at(c, t));
    }
    out << "\n";
  }
}

bool WriteSeriesCsv(const TimeSeries& series, const std::string& path) {
  std::ostringstream out;
  WriteSeriesCsv(series, out);
  return WriteFile(path, out.str()).ok();
}

}  // namespace tsaug::core
