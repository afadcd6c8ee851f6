#include "core/io.h"

#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>

#include "core/flags.h"

namespace tsaug::core {
namespace {

bool ParseCsvSample(const std::string& text, double* value) {
  if (text == "NaN" || text == "nan") {
    *value = std::nan("");
    return true;
  }
  char* end = nullptr;
  *value = std::strtod(text.c_str(), &end);
  return end != text.c_str() && *end == '\0';
}

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

void WriteDatasetCsv(const Dataset& dataset, std::ostream& out) {
  out << "instance,label,channel,t,value\n";
  for (int i = 0; i < dataset.size(); ++i) {
    const TimeSeries& s = dataset.series(i);
    for (int c = 0; c < s.num_channels(); ++c) {
      for (int t = 0; t < s.length(); ++t) {
        out << i << "," << dataset.label(i) << "," << c << "," << t << ",";
        WriteValue(out, s.at(c, t));
        out << "\n";
      }
    }
  }
}

bool WriteDatasetCsv(const Dataset& dataset, const std::string& path) {
  std::ostringstream out;
  WriteDatasetCsv(dataset, out);
  return WriteFile(path, out.str()).ok();
}

bool ReadDatasetCsv(std::istream& in, Dataset* dataset) {
  *dataset = Dataset();
  std::string line;
  if (!std::getline(in, line)) return false;  // header

  // instance -> (label, channel -> samples)
  std::map<int, std::pair<int, std::map<int, std::vector<double>>>> rows;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string field;
    int values[4] = {0, 0, 0, 0};
    for (int k = 0; k < 4; ++k) {
      if (!std::getline(fields, field, ',') ||
          !ParseInt(field.c_str(), 0, INT_MAX, &values[k])) {
        return false;
      }
    }
    if (!std::getline(fields, field, ',')) return false;
    double sample = 0.0;
    if (!ParseCsvSample(field, &sample)) return false;
    auto& [label, channels] = rows[values[0]];
    label = values[1];
    std::vector<double>& samples = channels[values[2]];
    if (static_cast<int>(samples.size()) <= values[3]) {
      samples.resize(static_cast<size_t>(values[3] + 1), std::nan(""));
    }
    samples[static_cast<size_t>(values[3])] = sample;
  }
  for (auto& [instance, entry] : rows) {
    (void)instance;
    std::vector<std::vector<double>> channels;
    channels.reserve(entry.second.size());
    for (auto& [channel, samples] : entry.second) {
      (void)channel;
      channels.push_back(std::move(samples));
    }
    dataset->Add(TimeSeries::FromChannels(channels), entry.first);
  }
  return true;
}

bool ReadDatasetCsv(const std::string& path, Dataset* dataset) {
  std::ifstream in(path);
  if (!in) return false;
  return ReadDatasetCsv(in, dataset);
}

}  // namespace tsaug::core
