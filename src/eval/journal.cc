#include "eval/journal.h"

#include <array>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "core/faultpoint.h"
#include "core/flags.h"
#include "core/io.h"
#include "core/json.h"

namespace tsaug::eval {
namespace {

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return 10 + (c - 'a');
  if (c >= 'A' && c <= 'F') return 10 + (c - 'A');
  return -1;
}

/// Extracts the string value of `"key":"..."` from a body object. The
/// pattern contains raw quotes, which escaping keeps out of values, so a
/// match is always a real key. Returns false on missing key or malformed
/// escapes (the caller drops the record).
bool ExtractString(const std::string& body, const std::string& key,
                   std::string& out) {
  const std::string pattern = "\"" + key + "\":\"";
  size_t pos = body.find(pattern);
  if (pos == std::string::npos) return false;
  pos += pattern.size();
  out.clear();
  while (pos < body.size()) {
    const char c = body[pos];
    if (c == '"') return true;
    if (c == '\\') {
      if (pos + 1 >= body.size()) return false;
      const char escaped = body[pos + 1];
      switch (escaped) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        // \n and \t come from journals written before the shared writer,
        // which emits \u00XX for every control byte.
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (pos + 5 >= body.size()) return false;
          int code = 0;
          for (int i = 2; i <= 5; ++i) {
            const int digit = HexValue(body[pos + static_cast<size_t>(i)]);
            if (digit < 0) return false;
            code = code * 16 + digit;
          }
          if (code > 0xff) return false;  // the writer only emits \u00XX
          out += static_cast<char>(code);
          pos += 4;
          break;
        }
        default:
          return false;
      }
      pos += 2;
      continue;
    }
    out += c;
    ++pos;
  }
  return false;  // unterminated string
}

/// The raw text of `"key":<number>` up to the next ',' or '}'; empty when
/// the key is missing or the value unterminated.
std::string NumberToken(const std::string& body, const std::string& key) {
  const std::string pattern = "\"" + key + "\":";
  const size_t pos = body.find(pattern);
  if (pos == std::string::npos) return "";
  const size_t start = pos + pattern.size();
  const size_t end = body.find_first_of(",}", start);
  return end == std::string::npos ? "" : body.substr(start, end - start);
}

/// An int-valued key; false (the record is dropped) when it is missing,
/// malformed or out of int range.
bool ExtractInt(const std::string& body, const std::string& key, int& out) {
  return core::ParseInt(NumberToken(body, key).c_str(), INT_MIN, INT_MAX,
                        &out);
}

bool ExtractUint64(const std::string& body, const std::string& key,
                   std::uint64_t& out) {
  const std::string token = NumberToken(body, key);
  if (token.empty() || token[0] < '0' || token[0] > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(token.c_str(), &end, 10);
  if (errno != 0 || *end != '\0') return false;
  out = value;
  return true;
}

bool StatusCodeFromName(const std::string& name, core::StatusCode& code) {
  // Codes are append-only (core/status.h); kGeometryMismatch is the last.
  const int last = static_cast<int>(core::StatusCode::kGeometryMismatch);
  for (int value = 0; value <= last; ++value) {
    const auto candidate = static_cast<core::StatusCode>(value);
    if (name == core::StatusCodeName(candidate)) {
      code = candidate;
      return true;
    }
  }
  return false;
}

/// Wraps a body object into a guarded line: {"crc":"<hex>","body":<body>}.
std::string GuardLine(const std::string& body) {
  char crc_hex[16];
  std::snprintf(crc_hex, sizeof(crc_hex), "%08x",
                static_cast<unsigned>(Crc32(body)));
  return std::string("{\"crc\":\"") + crc_hex + "\",\"body\":" + body + "}\n";
}

/// Splits a guarded line back into its body, verifying the CRC. Returns
/// false for torn, corrupt, or foreign lines.
bool DecodeLine(const std::string& line, std::string& body) {
  constexpr const char kPrefix[] = "{\"crc\":\"";
  constexpr size_t kPrefixLen = sizeof(kPrefix) - 1;
  constexpr const char kMid[] = "\",\"body\":";
  constexpr size_t kMidLen = sizeof(kMid) - 1;
  if (line.size() < kPrefixLen + 8 + kMidLen + 1) return false;
  if (line.compare(0, kPrefixLen, kPrefix) != 0) return false;
  if (line.compare(kPrefixLen + 8, kMidLen, kMid) != 0) return false;
  if (line.back() != '}') return false;
  const std::string crc_hex = line.substr(kPrefixLen, 8);
  char* end = nullptr;
  const unsigned long recorded = std::strtoul(crc_hex.c_str(), &end, 16);
  if (end != crc_hex.c_str() + 8) return false;
  const size_t body_start = kPrefixLen + 8 + kMidLen;
  body = line.substr(body_start, line.size() - 1 - body_start);
  return static_cast<std::uint32_t>(recorded) == Crc32(body);
}

std::string HeaderBody(const std::string& fingerprint) {
  core::JsonWriter w;
  w.BeginObject().Key("type").String("header").Key("version").Int(1);
  w.Key("fingerprint").String(fingerprint).EndObject();
  return w.str();
}

std::string CellBody(const JournalCell& cell) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(cell.score));
  std::memcpy(&bits, &cell.score, sizeof(bits));
  char score_text[40];
  std::snprintf(score_text, sizeof(score_text), "%.17g", cell.score);
  core::JsonWriter w;
  w.BeginObject().Key("type").String("cell");
  w.Key("dataset").String(cell.dataset).Key("run").Int(cell.run);
  w.Key("cell").Int(cell.cell).Key("name").String(cell.name);
  w.Key("score_bits").Uint(bits).Key("score").String(score_text);
  w.Key("retries").Int(cell.retries);
  w.Key("code").String(core::StatusCodeName(cell.status.code()));
  w.Key("context").String(cell.status.context()).EndObject();
  return w.str();
}

/// Parses a cell body. `score` comes from score_bits alone (the printed
/// score is a human-readable convenience), so means computed from resumed
/// cells match the uninterrupted run bit for bit.
bool ParseCell(const std::string& body, JournalCell& cell) {
  std::uint64_t bits = 0;
  std::string code_name, context;
  if (!ExtractString(body, "dataset", cell.dataset)) return false;
  if (!ExtractInt(body, "run", cell.run)) return false;
  if (!ExtractInt(body, "cell", cell.cell)) return false;
  if (!ExtractString(body, "name", cell.name)) return false;
  if (!ExtractUint64(body, "score_bits", bits)) return false;
  if (!ExtractInt(body, "retries", cell.retries)) return false;
  if (!ExtractString(body, "code", code_name)) return false;
  if (!ExtractString(body, "context", context)) return false;
  core::StatusCode code = core::StatusCode::kOk;
  if (!StatusCodeFromName(code_name, code)) return false;
  std::memcpy(&cell.score, &bits, sizeof(cell.score));
  cell.status = core::Status(code, std::move(context));
  return true;
}

/// One journal file loaded and validated, shared by Journal::Open() and
/// MergeJournals(): CRC-checked lines, torn/corrupt ones dropped with a
/// warning, duplicate (dataset, run, cell) keys resolved last-writer.
struct LoadedJournal {
  std::map<std::tuple<std::string, int, int>, JournalCell> cells;
  int dropped = 0;
  bool header_seen = false;
  /// The file existed and held at least one byte.
  bool present = false;
};

core::Status LoadJournalFile(const std::string& path,
                             const std::string& fingerprint,
                             LoadedJournal& out) {
  std::string content;
  if (std::FILE* in = std::fopen(path.c_str(), "rb"); in != nullptr) {
    char buffer[4096];
    size_t got = 0;
    while ((got = std::fread(buffer, 1, sizeof(buffer), in)) > 0) {
      content.append(buffer, got);
    }
    std::fclose(in);
  }
  out.present = !content.empty();

  size_t start = 0;
  while (start < content.size()) {
    size_t end = content.find('\n', start);
    const bool torn = end == std::string::npos;  // no trailing newline
    if (torn) end = content.size();
    const std::string line = content.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    std::string body, type;
    if (!DecodeLine(line, body) || !ExtractString(body, "type", type)) {
      ++out.dropped;
      std::fprintf(stderr,
                   "journal: dropping %s line in %s (cell will be re-run)\n",
                   torn ? "truncated" : "corrupt", path.c_str());
      continue;
    }
    if (type == "header") {
      std::string recorded;
      if (!ExtractString(body, "fingerprint", recorded)) {
        ++out.dropped;
        continue;
      }
      if (recorded != fingerprint) {
        return core::DegenerateInputError(
            "journal: config fingerprint mismatch in " + path +
            " — journal was written by \"" + recorded +
            "\" but this run is \"" + fingerprint +
            "\"; delete the journal or rerun with the matching "
            "config/seed");
      }
      out.header_seen = true;
    } else if (type == "cell") {
      if (!out.header_seen) {
        return core::DegenerateInputError(
            "journal: cell record before header in " + path +
            " — not a tsaug journal, or its header was lost");
      }
      JournalCell cell;
      if (!ParseCell(body, cell)) {
        ++out.dropped;
        std::fprintf(stderr,
                     "journal: dropping unparsable cell record in %s\n",
                     path.c_str());
        continue;
      }
      // Duplicate (dataset, run, cell) records take the last writer.
      out.cells[{cell.dataset, cell.run, cell.cell}] = std::move(cell);
    } else {
      ++out.dropped;
    }
  }
  return core::OkStatus();
}

}  // namespace

std::uint32_t Crc32(const std::string& data) {
  static const std::array<std::uint32_t, 256> kTable = [] {
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      table[static_cast<size_t>(i)] = c;
    }
    return table;
  }();
  std::uint32_t crc = 0xffffffffu;
  for (char raw : data) {
    const std::uint32_t byte = static_cast<unsigned char>(raw);
    crc = kTable[static_cast<size_t>((crc ^ byte) & 0xffu)] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

Journal::~Journal() {
  core::MutexLock lock(append_mu_);
  if (file_ != nullptr) std::fclose(file_);
  file_ = nullptr;
}

core::Status Journal::Open(const std::string& path,
                           const std::string& fingerprint) {
  TSAUG_CHECK_MSG(!is_open(), "Journal::Open called twice");
  path_ = path;
  LoadedJournal loaded;
  TSAUG_RETURN_IF_ERROR(LoadJournalFile(path, fingerprint, loaded));
  cells_ = std::move(loaded.cells);
  dropped_ = loaded.dropped;
  const bool header_seen = loaded.header_seen;
  loaded_ = static_cast<int>(cells_.size());

  std::FILE* appender = std::fopen(path.c_str(), "ab");
  if (appender == nullptr) {
    return core::DegenerateInputError("journal: cannot open " + path +
                                      " for append");
  }
  if (!header_seen) {
    const std::string line = GuardLine(HeaderBody(fingerprint));
    if (std::fwrite(line.data(), 1, line.size(), appender) != line.size() ||
        std::fflush(appender) != 0) {
      std::fclose(appender);
      return core::DegenerateInputError("journal: cannot write header to " +
                                        path);
    }
  }
  core::MutexLock lock(append_mu_);
  file_ = appender;
  return core::OkStatus();
}

core::Status Journal::Append(const JournalCell& cell) {
  const std::string line = GuardLine(CellBody(cell));
  core::MutexLock lock(append_mu_);
  if (file_ == nullptr) {
    return core::DegenerateInputError("journal: Append on a closed journal");
  }
  if (core::fault::ShouldFail("journal.flush")) {
    return core::fault::InjectedAt("journal.flush");
  }
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
      std::fflush(file_) != 0) {
    return core::DegenerateInputError("journal: write to " + path_ +
                                      " failed");
  }
  return core::OkStatus();
}

const JournalCell* Journal::Find(const std::string& dataset, int run,
                                 int cell) const {
  const auto it = cells_.find(std::make_tuple(dataset, run, cell));
  return it == cells_.end() ? nullptr : &it->second;
}

core::StatusOr<JournalMergeStats> MergeJournals(
    const std::vector<std::string>& inputs, const std::string& output_path,
    const std::string& fingerprint) {
  JournalMergeStats stats;
  std::map<std::tuple<std::string, int, int>, JournalCell> merged;
  for (const std::string& input : inputs) {
    LoadedJournal loaded;
    TSAUG_RETURN_IF_ERROR(LoadJournalFile(input, fingerprint, loaded));
    if (!loaded.present) {
      // A shard that never started (or crashed before its header flush)
      // contributes nothing; its cells surface as failed in the replay.
      ++stats.missing_inputs;
      continue;
    }
    ++stats.inputs;
    stats.dropped_lines += loaded.dropped;
    for (auto& [key, cell] : loaded.cells) {
      const auto [it, inserted] = merged.insert_or_assign(key, std::move(cell));
      if (!inserted) ++stats.duplicates;
    }
  }
  stats.cells = static_cast<int>(merged.size());

  // std::map iteration gives the deterministic (dataset, run, cell) order,
  // so merging the same inputs twice writes byte-identical output.
  std::string text = GuardLine(HeaderBody(fingerprint));
  for (const auto& [key, cell] : merged) text += GuardLine(CellBody(cell));
  core::Status written = core::WriteFile(output_path, text);
  if (!written.ok()) {
    return written.AddContext("journal: writing the merged journal");
  }
  return stats;
}

}  // namespace tsaug::eval
