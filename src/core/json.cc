#include "core/json.h"

#include <cmath>
#include <cstdio>

namespace tsaug::core {

void JsonWriter::Quote(std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  out_ += '"';
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') out_ += '\\';
    if (byte >= 0x20) {
      out_ += c;
    } else {
      out_ += "\\u00";
      out_ += kHex[byte >> 4];
      out_ += kHex[byte & 0xf];
    }
  }
  out_ += '"';
}

JsonWriter& JsonWriter::Next() {
  if (after_key_ || has_member_.empty()) {
    after_key_ = false;
    return *this;
  }
  const size_t depth = has_member_.size();
  const bool breaks = static_cast<int>(depth) <= layout_.break_depth;
  if (has_member_.back()) out_ += layout_.spaced && !breaks ? ", " : ",";
  has_member_.back() = true;
  if (breaks) out_.append("\n").append(2 * depth, ' ');
  return *this;
}

JsonWriter& JsonWriter::Open(char bracket) {
  Next().out_ += bracket;
  has_member_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::Close(char bracket) {
  const bool had_member = has_member_.back();
  has_member_.pop_back();
  const size_t depth = has_member_.size();
  if (had_member && static_cast<int>(depth) < layout_.break_depth) {
    out_.append("\n").append(2 * depth, ' ');
  }
  out_ += bracket;
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  Next().Quote(key);
  out_ += layout_.spaced ? ": " : ":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  Next().Quote(value);
  return *this;
}

JsonWriter& JsonWriter::Int(std::int64_t value) {
  Next().out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Uint(std::uint64_t value) {
  Next().out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Double(double value, int precision) {
  char text[360];  // DBL_MAX has 309 integer digits
  std::snprintf(text, sizeof(text), "%.*f", precision, value);
  Next().out_ += std::isfinite(value) ? text : "null";
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  Next().out_ += value ? "true" : "false";
  return *this;
}

}  // namespace tsaug::core
