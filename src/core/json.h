#ifndef TSAUG_CORE_JSON_H_
#define TSAUG_CORE_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tsaug::core {

/// The one JSON encoder behind the trace report, the cell journal and the
/// BENCH_*.json files. Strings escape `"` and `\` and write every byte
/// below 0x20 as \u00XX (lowercase hex); all other bytes, multi-byte UTF-8
/// included, pass through. Integers print exactly, doubles as "%.*f" at the
/// caller's precision (at most 40), non-finite doubles as null. Call `Key`
/// before each object member; call order is not validated.
class JsonWriter {
 public:
  /// Compact by default. `spaced` puts a space after ':' and ','. Members
  /// of containers opened at a depth below `break_depth` (the outermost is
  /// depth 0) go on their own lines, indented two spaces per level.
  struct Layout {
    bool spaced = false;
    int break_depth = 0;
  };

  JsonWriter() = default;
  explicit JsonWriter(Layout layout) : layout_(layout) {}

  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }
  JsonWriter& Key(std::string_view key);
  JsonWriter& String(std::string_view value);
  JsonWriter& Int(std::int64_t value);
  JsonWriter& Uint(std::uint64_t value);
  JsonWriter& Double(double value, int precision);
  JsonWriter& Bool(bool value);

  const std::string& str() const { return out_; }

 private:
  JsonWriter& Open(char bracket);
  JsonWriter& Close(char bracket);
  /// Writes the separator, line break and indent due before a value/key.
  JsonWriter& Next();
  void Quote(std::string_view text);

  Layout layout_;
  std::string out_;
  std::vector<bool> has_member_;  // per open container
  bool after_key_ = false;
};

}  // namespace tsaug::core

#endif  // TSAUG_CORE_JSON_H_
