#ifndef TSAUG_CORE_FLAGS_H_
#define TSAUG_CORE_FLAGS_H_

#include <functional>
#include <string>
#include <vector>

#include "core/status.h"

namespace tsaug::core {

/// Parses the whole of `text` as a base-10 int in [min, max]. False, with
/// `out` untouched, on null or empty text, leading whitespace, trailing
/// bytes, overflow or a value out of range.
bool ParseInt(const char* text, int min, int max, int* out);
/// The same for a finite double in strtod syntax.
bool ParseDouble(const char* text, double min, double max, double* out);

/// One command-line flag: `--name VALUE` or `--name=VALUE`, or a bare
/// switch when `takes_value` is false. `parse` stores the value (nullptr
/// for a switch) and returns false to reject it.
struct Flag {
  std::string name;
  bool takes_value = true;
  std::function<bool(const char*)> parse;
};
Flag IntFlag(std::string name, int min, int max, int* out);
Flag DoubleFlag(std::string name, double min, double max, double* out);
Flag StringFlag(std::string name, std::string* out);
Flag SwitchFlag(std::string name, bool* out);

/// Applies argv[1..argc) to `flags`: kInvalidArgument naming the first
/// unknown flag, missing value, rejected value or switch given a value.
[[nodiscard]] Status ParseFlags(int argc, char** argv,
                                const std::vector<Flag>& flags);

}  // namespace tsaug::core

#endif  // TSAUG_CORE_FLAGS_H_
