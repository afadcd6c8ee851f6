#include "core/flags.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <utility>

namespace tsaug::core {
namespace {

/// strtol and strtod skip leading whitespace; a whole token may not.
bool IsToken(const char* text) {
  return text != nullptr && *text != '\0' &&
         std::isspace(static_cast<unsigned char>(*text)) == 0;
}

}  // namespace

bool ParseInt(const char* text, int min, int max, int* out) {
  if (!IsToken(text)) return false;
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text, &end, 10);
  if (errno != 0 || *end != '\0' || value < min || value > max) return false;
  *out = static_cast<int>(value);
  return true;
}

bool ParseDouble(const char* text, double min, double max, double* out) {
  if (!IsToken(text)) return false;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text, &end);
  if (errno != 0 || *end != '\0' || !(value >= min && value <= max)) {
    return false;
  }
  *out = value;
  return true;
}

Flag IntFlag(std::string name, int min, int max, int* out) {
  return {std::move(name), true,
          [=](const char* v) { return ParseInt(v, min, max, out); }};
}

Flag DoubleFlag(std::string name, double min, double max, double* out) {
  return {std::move(name), true,
          [=](const char* v) { return ParseDouble(v, min, max, out); }};
}

Flag StringFlag(std::string name, std::string* out) {
  return {std::move(name), true, [out](const char* v) {
            *out = v;
            return true;
          }};
}

Flag SwitchFlag(std::string name, bool* out) {
  return {std::move(name), false, [out](const char*) {
            *out = true;
            return true;
          }};
}

Status ParseFlags(int argc, char** argv, const std::vector<Flag>& flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // `--name=VALUE` carries its value in the same argument.
    const size_t equals =
        arg.rfind("--", 0) == 0 ? arg.find('=') : std::string::npos;
    const std::string name = arg.substr(0, equals);
    const Flag* flag = nullptr;
    for (const Flag& candidate : flags) {
      if (candidate.name == name) flag = &candidate;
    }
    if (flag == nullptr) return InvalidArgumentError("unknown flag " + name);
    const char* value = nullptr;
    if (equals != std::string::npos) {
      if (!flag->takes_value) {
        return InvalidArgumentError(name + " takes no value");
      }
      value = argv[i] + equals + 1;
    } else if (flag->takes_value) {
      if (i + 1 == argc) {
        return InvalidArgumentError("missing value for " + name);
      }
      value = argv[++i];
    }
    if (!flag->parse(value)) {
      return InvalidArgumentError("bad value '" + std::string(value) +
                                  "' for " + name);
    }
  }
  return OkStatus();
}

}  // namespace tsaug::core
