// Fixture: the journal's per-record appender is the sanctioned append
// stream, but a whole-file write here still goes through core::WriteFile.
#include <cstdio>

void Append(const char* path) {
  std::FILE* appender = std::fopen(path, "ab");  // clean
  std::FILE* rewrite = std::fopen(path, "wb");
}
