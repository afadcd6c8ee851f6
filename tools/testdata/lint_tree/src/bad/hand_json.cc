// Fixture: a second JSON escaper and hand-rolled whole-file writers.
#include <cstdio>
#include <fstream>

void Escape(unsigned char c, char* buf) { std::snprintf(buf, 8, "\\u%04x", c); }
void Dump(const char* path) {
  std::FILE* f = std::fopen(path, "w");
  std::FILE* r = std::fopen(path, "rb");  // clean: read mode
  std::FILE* a = std::fopen(path, "ab");  // only the journal may append
  std::ofstream out(path);
}
