// Fixture: core::WriteFile is the one whole-file writer (clean).
#include <cstdio>

void WriteFile(const char* path) { std::FILE* f = std::fopen(path, "wb"); }
