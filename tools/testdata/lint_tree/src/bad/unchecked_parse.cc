// Fixture: parses that turn "abc" into 0 without a word.
#include <cstdlib>

double Budget(const char* text) {
  return std::atof(text);
}

long long Count(const char* text) { return atoll(text); }

// Checked parses, and the names in prose (atoi(), std::atof), are fine.
double Checked(const char* text) { return std::strtod(text, nullptr); }
int Mentions() { return 0; }  // atoi(text) would read "5x" as 5
