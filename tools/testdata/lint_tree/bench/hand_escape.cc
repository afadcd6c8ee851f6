// Fixture: bench code escapes JSON through core::JsonWriter too.
#include <string>

void Escape(std::string& out) { out += "\\u0009"; }
