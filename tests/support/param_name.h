// Readable, stable names for value-parameterized tests: gtest accepts only
// [A-Za-z0-9_] in a generated name, so every other character maps to '_'.
#pragma once

#include <cctype>
#include <string>
#include <string_view>

namespace cw::support {

inline std::string param_name(std::string_view text) {
  std::string name(text);
  for (char& c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
  }
  return name.empty() ? std::string("empty") : name;
}

}  // namespace cw::support
