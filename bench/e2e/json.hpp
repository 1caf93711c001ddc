// Minimal JSON value encoding for the benchmark's reports.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

namespace e2e {

/// Shortest round-trip decimal form (every digit measured); null for
/// NaN or infinity, which JSON cannot carry.
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

inline std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\u%04x", static_cast<unsigned>(c));
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace e2e
