// Minimal JSON rendering helpers shared by the telemetry exporters
// (report.cpp, chrome_trace.cpp, heartbeat.cpp) and the serve protocol.
// Consumers parse the output with real JSON libraries (scripts/*.py use
// the Python stdlib).
#pragma once

#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>

namespace gnndse::obs::jsonu {

/// `s` as a double-quoted JSON string: quote and backslash escaped, and
/// every control character below 0x20 (\n, \r, \t by name, the rest as
/// \u00XX), so any byte string renders as valid JSON.
inline std::string quoted(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

/// Appends a finite JSON number; JSON has no inf/nan, so those clamp to
/// null-free sentinels.
inline void append_number(std::ostringstream& os, double v) {
  if (!(v == v)) {
    os << 0;
    return;
  }
  if (v > 1e308) {
    os << 1e308;
    return;
  }
  if (v < -1e308) {
    os << -1e308;
    return;
  }
  os << v;
}

}  // namespace gnndse::obs::jsonu
