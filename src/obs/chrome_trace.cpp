#include "obs/chrome_trace.hpp"

#include <fstream>

#include "obs/json_util.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace gnndse::obs {

namespace {

using jsonu::append_number;
using jsonu::quoted;

/// One metadata event ("ph":"M") naming a process or thread row.
void append_metadata(std::ostringstream& os, const char* what,
                     std::int64_t tid, const std::string& name) {
  os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid << ",\"name\":\"" << what
     << "\",\"args\":{\"name\":";
  os << quoted(name);
  os << "}}";
}

}  // namespace

std::string chrome_trace_json(const std::string& process_name) {
  std::ostringstream os;
  os.precision(9);
  os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"tool\":";
  os << quoted(process_name);
  os << ",\"trace_epoch_unix_us\":" << trace_epoch_unix_us()
     << ",\"spans_dropped\":" << trace_spans_dropped()
     << "},\"traceEvents\":[";

  append_metadata(os, "process_name", 0, process_name);
  for (const ThreadName& t : thread_names()) {
    os << ',';
    append_metadata(os, "thread_name", t.tid, t.name);
  }

  for (const SpanRecord& s : trace_snapshot()) {
    os << ",{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid << ",\"name\":";
    os << quoted(s.name);
    os << ",\"cat\":\"gnndse\",\"ts\":" << s.start_unix_us << ",\"dur\":";
    // Complete events carry duration in microseconds. Spans still open at
    // export time (only possible outside ReportSession, which closes the
    // root first) render with zero duration and an open marker.
    append_number(os, s.open ? 0.0 : s.duration_ms * 1e3);
    os << ",\"args\":{";
    bool first = true;
    if (s.open) {
      os << "\"open\":true";
      first = false;
    }
    for (const auto& [k, v] : s.counters) {
      if (!first) os << ',';
      first = false;
      os << quoted(k);
      os << ':';
      append_number(os, v);
    }
    os << "}}";
  }
  os << "]}";
  return os.str();
}

bool write_chrome_trace(const std::string& path,
                        const std::string& process_name) {
  std::ofstream out(path);
  if (!out) {
    util::log_warn("obs: cannot open trace path ", path);
    return false;
  }
  out << chrome_trace_json(process_name) << '\n';
  if (!out.good()) {
    util::log_warn("obs: short write to trace path ", path);
    return false;
  }
  return true;
}

}  // namespace gnndse::obs
