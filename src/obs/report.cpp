#include "obs/report.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "obs/chrome_trace.hpp"
#include "obs/heartbeat.hpp"
#include "obs/json_util.hpp"
#include "obs/metrics.hpp"
#include "util/logging.hpp"

namespace gnndse::obs {

namespace {

using jsonu::append_number;
using jsonu::quoted;

void append_span(std::ostringstream& os, const std::vector<SpanRecord>& spans,
                 const std::vector<std::vector<std::int64_t>>& children,
                 std::int64_t id) {
  const SpanRecord& s = spans[static_cast<std::size_t>(id)];
  os << "{\"name\":";
  os << quoted(s.name);
  os << ",\"tid\":" << s.tid << ",\"start_ms\":";
  append_number(os, s.start_ms);
  os << ",\"duration_ms\":";
  append_number(os, s.duration_ms);
  if (s.open) os << ",\"open\":true";
  if (!s.counters.empty()) {
    os << ",\"counters\":{";
    bool first = true;
    for (const auto& [k, v] : s.counters) {
      if (!first) os << ',';
      first = false;
      os << quoted(k);
      os << ':';
      append_number(os, v);
    }
    os << '}';
  }
  os << ",\"children\":[";
  bool first = true;
  for (std::int64_t ch : children[static_cast<std::size_t>(id)]) {
    if (!first) os << ',';
    first = false;
    append_span(os, spans, children, ch);
  }
  os << "]}";
}

/// Path from `explicit_path`, else from `env_var`, else empty.
std::string resolve_path(std::string explicit_path, const char* env_var) {
  if (!explicit_path.empty()) return explicit_path;
  const char* env = std::getenv(env_var);
  if (env != nullptr && *env != '\0') return env;
  return {};
}

double heartbeat_interval_ms() {
  const char* env = std::getenv(kHeartbeatIntervalEnvVar);
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    const double v = std::strtod(env, &end);
    if (end != env && v > 0.0) return v;
    util::log_warn("obs: ignoring invalid ", kHeartbeatIntervalEnvVar, "=",
                   env);
  }
  return kHeartbeatDefaultIntervalMs;
}

}  // namespace

std::string report_json(const std::string& tool, double elapsed_seconds) {
  std::ostringstream os;
  os.precision(9);
  // v2: spans carry "tid" (trace-local thread id) so report consumers can
  // distinguish pool-side work from the submitting thread.
  os << "{\"schema_version\":2,\"tool\":";
  os << quoted(tool);
  os << ",\"elapsed_seconds\":";
  append_number(os, elapsed_seconds);

  os << ",\"counters\":{";
  bool first = true;
  for (const auto& c : counters_snapshot()) {
    if (!first) os << ',';
    first = false;
    os << quoted(c.name);
    os << ':' << c.value;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& g : gauges_snapshot()) {
    if (!first) os << ',';
    first = false;
    os << quoted(g.name);
    os << ':';
    append_number(os, g.value);
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& h : histograms_snapshot()) {
    if (!first) os << ',';
    first = false;
    os << quoted(h.name);
    os << ":{\"count\":" << h.count << ",\"sum_ms\":";
    append_number(os, h.sum);
    os << ",\"min_ms\":";
    append_number(os, h.min);
    os << ",\"max_ms\":";
    append_number(os, h.max);
    os << ",\"p50_ms\":";
    append_number(os, h.p50);
    os << ",\"p95_ms\":";
    append_number(os, h.p95);
    os << ",\"buckets\":[";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i) os << ',';
      os << "{\"le_ms\":";
      if (i + 1 < h.buckets.size())
        append_number(os, Histogram::bucket_bound(static_cast<int>(i)));
      else
        os << "\"inf\"";
      os << ",\"count\":" << h.buckets[i] << '}';
    }
    os << "]}";
  }

  os << "},\"spans\":[";
  const std::vector<SpanRecord> spans = trace_snapshot();
  std::vector<std::vector<std::int64_t>> children(spans.size());
  std::vector<std::int64_t> roots;
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0 && s.parent < static_cast<std::int64_t>(spans.size()))
      children[static_cast<std::size_t>(s.parent)].push_back(s.id);
    else
      roots.push_back(s.id);
  }
  first = true;
  for (std::int64_t r : roots) {
    if (!first) os << ',';
    first = false;
    append_span(os, spans, children, r);
  }
  os << "]}";
  return os.str();
}

bool write_report(const std::string& path, const std::string& tool,
                  double elapsed_seconds) {
  std::ofstream out(path);
  if (!out) {
    util::log_warn("obs: cannot open report path ", path);
    return false;
  }
  out << report_json(tool, elapsed_seconds) << '\n';
  if (!out.good()) {
    util::log_warn("obs: short write to report path ", path);
    return false;
  }
  return true;
}

ReportSession::ReportSession(std::string tool, std::string report_path,
                             std::string trace_path,
                             std::string heartbeat_path)
    : tool_(std::move(tool)),
      report_path_(resolve_path(std::move(report_path), kReportEnvVar)),
      trace_path_(resolve_path(std::move(trace_path), kTraceEnvVar)),
      heartbeat_path_(
          resolve_path(std::move(heartbeat_path), kHeartbeatEnvVar)) {
  active_ =
      !(report_path_.empty() && trace_path_.empty() && heartbeat_path_.empty());
  if (!active_) return;
  set_enabled(true);
  set_thread_name("main");
  root_.emplace("pipeline");
  if (!heartbeat_path_.empty())
    heartbeat_ = std::make_unique<HeartbeatSampler>(heartbeat_path_,
                                                    heartbeat_interval_ms());
}

ReportSession::~ReportSession() {
  if (!active_) return;
  // Order matters: stop the sampler (its final NDJSON line captures the
  // end-of-run registry), close the root span so the exporters see it with
  // a real duration, then render the report and trace.
  if (heartbeat_ != nullptr) {
    heartbeat_->stop();
    util::log_info("obs: heartbeat stream written to ", heartbeat_path_);
  }
  root_.reset();
  if (!report_path_.empty() &&
      write_report(report_path_, tool_, timer_.seconds()))
    util::log_info("obs: run report written to ", report_path_);
  if (!trace_path_.empty() && write_chrome_trace(trace_path_, tool_))
    util::log_info("obs: chrome trace written to ", trace_path_);
}

}  // namespace gnndse::obs
