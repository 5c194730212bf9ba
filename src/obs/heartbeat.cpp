#include "obs/heartbeat.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "obs/json_util.hpp"
#include "obs/metrics.hpp"
#include "util/logging.hpp"

namespace gnndse::obs {

namespace {

using jsonu::append_number;
using jsonu::quoted;

std::int64_t unix_millis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::int64_t counter_value(const std::vector<CounterSnapshot>& counters,
                           const char* name) {
  for (const auto& c : counters)
    if (c.name == name) return c.value;
  return 0;
}

double gauge_value(const std::vector<GaugeSnapshot>& gauges,
                   const char* name) {
  for (const auto& g : gauges)
    if (g.name == name) return g.value;
  return 0.0;
}

}  // namespace

HeartbeatSampler::HeartbeatSampler(std::string path, double interval_ms)
    : path_(std::move(path)),
      interval_ms_(std::max(interval_ms, 10.0)),
      out_(path_, std::ios::app) {
  if (!out_) {
    util::log_warn("obs: cannot open heartbeat path ", path_);
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    return;
  }
  thread_ = std::thread([this] { run(); });
}

HeartbeatSampler::~HeartbeatSampler() { stop(); }

void HeartbeatSampler::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      // Already stopped (or never started) — just make sure the thread is
      // reaped when stop() raced the constructor's inert path.
      if (thread_.joinable()) thread_.join();
      return;
    }
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  // Final sample after the thread is gone: captures the end-of-run state
  // and guarantees >= 2 samples even for sub-interval runs.
  write_sample();
  out_.flush();
}

std::int64_t HeartbeatSampler::samples_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seq_;
}

void HeartbeatSampler::run() {
  write_sample();  // t = 0 snapshot
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    cv_.wait_for(lock,
                 std::chrono::duration<double, std::milli>(interval_ms_),
                 [this] { return stop_; });
    if (stop_) break;
    lock.unlock();
    write_sample();
    lock.lock();
  }
}

void HeartbeatSampler::write_sample() {
  const std::vector<CounterSnapshot> counters = counters_snapshot();
  const std::vector<GaugeSnapshot> gauges = gauges_snapshot();

  std::lock_guard<std::mutex> lock(mu_);
  double elapsed = timer_.millis();
  // elapsed_ms is the stream's monotonicity key; guard against two samples
  // landing inside clock resolution.
  if (elapsed <= last_elapsed_ms_) elapsed = last_elapsed_ms_ + 1e-3;

  std::ostringstream os;
  os.precision(9);
  os << "{\"schema\":\"gnndse.heartbeat.v1\",\"seq\":" << seq_
     << ",\"elapsed_ms\":";
  append_number(os, elapsed);
  os << ",\"unix_ms\":" << unix_millis();

  os << ",\"counters\":{";
  bool first = true;
  for (const auto& c : counters) {
    if (!first) os << ',';
    first = false;
    os << quoted(c.name);
    os << ':' << c.value;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& g : gauges) {
    if (!first) os << ',';
    first = false;
    os << quoted(g.name);
    os << ':';
    append_number(os, g.value);
  }
  os << "}";

  // Derived rates: throughput since the previous sample, cumulative oracle
  // hit ratio, and the DSE search's remaining-budget estimate.
  const std::int64_t configs = counter_value(counters, "dse.configs_explored");
  const std::int64_t evals = counter_value(counters, "hlssim.evaluations");
  const double dt_s = (elapsed - prev_elapsed_ms_) / 1e3;
  os << ",\"rates\":{\"dse.configs_per_sec\":";
  append_number(os, dt_s > 0 ? static_cast<double>(configs - prev_configs_) /
                                   dt_s
                             : 0.0);
  os << ",\"hlssim.evaluations_per_sec\":";
  append_number(
      os, dt_s > 0 ? static_cast<double>(evals - prev_evals_) / dt_s : 0.0);
  const std::int64_t hits = counter_value(counters, "oracle.hits");
  const std::int64_t misses = counter_value(counters, "oracle.misses");
  os << ",\"oracle.hit_ratio\":";
  append_number(os, hits + misses > 0
                        ? static_cast<double>(hits) /
                              static_cast<double>(hits + misses)
                        : 0.0);
  const double limit = gauge_value(gauges, "dse.time_limit_seconds");
  if (limit > 0.0) {
    const double search_elapsed =
        gauge_value(gauges, "dse.search_elapsed_seconds");
    os << ",\"eta_seconds\":";
    append_number(os, std::max(0.0, limit - search_elapsed));
  }
  os << "}}";

  out_ << os.str() << '\n';
  out_.flush();
  prev_elapsed_ms_ = elapsed;
  prev_configs_ = configs;
  prev_evals_ = evals;
  last_elapsed_ms_ = elapsed;
  ++seq_;
}

}  // namespace gnndse::obs
