// Telemetry subsystem: counter/gauge/histogram math (percentile edges,
// empty histogram), span nesting and ordering, JSON round-trip of a run
// report, thread-safety of the registry, and the zero-cost-disabled gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/chrome_trace.hpp"
#include "obs/heartbeat.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace gnndse {
namespace {

/// Re-arms telemetry for each test and restores the disabled default.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::reset_all();
    obs::set_enabled(true);
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::reset_all();
  }
};

// ---------------------------------------------------------------------------
// A minimal recursive-descent JSON parser — enough to round-trip a report.
// ---------------------------------------------------------------------------

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<Json> arr;
  std::map<std::string, Json> obj;

  const Json& at(const std::string& key) const {
    auto it = obj.find(key);
    if (it == obj.end()) throw std::runtime_error("missing key: " + key);
    return it->second;
  }
  bool has(const std::string& key) const { return obj.count(key) > 0; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& s) : s_(s) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (pos_ != s_.size()) throw std::runtime_error("trailing garbage");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) throw std::runtime_error("unexpected end");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c)
      throw std::runtime_error(std::string("expected ") + c + " got " +
                               s_[pos_]);
    ++pos_;
  }
  Json value() {
    switch (peek()) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string_value();
      case 't':
      case 'f':
        return boolean();
      default:
        return number();
    }
  }
  Json object() {
    Json v;
    v.kind = Json::Kind::kObject;
    expect('{');
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      Json key = string_value();
      expect(':');
      v.obj[key.str] = value();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }
  Json array() {
    Json v;
    v.kind = Json::Kind::kArray;
    expect('[');
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.arr.push_back(value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }
  Json string_value() {
    Json v;
    v.kind = Json::Kind::kString;
    expect('"');
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\' && pos_ < s_.size()) {
        char e = s_[pos_++];
        c = e == 'n' ? '\n' : e;
      }
      v.str.push_back(c);
    }
    if (pos_ >= s_.size()) throw std::runtime_error("unterminated string");
    ++pos_;  // closing quote
    return v;
  }
  Json boolean() {
    Json v;
    v.kind = Json::Kind::kBool;
    if (s_.compare(pos_, 4, "true") == 0) {
      v.b = true;
      pos_ += 4;
    } else if (s_.compare(pos_, 5, "false") == 0) {
      v.b = false;
      pos_ += 5;
    } else {
      throw std::runtime_error("bad literal");
    }
    return v;
  }
  Json number() {
    Json v;
    v.kind = Json::Kind::kNumber;
    std::size_t end = pos_;
    while (end < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[end])) ||
            s_[end] == '-' || s_[end] == '+' || s_[end] == '.' ||
            s_[end] == 'e' || s_[end] == 'E'))
      ++end;
    if (end == pos_) throw std::runtime_error("bad number");
    v.num = std::stod(s_.substr(pos_, end - pos_));
    pos_ = end;
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Counters and gauges.
// ---------------------------------------------------------------------------

TEST_F(ObsTest, CounterAccumulatesAndResets) {
  obs::Counter& c = obs::counter("test.counter");
  EXPECT_EQ(c.value(), 0);
  obs::add(c);
  obs::add(c, 41);
  EXPECT_EQ(c.value(), 42);
  obs::reset_all();
  EXPECT_EQ(c.value(), 0);
  // The handle survives reset: same metric, still registered.
  obs::add(c, 7);
  EXPECT_EQ(obs::counter("test.counter").value(), 7);
}

TEST_F(ObsTest, DisabledRecordingIsDropped) {
  obs::Counter& c = obs::counter("test.disabled");
  obs::set_enabled(false);
  obs::add(c, 5);
  EXPECT_EQ(c.value(), 0);
  obs::set_enabled(true);
  obs::add(c, 5);
  EXPECT_EQ(c.value(), 5);
}

TEST_F(ObsTest, GaugeIsLastWriteWins) {
  obs::Gauge& g = obs::gauge("test.gauge");
  obs::set(g, 1.5);
  obs::set(g, -2.5);
  EXPECT_DOUBLE_EQ(g.value(), -2.5);
}

TEST_F(ObsTest, TwoThreadsHammeringOneCounterIsExact) {
  obs::Counter& c = obs::counter("test.mt_counter");
  constexpr int kPerThread = 200'000;
  auto hammer = [&c] {
    for (int i = 0; i < kPerThread; ++i) obs::add(c);
  };
  std::thread a(hammer), b(hammer);
  a.join();
  b.join();
  EXPECT_EQ(c.value(), 2 * kPerThread);
}

// ---------------------------------------------------------------------------
// Histogram math.
// ---------------------------------------------------------------------------

TEST_F(ObsTest, EmptyHistogramReportsZeros) {
  obs::Histogram& h = obs::histogram("test.empty_hist");
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.95), 0.0);
}

TEST_F(ObsTest, HistogramStatsAndPercentiles) {
  obs::Histogram& h = obs::histogram("test.hist");
  // 100 observations: 1..100 ms.
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  EXPECT_EQ(h.count(), 100);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
  // Bucket-resolution estimates: p50 of 1..100 lands in the (32,64] bucket,
  // p95 in the (64,128] bucket (clamped to the observed max of 100).
  EXPECT_GE(h.percentile(0.5), 50.0);
  EXPECT_LE(h.percentile(0.5), 64.0);
  EXPECT_GE(h.percentile(0.95), 95.0);
  EXPECT_LE(h.percentile(0.95), 100.0);
  // Edges: p0 is the first non-empty bucket's bound, p100 the exact max.
  EXPECT_GT(h.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 100.0);
}

TEST_F(ObsTest, HistogramSingleObservationPercentileEdges) {
  obs::Histogram& h = obs::histogram("test.hist_one");
  h.observe(3.0);
  // Every percentile of one observation clamps to that observation.
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 3.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 3.0);
  EXPECT_DOUBLE_EQ(h.min(), 3.0);
  EXPECT_DOUBLE_EQ(h.max(), 3.0);
}

TEST_F(ObsTest, HistogramOverflowBucketAndNegativeClamp) {
  obs::Histogram& h = obs::histogram("test.hist_edge");
  h.observe(-5.0);  // clamped to 0 -> first bucket
  h.observe(1e9);   // far beyond the last finite bound -> overflow bucket
  EXPECT_EQ(h.count(), 2);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
  auto buckets = h.bucket_counts();
  EXPECT_EQ(buckets.front(), 1);
  EXPECT_EQ(buckets.back(), 1);
  // The overflow percentile reports the observed max, not a bucket bound.
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 1e9);
}

TEST_F(ObsTest, HistogramConcurrentObservationsKeepExactCount) {
  obs::Histogram& h = obs::histogram("test.hist_mt");
  constexpr int kPerThread = 50'000;
  auto hammer = [&h] {
    for (int i = 0; i < kPerThread; ++i)
      h.observe(static_cast<double>(i % 7));
  };
  std::thread a(hammer), b(hammer);
  a.join();
  b.join();
  EXPECT_EQ(h.count(), 2 * kPerThread);
  std::int64_t bucket_total = 0;
  for (std::int64_t n : h.bucket_counts()) bucket_total += n;
  EXPECT_EQ(bucket_total, 2 * kPerThread);
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

TEST_F(ObsTest, SpansNestAndRecordInStartOrder) {
  {
    obs::ScopedSpan outer("outer");
    {
      obs::ScopedSpan first("first");
      first.add("key", 2.0);
      first.add("key", 3.0);
    }
    { obs::ScopedSpan second("second"); }
    outer.add("done", 1.0);
  }
  { obs::ScopedSpan sibling("sibling"); }

  auto spans = obs::trace_snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[1].name, "first");
  EXPECT_EQ(spans[2].name, "second");
  EXPECT_EQ(spans[3].name, "sibling");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[2].parent, spans[0].id);
  EXPECT_EQ(spans[3].parent, -1);
  for (const auto& s : spans) EXPECT_FALSE(s.open);
  // Children start within the parent and cannot outlive it.
  EXPECT_GE(spans[1].start_ms, spans[0].start_ms);
  EXPECT_LE(spans[1].duration_ms, spans[0].duration_ms);
  // Attached counters accumulate per key.
  ASSERT_EQ(spans[1].counters.size(), 1u);
  EXPECT_EQ(spans[1].counters[0].first, "key");
  EXPECT_DOUBLE_EQ(spans[1].counters[0].second, 5.0);
}

TEST_F(ObsTest, DisabledSpansStillTimeButDoNotRecord) {
  obs::set_enabled(false);
  obs::ScopedSpan span("invisible");
  EXPECT_GE(span.seconds(), 0.0);  // the stopwatch works regardless
  EXPECT_TRUE(obs::trace_snapshot().empty());
}

// ---------------------------------------------------------------------------
// Report JSON round-trip.
// ---------------------------------------------------------------------------

TEST_F(ObsTest, ReportJsonRoundTrips) {
  obs::add(obs::counter("rt.counter"), 42);
  obs::set(obs::gauge("rt.gauge"), 2.75);
  obs::Histogram& h = obs::histogram("rt.hist");
  h.observe(1.0);
  h.observe(2.0);
  h.observe(4.0);
  {
    obs::ScopedSpan root("pipeline");
    obs::ScopedSpan child("train");
    child.add("epochs", 3.0);
  }

  const std::string json = obs::report_json("test_obs", 1.25);
  Json doc = JsonParser(json).parse();

  EXPECT_EQ(doc.at("schema_version").num, 2.0);
  EXPECT_EQ(doc.at("tool").str, "test_obs");
  EXPECT_DOUBLE_EQ(doc.at("elapsed_seconds").num, 1.25);
  EXPECT_EQ(doc.at("counters").at("rt.counter").num, 42.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("rt.gauge").num, 2.75);

  const Json& hist = doc.at("histograms").at("rt.hist");
  EXPECT_EQ(hist.at("count").num, 3.0);
  EXPECT_DOUBLE_EQ(hist.at("sum_ms").num, 7.0);
  EXPECT_DOUBLE_EQ(hist.at("min_ms").num, 1.0);
  EXPECT_DOUBLE_EQ(hist.at("max_ms").num, 4.0);
  std::int64_t bucket_total = 0;
  for (const Json& b : hist.at("buckets").arr)
    bucket_total += static_cast<std::int64_t>(b.at("count").num);
  EXPECT_EQ(bucket_total, 3);

  ASSERT_EQ(doc.at("spans").arr.size(), 1u);
  const Json& root = doc.at("spans").arr[0];
  EXPECT_EQ(root.at("name").str, "pipeline");
  // v2: every span names the thread that recorded it.
  EXPECT_GE(root.at("tid").num, 0.0);
  ASSERT_EQ(root.at("children").arr.size(), 1u);
  const Json& child = root.at("children").arr[0];
  EXPECT_EQ(child.at("name").str, "train");
  EXPECT_GE(child.at("tid").num, 0.0);
  EXPECT_DOUBLE_EQ(child.at("counters").at("epochs").num, 3.0);
  EXPECT_TRUE(child.at("children").arr.empty());
  EXPECT_GE(child.at("duration_ms").num, 0.0);
}

TEST_F(ObsTest, ReportEscapesStrings) {
  obs::add(obs::counter("weird\"name\\with\nnewline"), 1);
  const std::string json = obs::report_json("tool \"quoted\"", 0.0);
  Json doc = JsonParser(json).parse();
  EXPECT_EQ(doc.at("tool").str, "tool \"quoted\"");
  EXPECT_EQ(doc.at("counters").at("weird\"name\\with\nnewline").num, 1.0);
}

// A verb typed on the command line lands in "tool" verbatim: control
// characters must come out escaped, never as raw bytes JSON forbids.
TEST_F(ObsTest, ReportEscapesControlCharacters) {
  const std::string json = obs::report_json("li\tst\x01", 0.0);
  EXPECT_NE(json.find("\"tool\":\"li\\tst\\u0001\""), std::string::npos)
      << json;
  EXPECT_TRUE(std::none_of(json.begin(), json.end(), [](char c) {
    return static_cast<unsigned char>(c) < 0x20;
  })) << json;
}

TEST_F(ObsTest, ReportSessionWritesFileAndClosesRootSpan) {
  const std::string path = ::testing::TempDir() + "/obs_session_report.json";
  obs::set_enabled(false);  // the session flips it on itself
  {
    obs::ReportSession session("test_tool", path);
    ASSERT_TRUE(session.active());
    EXPECT_TRUE(obs::enabled());
    obs::ScopedSpan work("work");
    obs::add(obs::counter("session.counter"), 9);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  Json doc = JsonParser(json).parse();
  EXPECT_EQ(doc.at("tool").str, "test_tool");
  ASSERT_EQ(doc.at("spans").arr.size(), 1u);
  EXPECT_EQ(doc.at("spans").arr[0].at("name").str, "pipeline");
  EXPECT_FALSE(doc.at("spans").arr[0].has("open"));
  EXPECT_EQ(doc.at("spans").arr[0].at("children").arr[0].at("name").str,
            "work");
  EXPECT_EQ(doc.at("counters").at("session.counter").num, 9.0);
}

TEST_F(ObsTest, InactiveReportSessionDoesNothing) {
  obs::set_enabled(false);
  obs::ReportSession session("noop", "");
  // No GNNDSE_REPORT in the test environment and no explicit path.
  if (!session.active()) {
    EXPECT_FALSE(obs::enabled());
    EXPECT_TRUE(obs::trace_snapshot().empty());
  }
}

// ---------------------------------------------------------------------------
// Cross-thread span context and thread identity.
// ---------------------------------------------------------------------------

TEST_F(ObsTest, SpanContextAdoptsAndRestoresParent) {
  EXPECT_EQ(obs::current_span_id(), -1);
  obs::ScopedSpan outer("outer");
  const std::int64_t outer_id = obs::current_span_id();
  ASSERT_GE(outer_id, 0);
  {
    obs::SpanContext ctx(-1);  // detach: next span is root-level
    EXPECT_EQ(obs::current_span_id(), -1);
    obs::ScopedSpan detached("detached");
  }
  EXPECT_EQ(obs::current_span_id(), outer_id);  // restored
  auto spans = obs::trace_snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].name, "detached");
  EXPECT_EQ(spans[1].parent, -1);
}

TEST_F(ObsTest, SpanContextParentsSpansAcrossThreads) {
  std::int64_t outer_id = -1;
  {
    obs::ScopedSpan outer("outer");
    outer_id = obs::current_span_id();
    std::thread worker([outer_id] {
      obs::SpanContext ctx(outer_id);
      obs::ScopedSpan child("remote_child");
    });
    worker.join();
  }
  auto spans = obs::trace_snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].name, "remote_child");
  EXPECT_EQ(spans[1].parent, outer_id);
  EXPECT_NE(spans[1].tid, spans[0].tid);
}

TEST_F(ObsTest, SpanCapacityDropsExcessAndCounts) {
  obs::set_trace_capacity(2);
  { obs::ScopedSpan a("a"); }
  { obs::ScopedSpan b("b"); }
  { obs::ScopedSpan c("c"); }  // beyond capacity: dropped, not recorded
  EXPECT_EQ(obs::trace_snapshot().size(), 2u);
  EXPECT_EQ(obs::trace_spans_dropped(), 1);
  obs::clear_trace();
  EXPECT_EQ(obs::trace_spans_dropped(), 0);
  obs::set_trace_capacity(131072);  // restore the default for later tests
}

// ---------------------------------------------------------------------------
// Chrome-trace export.
// ---------------------------------------------------------------------------

TEST_F(ObsTest, ChromeTraceExportsValidEventsWithThreadNames) {
  obs::set_thread_name("main");
  {
    obs::ScopedSpan outer("outer");
    outer.add("items", 7.0);
    obs::ScopedSpan inner("inner");
  }
  std::thread t([] {
    obs::set_thread_name("helper");
    obs::ScopedSpan span("helper_work");
  });
  t.join();

  const std::string json = obs::chrome_trace_json("test_obs");
  Json doc = JsonParser(json).parse();
  EXPECT_EQ(doc.at("displayTimeUnit").str, "ms");
  const double epoch = doc.at("otherData").at("trace_epoch_unix_us").num;
  EXPECT_GT(epoch, 0.0);

  int n_process = 0, n_complete = 0;
  bool saw_main = false, saw_helper = false, saw_helper_event = false;
  std::int64_t helper_tid = -1;
  for (const Json& ev : doc.at("traceEvents").arr) {
    const std::string& ph = ev.at("ph").str;
    if (ph == "M") {
      if (ev.at("name").str == "process_name") {
        ++n_process;
        EXPECT_EQ(ev.at("args").at("name").str, "test_obs");
      } else if (ev.at("name").str == "thread_name") {
        const std::string& name = ev.at("args").at("name").str;
        if (name == "main") saw_main = true;
        if (name == "helper") {
          saw_helper = true;
          helper_tid = static_cast<std::int64_t>(ev.at("tid").num);
        }
      }
    } else {
      ++n_complete;
      EXPECT_EQ(ph, "X");
      EXPECT_GE(ev.at("ts").num, epoch);  // absolute microseconds
      EXPECT_GE(ev.at("dur").num, 0.0);
      if (ev.at("name").str == "helper_work") {
        saw_helper_event = true;
        EXPECT_EQ(static_cast<std::int64_t>(ev.at("tid").num), helper_tid);
      }
      if (ev.at("name").str == "outer") {
        EXPECT_DOUBLE_EQ(ev.at("args").at("items").num, 7.0);
      }
    }
  }
  EXPECT_EQ(n_process, 1);
  EXPECT_EQ(n_complete, 3);
  EXPECT_TRUE(saw_main);
  EXPECT_TRUE(saw_helper);
  EXPECT_TRUE(saw_helper_event);
}

// ---------------------------------------------------------------------------
// Heartbeat sampler.
// ---------------------------------------------------------------------------

std::vector<Json> read_heartbeat(const std::string& path) {
  std::ifstream in(path);
  std::vector<Json> samples;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) samples.push_back(JsonParser(line).parse());
  return samples;
}

TEST_F(ObsTest, HeartbeatWritesMonotonicSamples) {
  const std::string path = ::testing::TempDir() + "/obs_heartbeat_mono.ndjson";
  std::remove(path.c_str());
  obs::add(obs::counter("hb.work"), 1);
  {
    obs::HeartbeatSampler sampler(path, 20.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(70));
    obs::add(obs::counter("hb.work"), 5);
    sampler.stop();
    EXPECT_GE(sampler.samples_written(), 2);
    sampler.stop();  // idempotent
  }
  auto samples = read_heartbeat(path);
  ASSERT_GE(samples.size(), 2u);
  double prev_elapsed = -1.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Json& s = samples[i];
    EXPECT_EQ(s.at("schema").str, "gnndse.heartbeat.v1");
    EXPECT_EQ(s.at("seq").num, static_cast<double>(i));
    EXPECT_GT(s.at("elapsed_ms").num, prev_elapsed);
    prev_elapsed = s.at("elapsed_ms").num;
    EXPECT_TRUE(s.at("rates").has("oracle.hit_ratio"));
  }
  // The final (stop-time) sample sees the post-start counter bumps.
  EXPECT_EQ(samples.back().at("counters").at("hb.work").num, 6.0);
}

TEST_F(ObsTest, HeartbeatSubIntervalRunStillEmitsTwoSamples) {
  const std::string path = ::testing::TempDir() + "/obs_heartbeat_short.ndjson";
  std::remove(path.c_str());
  {
    // Interval far longer than the sampler's lifetime: the immediate
    // first sample plus the final stop-time sample must still land.
    obs::HeartbeatSampler sampler(path, 60'000.0);
  }
  EXPECT_EQ(read_heartbeat(path).size(), 2u);
}

TEST_F(ObsTest, HeartbeatStartStopRacesCleanlyWithMetricWrites) {
  const std::string path = ::testing::TempDir() + "/obs_heartbeat_race.ndjson";
  std::remove(path.c_str());
  obs::Counter& c = obs::counter("hb.race_counter");
  obs::Histogram& h = obs::histogram("hb.race_hist");
  std::atomic<bool> done{false};
  std::thread writer([&] {
    while (!done.load(std::memory_order_relaxed)) {
      obs::add(c);
      obs::observe(h, 1.0);
    }
  });
  {
    obs::HeartbeatSampler sampler(path, 10.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }  // destructor stops mid-hammer
  done.store(true, std::memory_order_relaxed);
  writer.join();
  auto samples = read_heartbeat(path);
  ASSERT_GE(samples.size(), 2u);
  // Counters are monotonic across samples even under concurrent writes.
  double prev = -1.0;
  for (const Json& s : samples) {
    const double v = s.at("counters").at("hb.race_counter").num;
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST_F(ObsTest, HistogramObserveRacesSnapshotCleanly) {
  obs::Histogram& h = obs::histogram("race.hist");
  constexpr int kPerThread = 20'000;
  auto hammer = [&h] {
    for (int i = 0; i < kPerThread; ++i)
      h.observe(static_cast<double>(i % 100));
  };
  std::thread a(hammer), b(hammer);
  // Snapshot concurrently with the writers: totals may lag but must never
  // tear (every snapshot internally consistent, counts non-decreasing).
  std::int64_t prev_count = 0;
  for (int i = 0; i < 50; ++i) {
    for (const auto& snap : obs::histograms_snapshot()) {
      if (snap.name != "race.hist") continue;
      EXPECT_GE(snap.count, prev_count);
      prev_count = snap.count;
    }
  }
  a.join();
  b.join();
  EXPECT_EQ(h.count(), 2 * kPerThread);
}

}  // namespace
}  // namespace gnndse
