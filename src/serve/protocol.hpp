// Wire protocol of the serve daemon: line-delimited JSON, one request per
// line in, one response per line out, paired in order per connection.
//
// Request kinds (docs/serving.md has the full reference):
//   {"kind":"predict","kernel":{...},"config":"L0:cg/4/1;..."?,
//    "client":"name"?,"id":N?}
//   {"kind":"sweep","kernel":{...},"time_limit":S?,"top_m":M?,
//    "evaluate":true?,"client":"name"?,"id":N?}
//   {"kind":"poll","job":"job-1","id":N?}
//   {"kind":"cancel","job":"job-1","id":N?}
//   {"kind":"admin","op":"reload-model"|"stats"|"drain","weights":PREFIX?,
//    "id":N?}
//
// Kernels ride along as the same JSON object `gnndse eval --kernels`
// accepts (frontend/kernel_json); configs use DesignConfig::key() strings.
// Responses are single-line JSON objects with "ok" plus the request's "id"
// echoed back when one was given. Floats are rendered with %.9g — enough
// digits to round-trip float32, so a client can compare predictions across
// daemons (or against a direct in-process run) bit-for-bit.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "hlssim/config.hpp"
#include "kir/kernel.hpp"
#include "model/normalizer.hpp"

namespace gnndse::serve {

struct Request {
  enum class Kind { kPredict, kSweep, kPoll, kCancel, kAdmin };

  Kind kind = Kind::kPredict;
  /// Client-chosen correlation id, echoed in the response; -1 = absent.
  std::int64_t id = -1;
  /// Cache namespace for oracle results ([A-Za-z0-9_.-], no leading dot);
  /// empty = the daemon's default namespace.
  std::string client;

  // predict / sweep
  kir::Kernel kernel;
  hlssim::DesignConfig config;  // predict; neutral when "config" is absent
  double time_limit = 0.0;      // sweep; 0 = server default
  int top_m = 0;                // sweep; 0 = server default
  bool evaluate = false;        // sweep: run the oracle on the top designs

  // poll / cancel
  std::string job;

  // admin
  std::string op;
  std::string weights;  // reload-model: new <prefix>.{main,bram,cls}.bin
};

/// Parses one request line. Throws std::runtime_error with a line-numbered
/// message on malformed JSON, unknown kinds/keys, or invalid field values.
Request parse_request(const std::string& line);

/// Shortest decimal that round-trips a float32 (%.9g) / float64 (%.17g).
std::string float_str(float v);
std::string double_str(double v);

/// {"id":N,"ok":false,"error":"..."} (id omitted when -1).
std::string error_line(std::int64_t id, const std::string& message);

/// Prefix `{"id":N,"ok":true` (id omitted when -1) for response builders
/// to append fields onto.
std::string ok_head(std::int64_t id);

/// `"predicted":{"latency":...,...},"p_valid":...` — shared by the daemon's
/// predict responses and `gnndse predict`, so the two are string-comparable.
std::string predicted_fields(const std::array<float, model::kNumObjectives>& p,
                             float p_valid);

}  // namespace gnndse::serve
