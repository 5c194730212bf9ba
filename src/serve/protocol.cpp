#include "serve/protocol.hpp"

#include <cstdio>
#include <set>
#include <stdexcept>

#include "frontend/json_value.hpp"
#include "frontend/kernel_json.hpp"
#include "obs/json_util.hpp"

namespace gnndse::serve {

using obs::jsonu::quoted;

namespace {

using frontend::json::Value;

[[noreturn]] void fail(const std::string& msg) {
  throw std::runtime_error("serve request: " + msg);
}

const Value& require(const Value& root, const std::string& key,
                     Value::Type type, const char* what) {
  const Value* v = root.find(key);
  if (!v) fail("missing required key '" + key + "'");
  if (v->type != type)
    fail("key '" + key + "' must be " + what + " (line " +
         std::to_string(v->line) + ")");
  return *v;
}

std::string get_string(const Value& root, const std::string& key,
                       const std::string& fallback) {
  const Value* v = root.find(key);
  if (!v) return fallback;
  if (v->type != Value::Type::kString)
    fail("key '" + key + "' must be a string (line " +
         std::to_string(v->line) + ")");
  return v->str;
}

std::int64_t get_int(const Value& root, const std::string& key,
                     std::int64_t fallback) {
  const Value* v = root.find(key);
  if (!v) return fallback;
  if (v->type != Value::Type::kInt)
    fail("key '" + key + "' must be an integer (line " +
         std::to_string(v->line) + ")");
  return v->num;
}

double get_number(const Value& root, const std::string& key, double fallback) {
  const Value* v = root.find(key);
  if (!v) return fallback;
  if (v->type != Value::Type::kInt && v->type != Value::Type::kDouble)
    fail("key '" + key + "' must be a number (line " +
         std::to_string(v->line) + ")");
  return v->as_double();
}

bool get_bool(const Value& root, const std::string& key, bool fallback) {
  const Value* v = root.find(key);
  if (!v) return fallback;
  if (v->type != Value::Type::kBool)
    fail("key '" + key + "' must be a boolean (line " +
         std::to_string(v->line) + ")");
  return v->boolean;
}

/// Unknown keys are protocol errors — a typoed "time_limi" should fail
/// loudly, not silently run with the default.
void check_keys(const Value& root, const std::set<std::string>& allowed) {
  for (const auto& [key, value] : root.object) {
    if (!allowed.count(key))
      fail("unknown key '" + key + "' (line " + std::to_string(value.line) +
           ")");
  }
}

/// Cache namespaces become file names (cache_dir/<client>.csv), so the
/// charset is restricted to names that cannot escape the directory.
void check_client(const std::string& client) {
  if (client.empty()) return;
  if (client[0] == '.') fail("client name must not start with '.'");
  if (client.size() > 64) fail("client name too long (max 64)");
  for (char c : client) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.';
    if (!ok) fail("client name may only contain [A-Za-z0-9_.-]");
  }
}

}  // namespace

Request parse_request(const std::string& line) {
  Value root;
  try {
    root = frontend::json::parse_value(line, "serve request");
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(e.what());
  }
  if (root.type != Value::Type::kObject)
    fail("request must be a JSON object");

  Request req;
  const std::string kind =
      require(root, "kind", Value::Type::kString, "a string").str;
  req.id = get_int(root, "id", -1);

  if (kind == "predict") {
    check_keys(root, {"kind", "id", "client", "kernel", "config"});
    req.kind = Request::Kind::kPredict;
    req.kernel = frontend::kernel_from_json_value(
        require(root, "kernel", Value::Type::kObject, "an object"));
    const std::string key = get_string(root, "config", "");
    try {
      req.config = key.empty() ? hlssim::DesignConfig::neutral(req.kernel)
                               : hlssim::parse_config_key(key);
    } catch (const std::exception& e) {
      fail(std::string("bad config key: ") + e.what());
    }
    if (req.config.loops.size() != req.kernel.loops.size())
      fail("config has " + std::to_string(req.config.loops.size()) +
           " loops but kernel '" + req.kernel.name + "' has " +
           std::to_string(req.kernel.loops.size()));
  } else if (kind == "sweep") {
    check_keys(root,
               {"kind", "id", "client", "kernel", "time_limit", "top_m",
                "evaluate"});
    req.kind = Request::Kind::kSweep;
    req.kernel = frontend::kernel_from_json_value(
        require(root, "kernel", Value::Type::kObject, "an object"));
    req.time_limit = get_number(root, "time_limit", 0.0);
    if (req.time_limit < 0.0) fail("time_limit must be >= 0");
    req.top_m = static_cast<int>(get_int(root, "top_m", 0));
    if (req.top_m < 0) fail("top_m must be >= 0");
    req.evaluate = get_bool(root, "evaluate", false);
  } else if (kind == "poll" || kind == "cancel") {
    check_keys(root, {"kind", "id", "job"});
    req.kind =
        kind == "poll" ? Request::Kind::kPoll : Request::Kind::kCancel;
    req.job = require(root, "job", Value::Type::kString, "a string").str;
    if (req.job.empty()) fail("job id must be non-empty");
  } else if (kind == "admin") {
    check_keys(root, {"kind", "id", "op", "weights"});
    req.kind = Request::Kind::kAdmin;
    req.op = require(root, "op", Value::Type::kString, "a string").str;
    if (req.op != "reload-model" && req.op != "stats" && req.op != "drain")
      fail("unknown admin op '" + req.op +
           "' (expected reload-model, stats, or drain)");
    req.weights = get_string(root, "weights", "");
  } else {
    fail("unknown kind '" + kind +
         "' (expected predict, sweep, poll, cancel, or admin)");
  }

  req.client = get_string(root, "client", "");
  check_client(req.client);
  return req;
}

std::string float_str(float v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", static_cast<double>(v));
  return buf;
}

std::string double_str(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string error_line(std::int64_t id, const std::string& message) {
  std::string out = "{";
  if (id >= 0) out += "\"id\":" + std::to_string(id) + ",";
  out += "\"ok\":false,\"error\":" + quoted(message) + "}";
  return out;
}

std::string ok_head(std::int64_t id) {
  std::string out = "{";
  if (id >= 0) out += "\"id\":" + std::to_string(id) + ",";
  out += "\"ok\":true";
  return out;
}

std::string predicted_fields(const std::array<float, model::kNumObjectives>& p,
                             float p_valid) {
  std::string out = "\"predicted\":{";
  for (int i = 0; i < model::kNumObjectives; ++i) {
    if (i) out += ",";
    out += quoted(model::objective_name(i)) + ":" + float_str(p[i]);
  }
  out += "},\"p_valid\":" + float_str(p_valid);
  return out;
}

}  // namespace gnndse::serve
