// bench_e2e — the repository's end-to-end benchmark: model-driven DSE
// sweeps, beam DSE, the serve daemon under load, and training, all on one
// pinned model bundle (README.md in this directory).
//
//   bench_e2e prepare --cache DIR [--smoke]
//   bench_e2e run --workload W --seed N --seconds S --trace 0|1
//                 --cache DIR --out DIR --gnndse PATH --benchmark FILE
//                 [--source-id ID] [--smoke]
//   bench_e2e smoke --cache DIR --out DIR --gnndse PATH --benchmark FILE
//
// `run` prints a summary and, as its last stdout line, one JSON object with
// the keys correct/attempted/failed/metrics, where metrics are exactly the
// BENCHMARK.json metrics of the run's mode (end_to_end untraced, per_layer
// traced). The full result, with the host block, goes to DIR/result.json.
// A failed check makes the run exit 1; `smoke` runs every workload at a
// tiny size in both modes and checks that every metric is reported.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "cli/args.hpp"
#include "e2e.hpp"
#include "frontend/json_value.hpp"
#include "obs/metrics.hpp"
#include "util/cpu.hpp"
#include "util/parallel.hpp"

#ifndef BENCH_E2E_BUILD_TYPE
#define BENCH_E2E_BUILD_TYPE "unknown"
#endif

using namespace gnndse;
using namespace gnndse::bench_e2e;

namespace {

namespace json = frontend::json;

const char* const kWorkloads[] = {"dse_exhaustive", "dse_heuristic",
                                  "serve_predict", "train"};

struct MetricSpec {
  std::string name, unit;
};

/// The metric lists of BENCHMARK.json: end_to_end and per_layer.
struct Spec {
  std::vector<MetricSpec> end_to_end, per_layer;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Spec read_spec(const std::string& path) {
  const json::Value root = json::parse_value(read_file(path), path);
  Spec s;
  auto list = [&](const char* key, std::vector<MetricSpec>& out) {
    const json::Value* v = root.find(key);
    if (!v || v->type != json::Value::Type::kArray)
      throw std::runtime_error(path + ": missing array '" + key + "'");
    for (const json::Value& m : v->array) {
      const json::Value* name = m.find("name");
      const json::Value* unit = m.find("unit");
      if (!name || !unit)
        throw std::runtime_error(path + ": metric without name or unit");
      out.push_back({name->str, unit->str});
    }
  };
  list("end_to_end", s.end_to_end);
  list("per_layer", s.per_layer);
  return s;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::map<std::string, Result::Value>& m) {
  std::string out = "{";
  for (const auto& [name, v] : m) {
    if (out.size() > 1) out += ",";
    out += quote(name) + ":{\"value\":" + num(v.value) +
           ",\"unit\":" + quote(v.unit) + "}";
  }
  return out + "}";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

/// Machine facts that must match for two results to be comparable.
std::string host_json() {
  return "{\"cpu_model\":" + quote(cpu_model()) + ",\"nproc\":" +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"simd\":" + quote(util::simd_level_name(util::detect_simd_level())) +
         ",\"pool_lanes\":" + std::to_string(util::parallel_threads()) + "}";
}

/// Keeps exactly the metrics `wanted` names; a missing metric, a unit that
/// disagrees with BENCHMARK.json, or a non-finite value fails the run.
std::map<std::string, Result::Value> select(Result& r,
                                            const std::vector<MetricSpec>& wanted) {
  std::map<std::string, Result::Value> out;
  for (const MetricSpec& m : wanted) {
    auto it = r.metrics.find(m.name);
    if (it == r.metrics.end()) {
      r.op(false, "metric " + m.name + " was not measured");
      continue;
    }
    if (it->second.unit != m.unit || !std::isfinite(it->second.value))
      r.op(false, "metric " + m.name + " has unit '" + it->second.unit +
                      "' or a non-finite value");
    out[m.name] = it->second;
  }
  return out;
}

Result run_workload(const Options& opts) {
  const BundleSpec spec = pinned_spec(opts.smoke);
  Result r;
  if (opts.workload == "dse_exhaustive" || opts.workload == "dse_heuristic")
    run_dse(opts, spec, opts.workload == "dse_heuristic", r);
  else if (opts.workload == "serve_predict")
    run_serve(opts, spec, r);
  else if (opts.workload == "train")
    run_train(opts, spec, r);
  else
    throw std::invalid_argument("unknown workload '" + opts.workload + "'");
  return r;
}

/// Runs one workload and writes DIR/result.json; returns the contract line.
std::string run_and_report(const Options& opts, const Spec& spec,
                           bool* correct) {
  std::filesystem::create_directories(opts.out_dir);
  obs::reset_all();
  obs::set_enabled(false);
  Result r = run_workload(opts);
  const auto chosen = select(r, opts.trace ? spec.per_layer : spec.end_to_end);
  *correct = r.failed == 0;

  std::string inputs = "{\"workload\":" + quote(opts.workload) +
                       ",\"seed\":" + std::to_string(opts.seed) +
                       ",\"seconds\":" + num(opts.seconds) +
                       ",\"trace\":" + (opts.trace ? "1" : "0") +
                       ",\"smoke\":" + (opts.smoke ? "true" : "false");
  for (const auto& [k, v] : r.inputs) {
    inputs += ',';
    inputs += quote(k);
    inputs += ':';
    inputs += quote(v);
  }
  inputs += '}';
  std::string failures = "[";
  for (const auto& f : r.failures) {
    if (failures.size() > 1) failures += ',';
    failures += quote(f);
  }
  failures += ']';
  std::ofstream(opts.out_dir + "/result.json")
      << "{\"host\":" << host_json() << ",\"build\":{\"source_id\":"
      << quote(opts.source_id) << ",\"build_type\":"
      << quote(BENCH_E2E_BUILD_TYPE) << "},\"inputs\":" << inputs
      << ",\"correct\":" << (*correct ? "true" : "false")
      << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
      << ",\"failures\":" << failures << ",\"metrics\":"
      << metrics_json(r.metrics) << ",\"detail\":" << metrics_json(r.detail)
      << "}\n";

  for (const auto& [name, v] : r.metrics)
    std::printf("  %-40s %14.6g %s\n", name.c_str(), v.value, v.unit.c_str());
  for (const auto& [name, v] : r.detail)
    std::printf("  %-40s %14.6g %s  (detail)\n", name.c_str(), v.value,
                v.unit.c_str());
  for (const auto& f : r.failures) std::printf("  FAILED: %s\n", f.c_str());
  return "{\"correct\":" + std::string(*correct ? "true" : "false") +
         ",\"attempted\":" + std::to_string(r.attempted) +
         ",\"failed\":" + std::to_string(r.failed) +
         ",\"metrics\":" + metrics_json(chosen) + "}";
}

Options options_from(const cli::Args& args) {
  Options o;
  o.workload = args.get("workload", "");
  o.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  o.seconds = args.get_double("seconds", 10.0);
  o.trace = args.get_int("trace", 0) != 0;
  o.smoke = args.has("smoke");
  o.cache_dir = args.get("cache", "");
  o.out_dir = args.get("out", "");
  o.gnndse = args.get("gnndse", "");
  o.source_id = args.get("source-id", "unknown");
  if (o.cache_dir.empty() || o.out_dir.empty() || o.gnndse.empty())
    throw std::invalid_argument("--cache, --out and --gnndse are required");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

int cmd_prepare(const cli::Args& args) {
  const std::string cache = args.get("cache", "");
  if (cache.empty()) throw std::invalid_argument("--cache DIR is required");
  const double secs = prepare_bundle(pinned_spec(args.has("smoke")), cache);
  std::printf("prepare_s %.3f%s\n", secs, secs == 0.0 ? " (cached)" : "");
  return 0;
}

int cmd_run(const cli::Args& args) {
  const Options opts = options_from(args);
  const Spec spec = read_spec(args.get("benchmark", "BENCHMARK.json"));
  bool correct = false;
  const std::string line = run_and_report(opts, spec, &correct);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int cmd_smoke(const cli::Args& args) {
  Options base = options_from(args);
  base.smoke = true;
  base.seconds = 1.0;
  const Spec spec = read_spec(args.get("benchmark", "BENCHMARK.json"));
  prepare_bundle(pinned_spec(true), base.cache_dir);
  bool all_ok = true;
  for (const char* w : kWorkloads)
    for (bool trace : {false, true}) {
      Options o = base;
      o.workload = w;
      o.trace = trace;
      o.out_dir = base.out_dir + "/" + w + (trace ? "-trace" : "");
      bool correct = false;
      const std::string line = run_and_report(o, spec, &correct);
      std::printf("smoke %s trace=%d: %s\n%s\n", w, trace ? 1 : 0,
                  correct ? "ok" : "FAILED", line.c_str());
      all_ok = all_ok && correct;
    }
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  cli::Args args(argc, argv);
  if (args.positional().empty()) {
    std::fprintf(stderr, "usage: bench_e2e <prepare|run|smoke> [options]\n"
                         "  see the header of bench/e2e/main.cpp\n");
    return 2;
  }
  const std::string& cmd = args.positional()[0];
  try {
    if (cmd == "prepare") return cmd_prepare(args);
    if (cmd == "run") return cmd_run(args);
    if (cmd == "smoke") return cmd_smoke(args);
    std::fprintf(stderr, "bench_e2e: unknown command '%s'\n", cmd.c_str());
    return 2;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bench_e2e %s: %s\n", cmd.c_str(), e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
