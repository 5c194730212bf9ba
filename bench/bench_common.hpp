// Shared setup for the experiment benches: deterministic initial database,
// scale-dependent pipeline options, and the weight cache location.
//
// Scales (see util/env.hpp): GNNDSE_FAST=1 for smoke runs, default for a
// laptop-friendly reproduction, GNNDSE_FULL=1 for the configuration closest
// to the paper.
#pragma once

#include <fstream>
#include <string>
#include <thread>

#include "db/explorer.hpp"
#include "dse/pipeline.hpp"
#include "oracle/stack.hpp"
#include "kernels/kernels.hpp"
#include "kernels/registry.hpp"
#include "obs/report.hpp"
#include "util/cpu.hpp"
#include "util/env.hpp"
#include "util/logging.hpp"

#ifndef GNNDSE_BENCH_COMMIT
#define GNNDSE_BENCH_COMMIT "unknown"
#endif

namespace gnndse::bench {

/// Telemetry session shared by every bench binary: when GNNDSE_REPORT names
/// a path, metrics/span recording is enabled, the root `pipeline` span is
/// opened, and a JSON run report is written there on exit. The session also
/// serves as the binary's run stopwatch (session.seconds()), replacing the
/// bare util::Timer the benches used to carry.
inline obs::ReportSession make_report_session(const std::string& tool) {
  return obs::ReportSession(tool, util::env_str(obs::kReportEnvVar));
}

inline constexpr std::uint64_t kDbSeed = 42;

/// Deterministic initial database over the nine training kernels (§4.1,
/// Table 1 budgets). DSE rounds and fallback batches re-evaluate repeated
/// configs; the oracle's cache turns those into oracle.hits.
/// Microbenchmarks that time the evaluator itself should construct their
/// own raw hlssim::MerlinHls instead.
inline db::Database make_initial_database(oracle::Evaluator& oracle) {
  util::Rng rng(kDbSeed);
  return db::generate_initial_database(kernels::make_training_kernels(),
                                       oracle, rng);
}

/// Training scale for the shared (cached) model bundle.
inline dse::PipelineOptions scaled_pipeline_options() {
  dse::PipelineOptions po;
  po.main_epochs = util::by_scale(6, 30, 60);
  po.bram_epochs = util::by_scale(3, 12, 25);
  po.classifier_epochs = util::by_scale(3, 12, 25);
  po.hidden = util::by_scale<std::int64_t>(32, 64, 64);
  po.batch_size = 32;
  return po;
}

inline const char* scale_tag() {
  switch (util::run_scale()) {
    case util::RunScale::kFast:
      return "fast";
    case util::RunScale::kFull:
      return "full";
    case util::RunScale::kDefault:
      break;
  }
  return "default";
}

/// CPU model string from /proc/cpuinfo ("unknown" where there is none).
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon != std::string::npos && colon + 2 <= line.size())
      return line.substr(colon + 2);
  }
  return "unknown";
}

/// The `host` block every BENCH_*.json carries: CPU model, cores, active
/// SIMD level, the source commit the build was configured from, and the
/// run scale.
inline std::string host_json() {
  std::string cpu;
  for (char c : cpu_model())
    if (c != '"' && c != '\\') cpu += c;
  return "{\"cpu\": \"" + cpu + "\", \"cores\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"simd\": \"" +
         util::simd_level_name(util::active_simd_level()) +
         "\", \"commit\": \"" GNNDSE_BENCH_COMMIT "\", \"scale\": \"" +
         scale_tag() + "\"}";
}

/// Weight-cache prefix shared by the benches that use the standard bundle.
inline std::string bundle_cache_prefix() {
  return std::string("gnndse_bundle_") + scale_tag();
}

}  // namespace gnndse::bench
