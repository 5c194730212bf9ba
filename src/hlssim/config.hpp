// Design-point configuration: one Merlin pragma assignment per loop.
//
// Mirrors the paper's pragma placeholders (§4.2):
//   #pragma ACCEL pipeline auto{...}        -> off | cg | fg
//   #pragma ACCEL parallel factor=auto{...} -> integer factor
//   #pragma ACCEL tile factor=auto{...}     -> integer factor
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kir/kernel.hpp"

namespace gnndse::hlssim {

enum class PipeMode : std::uint8_t { kOff = 0, kCoarse = 1, kFine = 2 };

const char* to_string(PipeMode m);

struct LoopConfig {
  PipeMode pipeline = PipeMode::kOff;
  std::int64_t parallel = 1;
  std::int64_t tile = 1;

  bool operator==(const LoopConfig&) const = default;
};

/// Pragma values for every loop of a kernel (indexed by loop id). Loops
/// without a given pragma site keep the neutral value (off / 1 / 1).
struct DesignConfig {
  std::vector<LoopConfig> loops;

  bool operator==(const DesignConfig&) const = default;

  /// Neutral (all pragmas off) configuration for a kernel.
  static DesignConfig neutral(const kir::Kernel& k) {
    DesignConfig c;
    c.loops.resize(k.loops.size());
    return c;
  }

  /// Compact key such as "L0:cg/4/1;L1:off/1/2" for hashing and CSV files.
  std::string key() const;
};

/// Parses a key produced by DesignConfig::key(). Throws
/// std::invalid_argument on malformed input: segment i must read
/// `L<i>:<off|cg|fg>/<parallel>/<tile>` with whole-integer factors >= 1.
DesignConfig parse_config_key(const std::string& key);

}  // namespace gnndse::hlssim
