// Per-kernel SIMD dispatch telemetry.
//
// Each dispatched kernel resolves one of these as a function-local static;
// level() reads the active dispatch level, bumps the matching
// `simd.<kernel>.<level>` counter (one increment per kernel call, not per
// element), and refreshes the `tensor.simd_level` gauge so a report taken
// after obs::reset_all() still shows the live level. With telemetry
// disabled the cost is the counters' single relaxed-flag check.
//
//   static obs::SimdDispatch dispatch("residual_concat");
//   const util::SimdLevel lvl = dispatch.level();
//   ... switch kernel variant on lvl ...
#pragma once

#include <string>

#include "obs/metrics.hpp"
#include "util/cpu.hpp"

namespace gnndse::obs {

class SimdDispatch {
 public:
  explicit SimdDispatch(const char* kernel)
      : counters_{
            &counter(std::string("simd.") + kernel + ".scalar"),
            &counter(std::string("simd.") + kernel + ".avx2"),
            &counter(std::string("simd.") + kernel + ".avx512"),
        },
        gauge_(&gauge("tensor.simd_level")) {}

  util::SimdLevel level() {
    const util::SimdLevel l = util::active_simd_level();
    add(*counters_[static_cast<int>(l)]);
    set(*gauge_, static_cast<double>(util::simd_level_width(l)));
    return l;
  }

 private:
  Counter* counters_[3];
  Gauge* gauge_;
};

}  // namespace gnndse::obs
