// Design-space generator: enumerates the pragma configurations of a kernel
// (the paper's "Design Space Generator", Fig 2 & 3).
//
// Every loop contributes up to three pragma sites (tile, pipeline,
// parallel — position ids 0/1/2 as in §4.2). The space is the cross
// product of per-site options, reduced by AutoDSE's pruning rules: a
// fine-grained-pipelined loop fully unrolls its sub-loops, so
// configurations that set pragmas under an fg loop are duplicates and are
// pruned (§4.1, §4.4).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "hlssim/config.hpp"
#include "kir/kernel.hpp"
#include "util/rng.hpp"

namespace gnndse::dspace {

enum class SiteKind : int { kTile = 0, kPipeline = 1, kParallel = 2 };

struct PragmaSite {
  int loop = -1;
  SiteKind kind = SiteKind::kPipeline;
  /// Option values. Pipeline: 0=off, 1=cg, 2=fg. Parallel/tile: factors.
  std::vector<std::int64_t> options;
};

/// Sets `site`'s pragma in `cfg` to the option value `opt`.
inline void apply_site(const PragmaSite& site, std::int64_t opt,
                       hlssim::DesignConfig& cfg) {
  hlssim::LoopConfig& lc = cfg.loops[static_cast<std::size_t>(site.loop)];
  switch (site.kind) {
    case SiteKind::kTile:
      lc.tile = opt;
      break;
    case SiteKind::kPipeline:
      lc.pipeline = static_cast<hlssim::PipeMode>(opt);
      break;
    case SiteKind::kParallel:
      lc.parallel = opt;
      break;
  }
}

/// `site`'s option value in `cfg`.
inline std::int64_t site_value(const PragmaSite& site,
                               const hlssim::DesignConfig& cfg) {
  const hlssim::LoopConfig& lc =
      cfg.loops[static_cast<std::size_t>(site.loop)];
  switch (site.kind) {
    case SiteKind::kTile:
      return lc.tile;
    case SiteKind::kPipeline:
      return static_cast<std::int64_t>(lc.pipeline);
    case SiteKind::kParallel:
    default:
      return lc.parallel;
  }
}

class DesignSpace {
 public:
  explicit DesignSpace(const kir::Kernel& kernel);

  const kir::Kernel& kernel() const { return *kernel_; }
  const std::vector<PragmaSite>& sites() const { return sites_; }
  int num_sites() const { return static_cast<int>(sites_.size()); }

  /// Product of option counts (no pruning).
  std::uint64_t raw_size() const { return raw_size_; }

  /// Exact number of configurations surviving AutoDSE pruning, computed by
  /// dynamic programming over the loop tree (no enumeration).
  std::uint64_t pruned_size() const { return pruned_size_; }

  /// Decodes a mixed-radix index in [0, raw_size()) to a configuration.
  hlssim::DesignConfig decode(std::uint64_t index) const;

  /// Inverse of decode for configurations representable by the sites.
  std::uint64_t encode(const hlssim::DesignConfig& cfg) const;

  /// True when the configuration is removed by the pruning rules
  /// (non-neutral pragma under a fine-grained-pipelined ancestor).
  bool is_pruned(const hlssim::DesignConfig& cfg) const;

  /// Calls `fn` for every non-pruned configuration, moving each freshly
  /// decoded config into the visitor (no caller-side copy needed). The
  /// visitor returns true to continue and false to stop enumerating
  /// immediately — cooperative cancellation of a sweep must not pay for
  /// decoding the rest of a large space. Only sensible when raw_size() is
  /// small enough to sweep; `limit` stops early (0 = all).
  void for_each(const std::function<bool(hlssim::DesignConfig&&)>& fn,
                std::uint64_t limit = 0) const;

  /// Uniform random non-pruned configuration (rejection sampling).
  hlssim::DesignConfig sample(util::Rng& rng) const;

  /// Neighbors of a configuration: all configs differing in exactly one
  /// site by one option step (used by the hybrid explorer's local search).
  std::vector<hlssim::DesignConfig> neighbors(
      const hlssim::DesignConfig& cfg) const;

 private:
  std::uint64_t count_pruned(int loop, bool forced_neutral) const;

  const kir::Kernel* kernel_;
  std::vector<PragmaSite> sites_;
  std::vector<std::vector<int>> loop_sites_;  // loop id -> site indices
  std::uint64_t raw_size_ = 1;
  std::uint64_t pruned_size_ = 0;
};

/// Priority ordering of pragma sites for large-space DSE (paper §4.4):
/// BFS-like traversal starting from the innermost loops (deepest first);
/// within a loop level parallel > pipeline > tile; and a pragma that
/// depends on another (the parallel pragma of a loop depends on the
/// pipeline pragma of its parent, since fg pipelining subsumes it) pulls
/// that pragma up in the list. Returns site indices into sites().
std::vector<int> priority_ordered_sites(const DesignSpace& space);

}  // namespace gnndse::dspace
