#include "dspace/design_space.hpp"

#include <algorithm>
#include <stdexcept>

namespace gnndse::dspace {

using hlssim::DesignConfig;
using hlssim::LoopConfig;
using hlssim::PipeMode;

DesignSpace::DesignSpace(const kir::Kernel& kernel) : kernel_(&kernel) {
  loop_sites_.resize(kernel.loops.size());
  for (std::size_t l = 0; l < kernel.loops.size(); ++l) {
    const kir::Loop& loop = kernel.loops[l];
    // Site order within a loop follows the position ids of §4.2:
    // 0 = tile, 1 = pipeline, 2 = parallel.
    if (loop.can_tile) {
      loop_sites_[l].push_back(static_cast<int>(sites_.size()));
      sites_.push_back(
          PragmaSite{static_cast<int>(l), SiteKind::kTile, loop.tile_options});
    }
    if (loop.can_pipeline) {
      loop_sites_[l].push_back(static_cast<int>(sites_.size()));
      sites_.push_back(
          PragmaSite{static_cast<int>(l), SiteKind::kPipeline, {0, 1, 2}});
    }
    if (loop.can_parallel) {
      loop_sites_[l].push_back(static_cast<int>(sites_.size()));
      sites_.push_back(PragmaSite{static_cast<int>(l), SiteKind::kParallel,
                                  loop.parallel_options});
    }
  }
  raw_size_ = 1;
  for (const PragmaSite& s : sites_) {
    raw_size_ *= static_cast<std::uint64_t>(s.options.size());
  }
  pruned_size_ = 1;
  std::uint64_t total = 1;
  for (int top : kernel.top_loops) total *= count_pruned(top, false);
  pruned_size_ = total;
}

std::uint64_t DesignSpace::count_pruned(int loop, bool forced_neutral) const {
  if (forced_neutral) return 1;  // everything below is pinned to neutral
  const kir::Loop& l = kernel_->loops[static_cast<std::size_t>(loop)];
  const std::uint64_t par =
      l.can_parallel ? static_cast<std::uint64_t>(l.parallel_options.size())
                     : 1;
  const std::uint64_t tile =
      l.can_tile ? static_cast<std::uint64_t>(l.tile_options.size()) : 1;

  std::uint64_t children_free = 1;
  for (int ch : l.children) children_free *= count_pruned(ch, false);

  std::uint64_t total;
  if (l.can_pipeline) {
    // off and cg leave children free; fg pins the whole subtree.
    total = par * tile * (2 * children_free + 1);
  } else {
    total = par * tile * children_free;
  }
  return total;
}

DesignConfig DesignSpace::decode(std::uint64_t index) const {
  if (index >= raw_size_) throw std::out_of_range("design index out of range");
  DesignConfig cfg = DesignConfig::neutral(*kernel_);
  for (const PragmaSite& s : sites_) {
    const std::uint64_t radix = s.options.size();
    apply_site(s, s.options[index % radix], cfg);
    index /= radix;
  }
  return cfg;
}

std::uint64_t DesignSpace::encode(const DesignConfig& cfg) const {
  std::uint64_t index = 0;
  std::uint64_t mult = 1;
  for (const PragmaSite& s : sites_) {
    const std::int64_t value = site_value(s, cfg);
    const auto it = std::find(s.options.begin(), s.options.end(), value);
    if (it == s.options.end())
      throw std::invalid_argument("config value not among site options");
    index += mult * static_cast<std::uint64_t>(it - s.options.begin());
    mult *= s.options.size();
  }
  return index;
}

bool DesignSpace::is_pruned(const DesignConfig& cfg) const {
  // Non-neutral pragma under an fg-pipelined ancestor => pruned duplicate.
  for (std::size_t l = 0; l < kernel_->loops.size(); ++l) {
    if (cfg.loops[l].pipeline != PipeMode::kFine) continue;
    for (int d : kernel_->subtree(static_cast<int>(l))) {
      if (d == static_cast<int>(l)) continue;
      const LoopConfig& dc = cfg.loops[static_cast<std::size_t>(d)];
      if (dc.pipeline != PipeMode::kOff || dc.parallel != 1 || dc.tile != 1)
        return true;
    }
  }
  return false;
}

void DesignSpace::for_each(
    const std::function<bool(DesignConfig&&)>& fn,
    std::uint64_t limit) const {
  std::uint64_t emitted = 0;
  for (std::uint64_t i = 0; i < raw_size_; ++i) {
    DesignConfig cfg = decode(i);
    if (is_pruned(cfg)) continue;
    if (!fn(std::move(cfg))) return;
    if (limit != 0 && ++emitted >= limit) return;
  }
}

DesignConfig DesignSpace::sample(util::Rng& rng) const {
  for (int attempt = 0; attempt < 4096; ++attempt) {
    DesignConfig cfg = decode(rng.uniform_int(raw_size_));
    if (!is_pruned(cfg)) return cfg;
  }
  // Pathologically pruned space: fall back to the neutral design.
  return DesignConfig::neutral(*kernel_);
}

std::vector<DesignConfig> DesignSpace::neighbors(
    const DesignConfig& cfg) const {
  std::vector<DesignConfig> out;
  for (const PragmaSite& s : sites_) {
    const std::int64_t value = site_value(s, cfg);
    const auto it = std::find(s.options.begin(), s.options.end(), value);
    if (it == s.options.end()) continue;
    const auto pos = it - s.options.begin();
    for (int delta : {-1, +1}) {
      const auto next = pos + delta;
      if (next < 0 || next >= static_cast<std::ptrdiff_t>(s.options.size()))
        continue;
      DesignConfig n = cfg;
      apply_site(s, s.options[static_cast<std::size_t>(next)], n);
      if (!is_pruned(n)) out.push_back(std::move(n));
    }
  }
  return out;
}

std::vector<int> priority_ordered_sites(const DesignSpace& space) {
  const auto& sites = space.sites();
  const auto& kernel = space.kernel();
  std::vector<int> order(sites.size());
  for (std::size_t i = 0; i < sites.size(); ++i) order[i] = static_cast<int>(i);

  auto kind_priority = [](SiteKind k) {
    switch (k) {
      case SiteKind::kParallel:
        return 0;
      case SiteKind::kPipeline:
        return 1;
      case SiteKind::kTile:
      default:
        return 2;
    }
  };
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    const int da = kernel.loop_depth(sites[static_cast<std::size_t>(a)].loop);
    const int db = kernel.loop_depth(sites[static_cast<std::size_t>(b)].loop);
    if (da != db) return da > db;  // innermost first
    return kind_priority(sites[static_cast<std::size_t>(a)].kind) <
           kind_priority(sites[static_cast<std::size_t>(b)].kind);
  });

  // Dependence rule: the parallel pragma of loop L depends on the pipeline
  // pragma of L's parent (fg pipelining subsumes inner parallelization) —
  // move that pipeline site up, directly before the dependent parallel.
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const auto& site = sites[static_cast<std::size_t>(order[pos])];
    if (site.kind != SiteKind::kParallel) continue;
    const int parent = kernel.loops[static_cast<std::size_t>(site.loop)].parent;
    if (parent == -1) continue;
    for (std::size_t later = pos + 1; later < order.size(); ++later) {
      const auto& other = sites[static_cast<std::size_t>(order[later])];
      if (other.loop == parent && other.kind == SiteKind::kPipeline) {
        const int moved = order[static_cast<std::size_t>(later)];
        order.erase(order.begin() + static_cast<std::ptrdiff_t>(later));
        order.insert(order.begin() + static_cast<std::ptrdiff_t>(pos), moved);
        ++pos;  // the parallel site shifted right by one
        break;
      }
    }
  }
  return order;
}

}  // namespace gnndse::dspace
