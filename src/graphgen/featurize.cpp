#include "graphgen/featurize.hpp"

#include <algorithm>
#include <cmath>

namespace gnndse::graphgen {

using dspace::SiteKind;
using hlssim::DesignConfig;
using hlssim::PipeMode;
using tensor::Tensor;

namespace {

constexpr std::int64_t kTypeOff = 0;       // 4
constexpr std::int64_t kKeyOff = 4;        // 25
constexpr std::int64_t kBlockOff = 29;     // 16
constexpr std::int64_t kFnOff = 45;        // 4
constexpr std::int64_t kDepthOff = 49;     // 8
constexpr std::int64_t kNumericOff = 57;   // 1
constexpr std::int64_t kPipeOff = 58;      // 3
constexpr std::int64_t kParOff = 61;       // 1
constexpr std::int64_t kTileOff = 62;      // 1
static_assert(kPipeOff == kPragmaSlotBegin && kTileOff + 1 == kPragmaSlotEnd);

float log2f_safe(double v) {
  return v <= 1.0 ? 0.0f : static_cast<float>(std::log2(v));
}

}  // namespace

Tensor node_features(const ProgramGraph& g, const dspace::DesignSpace& space,
                     const DesignConfig& cfg) {
  Tensor x = static_node_features(g, space);
  write_pragma_features(g, space, cfg, x, 0);
  return x;
}

Tensor static_node_features(const ProgramGraph& g,
                            const dspace::DesignSpace& space) {
  const auto& kernel = space.kernel();
  Tensor x({g.num_nodes(), kNodeFeatureDim});
  for (std::int64_t i = 0; i < g.num_nodes(); ++i) {
    const GraphNode& n = g.nodes[static_cast<std::size_t>(i)];
    x.at(i, kTypeOff + static_cast<int>(n.type)) = 1.0f;
    x.at(i, kKeyOff + static_cast<int>(n.key)) = 1.0f;
    x.at(i, kBlockOff + std::min(n.block, 15)) = 1.0f;
    x.at(i, kFnOff + std::min(n.function, 3)) = 1.0f;
    int depth = 0;
    if (n.block > 0) depth = kernel.loop_depth(n.block - 1) + 1;
    x.at(i, kDepthOff + std::min(depth, 7)) = 1.0f;
    x.at(i, kNumericOff) = n.numeric / 16.0f;
  }
  return x;
}

void write_pragma_features(const ProgramGraph& g,
                           const dspace::DesignSpace& space,
                           const DesignConfig& cfg, Tensor& x,
                           std::int64_t row_offset) {
  const auto& sites = space.sites();
  for (std::size_t s = 0; s < sites.size(); ++s) {
    const std::int64_t i = row_offset + g.pragma_nodes[s];
    // Clear the whole pragma block [kPipeOff..kTileOff] so reused buffers
    // carry no stale one-hots from a previous configuration.
    for (std::int64_t c = kPipeOff; c <= kTileOff; ++c) x.at(i, c) = 0.0f;
  }
  for (std::size_t s = 0; s < sites.size(); ++s) {
    const std::int64_t i = row_offset + g.pragma_nodes[s];
    const auto& lc = cfg.loops[static_cast<std::size_t>(sites[s].loop)];
    switch (sites[s].kind) {
      case SiteKind::kPipeline:
        x.at(i, kPipeOff + static_cast<int>(lc.pipeline)) = 1.0f;
        break;
      case SiteKind::kParallel:
        x.at(i, kParOff) =
            log2f_safe(static_cast<double>(lc.parallel)) / 8.0f;
        break;
      case SiteKind::kTile:
        x.at(i, kTileOff) = log2f_safe(static_cast<double>(lc.tile)) / 4.0f;
        break;
    }
  }
}

Tensor edge_features(const ProgramGraph& g) {
  Tensor e({g.num_edges(), kEdgeFeatureDim});
  for (std::int64_t i = 0; i < g.num_edges(); ++i) {
    const GraphEdge& ed = g.edges[static_cast<std::size_t>(i)];
    e.at(i, static_cast<int>(ed.flow)) = 1.0f;
    e.at(i, 4 + std::min(ed.position, 7)) = 1.0f;
  }
  return e;
}

Tensor pragma_vector(const dspace::DesignSpace& space, const DesignConfig& cfg,
                     int max_sites) {
  Tensor v({static_cast<std::int64_t>(max_sites) * kPragmaVectorPerSite});
  write_pragma_vector(space, cfg, max_sites, v.data());
  return v;
}

void write_pragma_vector(const dspace::DesignSpace& space,
                         const DesignConfig& cfg, int max_sites, float* row) {
  std::fill_n(row, static_cast<std::size_t>(max_sites) * kPragmaVectorPerSite,
              0.0f);
  const auto& sites = space.sites();
  for (std::size_t s = 0; s < sites.size() &&
                          s < static_cast<std::size_t>(max_sites);
       ++s) {
    const std::size_t base = s * static_cast<std::size_t>(kPragmaVectorPerSite);
    const auto& lc = cfg.loops[static_cast<std::size_t>(sites[s].loop)];
    switch (sites[s].kind) {
      case SiteKind::kPipeline:
        row[base + static_cast<std::size_t>(lc.pipeline)] = 1.0f;
        break;
      case SiteKind::kParallel:
        row[base + 3] = log2f_safe(static_cast<double>(lc.parallel)) / 8.0f;
        break;
      case SiteKind::kTile:
        row[base + 4] = log2f_safe(static_cast<double>(lc.tile)) / 4.0f;
        break;
    }
  }
}

}  // namespace gnndse::graphgen
