// Featurization: program graph + design configuration -> initial node and
// edge embeddings (paper §4.3: "concatenating the one-hot encoding of their
// attributes and the pragma options", 124 initial node features).
//
// Node feature layout (kNodeFeatureDim = 124):
//   [0..3]    one-hot node type (instruction/variable/constant/pragma)
//   [4..28]   one-hot key_text (25 entries)
//   [29..44]  one-hot block id, capped at 15 (16 entries)
//   [45..48]  one-hot function id, capped at 3 (4 entries)
//   [49..56]  one-hot loop depth of the block, capped at 7 (8 entries)
//   [57]      numeric payload (log2 trip count / op count / dep latency),
//             scaled by 1/16
//   [58..60]  pragma pipeline option one-hot (off/cg/fg)   } zero for
//   [61]      log2(parallel factor) / 8                    } non-pragma
//   [62]      log2(tile factor) / 4                        } nodes
//   [63..123] reserved (zero) — keeps the width at the paper's 124
//
// Edge feature layout (kEdgeFeatureDim = 12):
//   [0..3]  one-hot flow (control/data/call/pragma)
//   [4..11] one-hot position, capped at 7
#pragma once

#include "graphgen/program_graph.hpp"
#include "hlssim/config.hpp"
#include "tensor/tensor.hpp"

namespace gnndse::graphgen {

inline constexpr std::int64_t kNodeFeatureDim = 124;
inline constexpr std::int64_t kEdgeFeatureDim = 12;
/// The pragma slots [58..62]: the only columns write_pragma_features
/// writes.
inline constexpr std::int64_t kPragmaSlotBegin = 58;
inline constexpr std::int64_t kPragmaSlotEnd = 63;

/// Node features for one design point. Only pragma-node rows vary across
/// configurations of the same kernel.
tensor::Tensor node_features(const ProgramGraph& g,
                             const dspace::DesignSpace& space,
                             const hlssim::DesignConfig& cfg);

/// Configuration-independent node features: everything node_features writes
/// except the pragma slots [58..62], which are left zero. Cached per kernel
/// by model::SampleFactory's GraphTemplate; combined with
/// write_pragma_features it reproduces node_features bit-for-bit.
tensor::Tensor static_node_features(const ProgramGraph& g,
                                    const dspace::DesignSpace& space);

/// Write the pragma-dependent feature slots of one configuration into `x`
/// at `row_offset` (the first row of this graph inside a stacked buffer).
/// Clears the pragma slot block of every pragma node first, so the buffer
/// can be reused across configurations without stale one-hots surviving.
void write_pragma_features(const ProgramGraph& g,
                           const dspace::DesignSpace& space,
                           const hlssim::DesignConfig& cfg, tensor::Tensor& x,
                           std::int64_t row_offset);

/// Edge features (configuration-independent).
tensor::Tensor edge_features(const ProgramGraph& g);

/// Flat pragma-only feature vector for the M1 baseline (Kwon et al. [7]:
/// an MLP over pragma settings alone, padded to `max_sites`).
/// Layout per site: [pipeline one-hot(3), log2(parallel)/8, log2(tile)/4].
tensor::Tensor pragma_vector(const dspace::DesignSpace& space,
                             const hlssim::DesignConfig& cfg, int max_sites);

inline constexpr int kPragmaVectorPerSite = 5;

/// Writes the pragma vector of one configuration into a preexisting row of
/// `max_sites * kPragmaVectorPerSite` floats (zeroed first, so the buffer
/// can be reused across configurations). pragma_vector delegates here.
void write_pragma_vector(const dspace::DesignSpace& space,
                         const hlssim::DesignConfig& cfg, int max_sites,
                         float* row);

}  // namespace gnndse::graphgen
