// Runtime-dispatched variants (scalar / AVX2 / AVX-512) of the fused
// inference kernels in infer.cpp.
//
// Every function computes the exact per-element expressions of the scalar
// loop it replaces, in the exact same order. Vectorization only ever
// crosses *independent* rows/edges/columns:
//   * the per-edge reduction (edge_attention_scores) loads 8 edges' rows
//     and transposes their products in registers so each lane holds one
//     edge — each lane's additions stay in ascending-j order, so the bits
//     match the scalar loop no matter how edges are split across lanes,
//     blocks, or threads;
//   * order-sensitive cross-row accumulation (weighted_scatter_add's
//     colliding destinations) stays serial over edges and vectorizes only
//     the per-edge column sweep (disjoint writes);
//   * multiplies and adds round separately at every level — no FMA
//     contraction anywhere (this TU and infer.cpp are built with
//     -ffp-contract=off, and the vector bodies use separate mul/add).
// Remainder rows/edges/columns always run the scalar code. Pointers may be
// arbitrarily unaligned (row views); all vector loads are unaligned-safe.
//
// The `begin`/`end` pairs are row or edge ranges so infer.cpp can fan the
// helpers out across the thread pool; the dispatch level is resolved once
// per op call (obs/simd_counters.hpp) and passed into every chunk.
//
// residual_concat, gated_mix and weighted_scatter_add have AVX-512 bodies
// (wide contiguous column sweeps). edge_attention_scores and
// segment_softmax_normalize run their AVX2 body at the avx512 level: they
// are bound by per-edge row loads or gathers, which 16 lanes do not speed
// up (docs/performance.md has the measurements).
#pragma once

#include <cstdint>

#include "util/cpu.hpp"

namespace gnndse::gnn::simd {

using util::SimdLevel;

/// orow = [ r | m | r - m ] for rows [begin, end), where row i reads r row
/// rrow[i] (rrow = nullptr: row i); op row stride is 3c.
void residual_concat_range(SimdLevel level, const float* rp,
                           const std::int32_t* rrow, const float* mp,
                           float* op, std::int64_t c, std::int64_t begin,
                           std::int64_t end);

/// op[i*c + j] = mp[i*c + j] + bp[i] * dp[i*3c + j] for rows [begin, end)
/// (dp points at the difference block of a residual_concat result).
void gated_mix_range(SimdLevel level, const float* mp, const float* bp,
                     const float* dp, float* op, std::int64_t c,
                     std::int64_t begin, std::int64_t end);

/// op[e] = (sum_j qp[qrow[e]*d + j] * (kp[src[e]*d + j] + ep[x*d + j])) *
/// scale for edges [begin, end), ascending j, where x = eid[e] (eid =
/// nullptr: x = e).
void edge_attention_scores_range(SimdLevel level, const float* qp,
                                 const float* kp, const float* ep,
                                 const std::int32_t* src,
                                 const std::int32_t* qrow,
                                 const std::int32_t* eid, std::int64_t d,
                                 float scale, float* op, std::int64_t begin,
                                 std::int64_t end);

/// op[dst[e]*c + j] += alpha[e] * (vp[src[e]*c + j] + ep[x*c + j])
/// serially in ascending e over ALL edges [0, num_edges) — colliding
/// destinations accumulate in edge order, which defines the result bits.
/// x = eid[e] (eid = nullptr: x = e).
void weighted_scatter_add_edges(SimdLevel level, const float* alpha,
                                const float* vp, const float* ep,
                                const std::int32_t* src,
                                const std::int32_t* dst,
                                const std::int32_t* eid, std::int64_t c,
                                float* op, std::int64_t num_edges);

/// op[i] = seg_sum[seg[i]] > 0 ? op[i] / seg_sum[seg[i]] : 0 for
/// [begin, end) — the in-place normalize pass of segment_softmax.
void segment_softmax_normalize(SimdLevel level, const float* seg_sum,
                               const std::int32_t* seg, float* op,
                               std::int64_t begin, std::int64_t end);

}  // namespace gnndse::gnn::simd
