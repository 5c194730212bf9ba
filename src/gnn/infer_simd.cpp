// Fused-kernel SIMD variants. Baseline-flag TU (portable binary); the
// AVX2/AVX-512 bodies opt into their ISA via per-function target
// attributes. FMA is never enabled in any variant: the scalar kernels
// round each multiply and add separately (-ffp-contract=off, matching the
// tape's op-by-op arithmetic), and the vector bodies use separate
// mul/add so every level produces identical bits.
#include "gnn/infer_simd.hpp"

#include "util/simd_transpose.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define GNNDSE_X86 1
#endif

namespace gnndse::gnn::simd {
namespace {

// ---------------------------------------------------------------------------
// Scalar bodies — verbatim the loops infer.cpp ran before dispatch existed;
// these define the reference bits and handle every remainder.
// ---------------------------------------------------------------------------

void residual_concat_scalar(const float* rp, const float* mp, float* op,
                            std::int64_t c, std::int64_t begin,
                            std::int64_t end) {
  for (std::int64_t i = begin; i < end; ++i) {
    float* orow = op + i * 3 * c;
    for (std::int64_t j = 0; j < c; ++j) {
      const float rv = rp[i * c + j], mv = mp[i * c + j];
      orow[j] = rv;
      orow[c + j] = mv;
      orow[2 * c + j] = rv - mv;
    }
  }
}

void gated_mix_scalar(const float* mp, const float* bp, const float* dp,
                      float* op, std::int64_t c, std::int64_t begin,
                      std::int64_t end) {
  for (std::int64_t i = begin; i < end; ++i) {
    const float s = bp[i];
    for (std::int64_t j = 0; j < c; ++j)
      op[i * c + j] = mp[i * c + j] + s * dp[i * 3 * c + j];
  }
}

void edge_attention_scores_scalar(const float* qp, const float* kp,
                                  const float* ep, const std::int32_t* src,
                                  const std::int32_t* dst, std::int64_t d,
                                  float scale, float* op, std::int64_t begin,
                                  std::int64_t end) {
  for (std::int64_t i = begin; i < end; ++i) {
    const float* qrow =
        qp + static_cast<std::int64_t>(dst[static_cast<std::size_t>(i)]) * d;
    const float* krow =
        kp + static_cast<std::int64_t>(src[static_cast<std::size_t>(i)]) * d;
    const float* erow = ep + i * d;
    float acc = 0.0f;
    for (std::int64_t j = 0; j < d; ++j) acc += qrow[j] * (krow[j] + erow[j]);
    op[i] = acc * scale;
  }
}

void edge_pair_scores_scalar(const float* ap, const float* bp,
                             const std::int32_t* src, const std::int32_t* dst,
                             float s, float* op, std::int64_t begin,
                             std::int64_t end) {
  for (std::int64_t i = begin; i < end; ++i) {
    const float x = ap[src[static_cast<std::size_t>(i)]] +
                    bp[dst[static_cast<std::size_t>(i)]];
    op[i] = x > 0 ? x : s * x;
  }
}

void weighted_scatter_add_scalar(const float* alpha, const float* vp,
                                 const float* ep, const std::int32_t* src,
                                 const std::int32_t* dst, std::int64_t c,
                                 float* op, std::int64_t num_edges) {
  for (std::int64_t i = 0; i < num_edges; ++i) {
    const float s = alpha[i];
    const float* vrow = vp + static_cast<std::int64_t>(src[i]) * c;
    float* drow = op + static_cast<std::int64_t>(dst[i]) * c;
    if (ep) {
      const float* erow = ep + i * c;
      for (std::int64_t j = 0; j < c; ++j) drow[j] += s * (vrow[j] + erow[j]);
    } else {
      for (std::int64_t j = 0; j < c; ++j) drow[j] += s * vrow[j];
    }
  }
}

void segment_softmax_normalize_scalar(const float* seg_sum,
                                      const std::int32_t* seg, float* op,
                                      std::int64_t begin, std::int64_t end) {
  for (std::int64_t i = begin; i < end; ++i) {
    const float denom = seg_sum[seg[static_cast<std::size_t>(i)]];
    op[i] = denom > 0 ? op[i] / denom : 0.0f;
  }
}

#ifdef GNNDSE_X86

// ---------------------------------------------------------------------------
// AVX2 bodies. The lanes hold 8 independent columns, edges or rows; each
// lane's arithmetic replays the scalar order exactly.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) void residual_concat_avx2(
    const float* rp, const float* mp, float* op, std::int64_t c,
    std::int64_t begin, std::int64_t end) {
  for (std::int64_t i = begin; i < end; ++i) {
    const float* rrow = rp + i * c;
    const float* mrow = mp + i * c;
    float* orow = op + i * 3 * c;
    std::int64_t j = 0;
    for (; j + 8 <= c; j += 8) {
      const __m256 rv = _mm256_loadu_ps(rrow + j);
      const __m256 mv = _mm256_loadu_ps(mrow + j);
      _mm256_storeu_ps(orow + j, rv);
      _mm256_storeu_ps(orow + c + j, mv);
      _mm256_storeu_ps(orow + 2 * c + j, _mm256_sub_ps(rv, mv));
    }
    for (; j < c; ++j) {
      const float rv = rrow[j], mv = mrow[j];
      orow[j] = rv;
      orow[c + j] = mv;
      orow[2 * c + j] = rv - mv;
    }
  }
}

__attribute__((target("avx2"))) void gated_mix_avx2(
    const float* mp, const float* bp, const float* dp, float* op,
    std::int64_t c, std::int64_t begin, std::int64_t end) {
  for (std::int64_t i = begin; i < end; ++i) {
    const float s = bp[i];
    const __m256 sv = _mm256_set1_ps(s);
    const float* mrow = mp + i * c;
    const float* drow = dp + i * 3 * c;
    float* orow = op + i * c;
    std::int64_t j = 0;
    for (; j + 8 <= c; j += 8)
      _mm256_storeu_ps(
          orow + j,
          _mm256_add_ps(_mm256_loadu_ps(mrow + j),
                        _mm256_mul_ps(sv, _mm256_loadu_ps(drow + j))));
    for (; j < c; ++j) orow[j] = mrow[j] + s * drow[j];
  }
}

// Gather-free edge_attention: per 8-edge block, walk d in 8-column chunks.
// Each edge contributes one vector of products per chunk (three unaligned
// row loads, mul, add — contiguous, no gathers); an in-register 8x8
// transpose then turns "edge-major products" into "column-major products"
// so one acc vector can accumulate all 8 edges with each lane adding its
// edge's columns in ascending-j order — the same order as the scalar body,
// hence bit-identical. The j-remainder finishes per lane in scalar from
// the spilled acc; the edge remainder falls through to the scalar body.
__attribute__((target("avx2"))) void edge_attention_scores_avx2(
    const float* qp, const float* kp, const float* ep, const std::int32_t* src,
    const std::int32_t* dst, std::int64_t d, float scale, float* op,
    std::int64_t begin, std::int64_t end) {
  std::int64_t i = begin;
  for (; i + 8 <= end; i += 8) {
    const float* qrow[8];
    const float* krow[8];
    const float* erow[8];
    for (int e = 0; e < 8; ++e) {
      qrow[e] = qp + static_cast<std::int64_t>(dst[i + e]) * d;
      krow[e] = kp + static_cast<std::int64_t>(src[i + e]) * d;
      erow[e] = ep + (i + e) * d;
    }
    __m256 acc = _mm256_setzero_ps();
    std::int64_t j = 0;
    for (; j + 8 <= d; j += 8) {
      __m256 p[8];
      for (int e = 0; e < 8; ++e)
        p[e] = _mm256_mul_ps(_mm256_loadu_ps(qrow[e] + j),
                             _mm256_add_ps(_mm256_loadu_ps(krow[e] + j),
                                           _mm256_loadu_ps(erow[e] + j)));
      // t[c] lane e holds edge e's product for column j+c.
      __m256 t[8];
      util::transpose8x8(p, t);
      // Ascending column order = ascending-j adds in every lane.
      for (int c = 0; c < 8; ++c) acc = _mm256_add_ps(acc, t[c]);
    }
    if (j < d) {
      alignas(32) float accs[8];
      _mm256_store_ps(accs, acc);
      for (int e = 0; e < 8; ++e) {
        float a = accs[e];
        for (std::int64_t r = j; r < d; ++r)
          a += qrow[e][r] * (krow[e][r] + erow[e][r]);
        op[i + e] = a * scale;
      }
    } else {
      _mm256_storeu_ps(op + i, _mm256_mul_ps(acc, _mm256_set1_ps(scale)));
    }
  }
  edge_attention_scores_scalar(qp, kp, ep, src, dst, d, scale, op, i, end);
}

__attribute__((target("avx2"))) void edge_pair_scores_avx2(
    const float* ap, const float* bp, const std::int32_t* src,
    const std::int32_t* dst, float s, float* op, std::int64_t begin,
    std::int64_t end) {
  std::int64_t i = begin;
  const __m256 sv = _mm256_set1_ps(s);
  const __m256 zero = _mm256_setzero_ps();
  for (; i + 8 <= end; i += 8) {
    const __m256i is =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i id =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256 x = _mm256_add_ps(_mm256_i32gather_ps(ap, is, 4),
                                   _mm256_i32gather_ps(bp, id, 4));
    // x > 0 ? x : s*x — blend keeps the scalar branch's single rounding on
    // the negative path (and its NaN behaviour: NaN > 0 is false).
    const __m256 pos = _mm256_cmp_ps(x, zero, _CMP_GT_OQ);
    _mm256_storeu_ps(op + i, _mm256_blendv_ps(_mm256_mul_ps(sv, x), x, pos));
  }
  edge_pair_scores_scalar(ap, bp, src, dst, s, op, i, end);
}

__attribute__((target("avx2"))) void weighted_scatter_add_avx2(
    const float* alpha, const float* vp, const float* ep,
    const std::int32_t* src, const std::int32_t* dst, std::int64_t c,
    float* op, std::int64_t num_edges) {
  // Serial over edges (colliding destinations accumulate in edge order);
  // vector over the disjoint column writes of one edge.
  for (std::int64_t i = 0; i < num_edges; ++i) {
    const float s = alpha[i];
    const __m256 sv = _mm256_set1_ps(s);
    const float* vrow = vp + static_cast<std::int64_t>(src[i]) * c;
    float* drow = op + static_cast<std::int64_t>(dst[i]) * c;
    std::int64_t j = 0;
    if (ep) {
      const float* erow = ep + i * c;
      for (; j + 8 <= c; j += 8) {
        const __m256 t = _mm256_mul_ps(
            sv, _mm256_add_ps(_mm256_loadu_ps(vrow + j),
                              _mm256_loadu_ps(erow + j)));
        _mm256_storeu_ps(drow + j, _mm256_add_ps(_mm256_loadu_ps(drow + j), t));
      }
      for (; j < c; ++j) drow[j] += s * (vrow[j] + erow[j]);
    } else {
      for (; j + 8 <= c; j += 8) {
        const __m256 t = _mm256_mul_ps(sv, _mm256_loadu_ps(vrow + j));
        _mm256_storeu_ps(drow + j, _mm256_add_ps(_mm256_loadu_ps(drow + j), t));
      }
      for (; j < c; ++j) drow[j] += s * vrow[j];
    }
  }
}

__attribute__((target("avx2"))) void segment_softmax_normalize_avx2(
    const float* seg_sum, const std::int32_t* seg, float* op,
    std::int64_t begin, std::int64_t end) {
  std::int64_t i = begin;
  const __m256 zero = _mm256_setzero_ps();
  for (; i + 8 <= end; i += 8) {
    const __m256i sg =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(seg + i));
    const __m256 den = _mm256_i32gather_ps(seg_sum, sg, 4);
    const __m256 q = _mm256_div_ps(_mm256_loadu_ps(op + i), den);
    const __m256 pos = _mm256_cmp_ps(den, zero, _CMP_GT_OQ);
    _mm256_storeu_ps(op + i, _mm256_blendv_ps(zero, q, pos));
  }
  segment_softmax_normalize_scalar(seg_sum, seg, op, i, end);
}

// ---------------------------------------------------------------------------
// AVX-512 bodies for the widest kernels; the rest reuse the AVX2 body at
// the avx512 level (the dispatch switch below).
// ---------------------------------------------------------------------------

__attribute__((target("avx512f"))) void weighted_scatter_add_avx512(
    const float* alpha, const float* vp, const float* ep,
    const std::int32_t* src, const std::int32_t* dst, std::int64_t c,
    float* op, std::int64_t num_edges) {
  for (std::int64_t i = 0; i < num_edges; ++i) {
    const float s = alpha[i];
    const __m512 sv = _mm512_set1_ps(s);
    const float* vrow = vp + static_cast<std::int64_t>(src[i]) * c;
    float* drow = op + static_cast<std::int64_t>(dst[i]) * c;
    std::int64_t j = 0;
    if (ep) {
      const float* erow = ep + i * c;
      for (; j + 16 <= c; j += 16) {
        const __m512 t = _mm512_mul_ps(
            sv, _mm512_add_ps(_mm512_loadu_ps(vrow + j),
                              _mm512_loadu_ps(erow + j)));
        _mm512_storeu_ps(drow + j, _mm512_add_ps(_mm512_loadu_ps(drow + j), t));
      }
      for (; j < c; ++j) drow[j] += s * (vrow[j] + erow[j]);
    } else {
      for (; j + 16 <= c; j += 16) {
        const __m512 t = _mm512_mul_ps(sv, _mm512_loadu_ps(vrow + j));
        _mm512_storeu_ps(drow + j, _mm512_add_ps(_mm512_loadu_ps(drow + j), t));
      }
      for (; j < c; ++j) drow[j] += s * vrow[j];
    }
  }
}

__attribute__((target("avx512f"))) void gated_mix_avx512(
    const float* mp, const float* bp, const float* dp, float* op,
    std::int64_t c, std::int64_t begin, std::int64_t end) {
  for (std::int64_t i = begin; i < end; ++i) {
    const float s = bp[i];
    const __m512 sv = _mm512_set1_ps(s);
    const float* mrow = mp + i * c;
    const float* drow = dp + i * 3 * c;
    float* orow = op + i * c;
    std::int64_t j = 0;
    for (; j + 16 <= c; j += 16)
      _mm512_storeu_ps(
          orow + j,
          _mm512_add_ps(_mm512_loadu_ps(mrow + j),
                        _mm512_mul_ps(sv, _mm512_loadu_ps(drow + j))));
    for (; j < c; ++j) orow[j] = mrow[j] + s * drow[j];
  }
}

__attribute__((target("avx512f"))) void residual_concat_avx512(
    const float* rp, const float* mp, float* op, std::int64_t c,
    std::int64_t begin, std::int64_t end) {
  for (std::int64_t i = begin; i < end; ++i) {
    const float* rrow = rp + i * c;
    const float* mrow = mp + i * c;
    float* orow = op + i * 3 * c;
    std::int64_t j = 0;
    for (; j + 16 <= c; j += 16) {
      const __m512 rv = _mm512_loadu_ps(rrow + j);
      const __m512 mv = _mm512_loadu_ps(mrow + j);
      _mm512_storeu_ps(orow + j, rv);
      _mm512_storeu_ps(orow + c + j, mv);
      _mm512_storeu_ps(orow + 2 * c + j, _mm512_sub_ps(rv, mv));
    }
    for (; j < c; ++j) {
      const float rv = rrow[j], mv = mrow[j];
      orow[j] = rv;
      orow[c + j] = mv;
      orow[2 * c + j] = rv - mv;
    }
  }
}

#endif  // GNNDSE_X86

}  // namespace

// ---------------------------------------------------------------------------
// Dispatch. On non-x86 every level maps to scalar.
// ---------------------------------------------------------------------------

void residual_concat_range(SimdLevel level, const float* rp, const float* mp,
                           float* op, std::int64_t c, std::int64_t begin,
                           std::int64_t end) {
#ifdef GNNDSE_X86
  if (level == SimdLevel::kAvx512)
    return residual_concat_avx512(rp, mp, op, c, begin, end);
  if (level == SimdLevel::kAvx2)
    return residual_concat_avx2(rp, mp, op, c, begin, end);
#else
  (void)level;
#endif
  residual_concat_scalar(rp, mp, op, c, begin, end);
}

void gated_mix_range(SimdLevel level, const float* mp, const float* bp,
                     const float* dp, float* op, std::int64_t c,
                     std::int64_t begin, std::int64_t end) {
#ifdef GNNDSE_X86
  if (level == SimdLevel::kAvx512)
    return gated_mix_avx512(mp, bp, dp, op, c, begin, end);
  if (level == SimdLevel::kAvx2)
    return gated_mix_avx2(mp, bp, dp, op, c, begin, end);
#else
  (void)level;
#endif
  gated_mix_scalar(mp, bp, dp, op, c, begin, end);
}

void edge_attention_scores_range(SimdLevel level, const float* qp,
                                 const float* kp, const float* ep,
                                 const std::int32_t* src,
                                 const std::int32_t* dst, std::int64_t d,
                                 float scale, float* op, std::int64_t begin,
                                 std::int64_t end) {
#ifdef GNNDSE_X86
  // The avx512 level reuses the AVX2 body: a 16-lane gather body measured
  // slower than scalar (docs/performance.md), this one faster.
  if (level != SimdLevel::kScalar)
    return edge_attention_scores_avx2(qp, kp, ep, src, dst, d, scale, op,
                                      begin, end);
#else
  (void)level;
#endif
  edge_attention_scores_scalar(qp, kp, ep, src, dst, d, scale, op, begin, end);
}

void edge_pair_scores_range(SimdLevel level, const float* ap, const float* bp,
                            const std::int32_t* src, const std::int32_t* dst,
                            float negative_slope, float* op,
                            std::int64_t begin, std::int64_t end) {
#ifdef GNNDSE_X86
  // The avx512 level reuses the AVX2 body: [E,1] score columns are too
  // narrow for 16-lane gathers to pay off.
  if (level != SimdLevel::kScalar)
    return edge_pair_scores_avx2(ap, bp, src, dst, negative_slope, op, begin,
                                 end);
#else
  (void)level;
#endif
  edge_pair_scores_scalar(ap, bp, src, dst, negative_slope, op, begin, end);
}

void weighted_scatter_add_edges(SimdLevel level, const float* alpha,
                                const float* vp, const float* ep,
                                const std::int32_t* src,
                                const std::int32_t* dst, std::int64_t c,
                                float* op, std::int64_t num_edges) {
#ifdef GNNDSE_X86
  if (level == SimdLevel::kAvx512)
    return weighted_scatter_add_avx512(alpha, vp, ep, src, dst, c, op,
                                       num_edges);
  if (level == SimdLevel::kAvx2)
    return weighted_scatter_add_avx2(alpha, vp, ep, src, dst, c, op,
                                     num_edges);
#else
  (void)level;
#endif
  weighted_scatter_add_scalar(alpha, vp, ep, src, dst, c, op, num_edges);
}

void segment_softmax_normalize(SimdLevel level, const float* seg_sum,
                               const std::int32_t* seg, float* op,
                               std::int64_t begin, std::int64_t end) {
#ifdef GNNDSE_X86
  // avx512 reuses the AVX2 body (gather-bound; 8 lanes saturate it).
  if (level != SimdLevel::kScalar)
    return segment_softmax_normalize_avx2(seg_sum, seg, op, begin, end);
#else
  (void)level;
#endif
  segment_softmax_normalize_scalar(seg_sum, seg, op, begin, end);
}

}  // namespace gnndse::gnn::simd
