// Matmul kernel variants. This TU is compiled with the portable baseline
// flags; the AVX2/AVX-512 bodies opt into their ISA via per-function target
// attributes, so one binary carries every variant and the dispatch level
// picks at runtime. FMA is deliberately never enabled: the scalar baseline
// (plain x86-64 has no FMA instruction) rounds the multiply and the add
// separately, and the vector variants must produce the same bits.
#include "tensor/simd.hpp"

#include <algorithm>

#include "util/simd_transpose.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define GNNDSE_X86 1
#endif

namespace gnndse::tensor::simd {
namespace {

// ---------------------------------------------------------------------------
// Scalar tile (the reference bits; also the partial-tile path of every
// level). kFullTile lets the compiler fully unroll the kJt-wide loops.
// ---------------------------------------------------------------------------

template <bool kFullTile>
void tile_scalar(const float* ap, const float* bp, float* o, std::int64_t i0,
                 std::int64_t i1, std::int64_t k, std::int64_t n,
                 std::int64_t x0, std::int64_t x1, std::int64_t j0,
                 std::int64_t jt, bool init, const float* bias) {
  const bool last = x1 == k;
  for (std::int64_t i = i0; i < i1; ++i) {
    float acc[kJt];
    float* orow = o + i * n + j0;
    const std::int64_t w = kFullTile ? kJt : jt;
    if (init)
      for (std::int64_t jj = 0; jj < w; ++jj) acc[jj] = 0.0f;
    else
      for (std::int64_t jj = 0; jj < w; ++jj) acc[jj] = orow[jj];
    const float* arow = ap + i * k;
    for (std::int64_t x = x0; x < x1; ++x) {
      const float av_ix = arow[x];
      if (av_ix == 0.0f) continue;
      const float* brow = bp + x * n + j0;
      for (std::int64_t jj = 0; jj < w; ++jj) acc[jj] += av_ix * brow[jj];
    }
    if (last && bias != nullptr)
      for (std::int64_t jj = 0; jj < w; ++jj) acc[jj] += bias[j0 + jj];
    for (std::int64_t jj = 0; jj < w; ++jj) orow[jj] = acc[jj];
  }
}

#ifdef GNNDSE_X86

// ---------------------------------------------------------------------------
// Matrix-vector body (n == 1), run at both vector levels: 8 rows in the
// lanes of one ymm accumulator. Each 8x8 block of A is multiplied by the
// B slice row-wise and transposed, so t[c] lane r holds row r's product
// for column x+c; adding t[0..7] in order keeps every row's sum in
// ascending-x order. A product whose multiplicand a is zero is replaced by
// -0.0f: x + -0.0f == x bit-for-bit for every x (±0 and NaN included), so
// this is the scalar skip without a branch, and 0 * inf never reaches the
// sum. n == 1 makes the k panels irrelevant (the output is stored and
// reloaded between them), so one pass covers all of k. Returns the first
// row it left for the scalar tile.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) std::int64_t matvec_avx2(
    const float* ap, const float* bp, float* o, std::int64_t i0,
    std::int64_t i1, std::int64_t k, bool init, const float* bias) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 neg_zero = _mm256_set1_ps(-0.0f);
  std::int64_t i = i0;
  for (; i + 8 <= i1; i += 8) {
    const float* arow = ap + i * k;
    __m256 acc = init ? zero : _mm256_loadu_ps(o + i);
    std::int64_t x = 0;
    for (; x + 8 <= k; x += 8) {
      const __m256 bv = _mm256_loadu_ps(bp + x);
      __m256 p[8];
      for (int r = 0; r < 8; ++r) {
        const __m256 av = _mm256_loadu_ps(arow + r * k + x);
        p[r] = _mm256_blendv_ps(_mm256_mul_ps(av, bv), neg_zero,
                                _mm256_cmp_ps(av, zero, _CMP_EQ_OQ));
      }
      __m256 t[8];
      util::transpose8x8(p, t);
      for (int c = 0; c < 8; ++c) acc = _mm256_add_ps(acc, t[c]);
    }
    if (x < k) {
      alignas(32) float accs[8];
      _mm256_store_ps(accs, acc);
      for (int r = 0; r < 8; ++r) {
        for (std::int64_t xr = x; xr < k; ++xr) {
          const float av_ix = arow[r * k + xr];
          if (av_ix == 0.0f) continue;
          accs[r] += av_ix * bp[xr];
        }
      }
      acc = _mm256_load_ps(accs);
    }
    if (bias != nullptr) acc = _mm256_add_ps(acc, _mm256_set1_ps(bias[0]));
    _mm256_storeu_ps(o + i, acc);
  }
  return i;
}

// ---------------------------------------------------------------------------
// Full column tiles: kRows rows x 32 columns of accumulators (4 ymm or
// 2 zmm per row). Per k step: broadcast a[i,x], then mul + add per lane —
// each output column's additions stay in ascending-x order, so the bits
// match tile_scalar. One row at a time, the a == 0 skip is a branch, as in
// the scalar body: the skip is observable (0 * inf, -0 + +0). A multi-row
// block runs only when its A block holds no zero — then the skip never
// fires and the plain multiply-add is exact — and its kRows x (4 | 2)
// independent add chains hide the add latency that bounds the one-row
// body. A block with a zero (the one-hot layer-0 input is ~95% zeros)
// runs the one-row body, which also keeps skipping the work.
// ---------------------------------------------------------------------------

template <int kRows>
__attribute__((target("avx2"))) inline void rows_avx2(
    const float* ap, const float* bp, float* o, std::int64_t i,
    std::int64_t k, std::int64_t n, std::int64_t x0, std::int64_t x1,
    std::int64_t j0, bool init, bool last, const float* bias) {
  __m256 acc[kRows][4];
  for (int r = 0; r < kRows; ++r)
    for (int c = 0; c < 4; ++c)
      acc[r][c] = init ? _mm256_setzero_ps()
                       : _mm256_loadu_ps(o + (i + r) * n + j0 + 8 * c);
  const float* arow = ap + i * k;
  for (std::int64_t x = x0; x < x1; ++x) {
    const float* brow = bp + x * n + j0;
    for (int r = 0; r < kRows; ++r) {
      const float a = arow[r * k + x];
      if (kRows == 1 && a == 0.0f) continue;
      const __m256 av = _mm256_set1_ps(a);
      for (int c = 0; c < 4; ++c)
        acc[r][c] = _mm256_add_ps(
            acc[r][c], _mm256_mul_ps(av, _mm256_loadu_ps(brow + 8 * c)));
    }
  }
  for (int r = 0; r < kRows; ++r)
    for (int c = 0; c < 4; ++c) {
      if (last && bias != nullptr)
        acc[r][c] =
            _mm256_add_ps(acc[r][c], _mm256_loadu_ps(bias + j0 + 8 * c));
      _mm256_storeu_ps(o + (i + r) * n + j0 + 8 * c, acc[r][c]);
    }
}

template <int kRows>
__attribute__((target("avx512f"))) inline void rows_avx512(
    const float* ap, const float* bp, float* o, std::int64_t i,
    std::int64_t k, std::int64_t n, std::int64_t x0, std::int64_t x1,
    std::int64_t j0, bool init, bool last, const float* bias) {
  __m512 acc[kRows][2];
  for (int r = 0; r < kRows; ++r)
    for (int c = 0; c < 2; ++c)
      acc[r][c] = init ? _mm512_setzero_ps()
                       : _mm512_loadu_ps(o + (i + r) * n + j0 + 16 * c);
  const float* arow = ap + i * k;
  for (std::int64_t x = x0; x < x1; ++x) {
    const float* brow = bp + x * n + j0;
    for (int r = 0; r < kRows; ++r) {
      const float a = arow[r * k + x];
      if (kRows == 1 && a == 0.0f) continue;
      const __m512 av = _mm512_set1_ps(a);
      for (int c = 0; c < 2; ++c)
        acc[r][c] = _mm512_add_ps(
            acc[r][c], _mm512_mul_ps(av, _mm512_loadu_ps(brow + 16 * c)));
    }
  }
  for (int r = 0; r < kRows; ++r)
    for (int c = 0; c < 2; ++c) {
      if (last && bias != nullptr)
        acc[r][c] =
            _mm512_add_ps(acc[r][c], _mm512_loadu_ps(bias + j0 + 16 * c));
      _mm512_storeu_ps(o + (i + r) * n + j0 + 16 * c, acc[r][c]);
    }
}

/// True when rows [i, i + rows) of A hold no zero in columns [x0, x1).
__attribute__((target("avx2"))) bool zero_free_avx2(
    const float* ap, std::int64_t i, std::int64_t rows, std::int64_t k,
    std::int64_t x0, std::int64_t x1) {
  const __m256 zero = _mm256_setzero_ps();
  for (std::int64_t r = i; r < i + rows; ++r) {
    const float* a = ap + r * k;
    std::int64_t x = x0;
    for (; x + 8 <= x1; x += 8)
      if (_mm256_movemask_ps(
              _mm256_cmp_ps(_mm256_loadu_ps(a + x), zero, _CMP_EQ_OQ)))
        return false;
    for (; x < x1; ++x)
      if (a[x] == 0.0f) return false;
  }
  return true;
}

__attribute__((target("avx2"))) void tile_avx2(
    const float* ap, const float* bp, float* o, std::int64_t i0,
    std::int64_t i1, std::int64_t k, std::int64_t n, std::int64_t x0,
    std::int64_t x1, std::int64_t j0, bool init, const float* bias) {
  const bool last = x1 == k;
  std::int64_t i = i0;
  for (; i + 2 <= i1; i += 2) {
    if (zero_free_avx2(ap, i, 2, k, x0, x1)) {
      rows_avx2<2>(ap, bp, o, i, k, n, x0, x1, j0, init, last, bias);
    } else {
      rows_avx2<1>(ap, bp, o, i, k, n, x0, x1, j0, init, last, bias);
      rows_avx2<1>(ap, bp, o, i + 1, k, n, x0, x1, j0, init, last, bias);
    }
  }
  for (; i < i1; ++i)
    rows_avx2<1>(ap, bp, o, i, k, n, x0, x1, j0, init, last, bias);
}

__attribute__((target("avx512f"))) void tile_avx512(
    const float* ap, const float* bp, float* o, std::int64_t i0,
    std::int64_t i1, std::int64_t k, std::int64_t n, std::int64_t x0,
    std::int64_t x1, std::int64_t j0, bool init, const float* bias) {
  const bool last = x1 == k;
  std::int64_t i = i0;
  for (; i + 4 <= i1; i += 4) {
    if (zero_free_avx2(ap, i, 4, k, x0, x1)) {
      rows_avx512<4>(ap, bp, o, i, k, n, x0, x1, j0, init, last, bias);
    } else {
      for (int r = 0; r < 4; ++r)
        rows_avx512<1>(ap, bp, o, i + r, k, n, x0, x1, j0, init, last, bias);
    }
  }
  for (; i < i1; ++i)
    rows_avx512<1>(ap, bp, o, i, k, n, x0, x1, j0, init, last, bias);
}

#endif  // GNNDSE_X86

}  // namespace

void matmul_rows(util::SimdLevel level, const float* ap, const float* bp,
                 float* o, std::int64_t i0, std::int64_t i1, std::int64_t k,
                 std::int64_t n, bool init, const float* bias) {
#ifdef GNNDSE_X86
  if (n == 1 && level != util::SimdLevel::kScalar)
    i0 = matvec_avx2(ap, bp, o, i0, i1, k, init, bias);
#else
  level = util::SimdLevel::kScalar;
#endif
  for (std::int64_t x0 = 0; x0 < k; x0 += kKc) {
    const std::int64_t x1 = std::min(k, x0 + kKc);
    const bool panel_init = init && x0 == 0;
    for (std::int64_t j0 = 0; j0 < n; j0 += kJt) {
      const std::int64_t jt = std::min(kJt, n - j0);
      if (jt == kJt) {
        switch (level) {
#ifdef GNNDSE_X86
          case util::SimdLevel::kAvx512:
            tile_avx512(ap, bp, o, i0, i1, k, n, x0, x1, j0, panel_init, bias);
            continue;
          case util::SimdLevel::kAvx2:
            tile_avx2(ap, bp, o, i0, i1, k, n, x0, x1, j0, panel_init, bias);
            continue;
#endif
          default:
            tile_scalar<true>(ap, bp, o, i0, i1, k, n, x0, x1, j0, jt,
                              panel_init, bias);
            continue;
        }
      }
      tile_scalar<false>(ap, bp, o, i0, i1, k, n, x0, x1, j0, jt, panel_init,
                         bias);
    }
  }
}

}  // namespace gnndse::tensor::simd
