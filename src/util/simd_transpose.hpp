// In-register 8x8 float transpose shared by the AVX2 bodies that put eight
// independent rows (matmul rows, graph edges) in the lanes of one
// accumulator: each row's 8-column block is formed row-wise, transposed,
// and added column by column so every lane keeps its ascending-column
// order. Pure data movement — the transpose itself changes no bits.
#pragma once

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>

namespace gnndse::util {

/// t[c] lane r = p[r] lane c (unpack / shuffle / permute2f128).
__attribute__((target("avx2"))) inline void transpose8x8(const __m256 p[8],
                                                          __m256 t[8]) {
  const __m256 s0 = _mm256_unpacklo_ps(p[0], p[1]);
  const __m256 s1 = _mm256_unpackhi_ps(p[0], p[1]);
  const __m256 s2 = _mm256_unpacklo_ps(p[2], p[3]);
  const __m256 s3 = _mm256_unpackhi_ps(p[2], p[3]);
  const __m256 s4 = _mm256_unpacklo_ps(p[4], p[5]);
  const __m256 s5 = _mm256_unpackhi_ps(p[4], p[5]);
  const __m256 s6 = _mm256_unpacklo_ps(p[6], p[7]);
  const __m256 s7 = _mm256_unpackhi_ps(p[6], p[7]);
  const __m256 u0 = _mm256_shuffle_ps(s0, s2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u1 = _mm256_shuffle_ps(s0, s2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u2 = _mm256_shuffle_ps(s1, s3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u3 = _mm256_shuffle_ps(s1, s3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u4 = _mm256_shuffle_ps(s4, s6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u5 = _mm256_shuffle_ps(s4, s6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u6 = _mm256_shuffle_ps(s5, s7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u7 = _mm256_shuffle_ps(s5, s7, _MM_SHUFFLE(3, 2, 3, 2));
  t[0] = _mm256_permute2f128_ps(u0, u4, 0x20);
  t[1] = _mm256_permute2f128_ps(u1, u5, 0x20);
  t[2] = _mm256_permute2f128_ps(u2, u6, 0x20);
  t[3] = _mm256_permute2f128_ps(u3, u7, 0x20);
  t[4] = _mm256_permute2f128_ps(u0, u4, 0x31);
  t[5] = _mm256_permute2f128_ps(u1, u5, 0x31);
  t[6] = _mm256_permute2f128_ps(u2, u6, 0x31);
  t[7] = _mm256_permute2f128_ps(u3, u7, 0x31);
}

}  // namespace gnndse::util

#endif
