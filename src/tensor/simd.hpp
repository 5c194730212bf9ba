// Runtime-dispatched matmul row kernels (scalar / AVX2 / AVX-512).
//
// matmul_rows computes rows [i0, i1) of C (+)= A x B on row-major packed
// operands, walking k in 256-wide panels and columns in 32-float register
// tiles; a single-column B (n == 1) takes a matrix-vector body with 8 rows
// in the lanes (see docs/performance.md). Every variant performs the exact
// same per-element float operations in the same ascending-k order — the
// vector lanes cover independent output columns or rows, the multiply and
// add round separately (no FMA contraction at any level), the a == 0
// multiplicand skip is reproduced exactly, and partial column tiles wider
// than one column run the scalar path — so the result bits are identical
// at every dispatch level, thread count, and row split.
//
// `init`: the first k panel stores instead of accumulating, so the output
// needs no zero fill. `bias`: added once per element after its final panel
// (the fused matmul_bias epilogue). Callers resolve the level once per
// matmul (obs/simd_counters.hpp) and pass it into every row chunk.
#pragma once

#include <cstdint>

#include "util/cpu.hpp"

namespace gnndse::tensor::simd {

/// k-panel depth: one panel of B (kKc x n floats) stays hot in L2 while the
/// row sweep streams over A.
inline constexpr std::int64_t kKc = 256;

/// Column-tile width: 32 output floats live in registers for a whole k
/// panel (4 ymm / 2 zmm accumulators).
inline constexpr std::int64_t kJt = 32;

void matmul_rows(util::SimdLevel level, const float* ap, const float* bp,
                 float* o, std::int64_t i0, std::int64_t i1, std::int64_t k,
                 std::int64_t n, bool init, const float* bias);

}  // namespace gnndse::tensor::simd
