// Runtime SIMD dispatch layer: bit-identity of every vectorized kernel
// against the scalar reference across dispatch levels, shapes with
// remainders, unaligned row views, and thread counts; env parsing;
// dispatch telemetry; and end-to-end fast-path identity per level.
#include "tensor/simd.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "gnn/infer.hpp"
#include "gnn/infer_simd.hpp"
#include "kernels/registry.hpp"
#include "model/dataset.hpp"
#include "model/predictive_model.hpp"
#include "model/trainer.hpp"
#include "obs/metrics.hpp"
#include "util/cpu.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace gnndse {
namespace {

using tensor::Tensor;
using util::SimdLevel;

/// Restores hardware-detected dispatch and the default pool on exit, even
/// when an assertion fails mid-test.
struct DispatchGuard {
  ~DispatchGuard() {
    util::set_simd_level(util::detect_simd_level());
    util::set_parallel_threads(0);
  }
};

/// Levels this host can actually run (always includes kScalar).
std::vector<SimdLevel> available_levels() {
  std::vector<SimdLevel> out{SimdLevel::kScalar};
  const SimdLevel cap = util::detect_simd_level();
  if (cap >= SimdLevel::kAvx2) out.push_back(SimdLevel::kAvx2);
  if (cap >= SimdLevel::kAvx512) out.push_back(SimdLevel::kAvx512);
  return out;
}

Tensor random_tensor(std::vector<std::int64_t> shape, util::Rng& rng) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i)
    t.at(i) = static_cast<float>(rng.uniform(-2.0, 2.0));
  return t;
}

std::vector<std::int32_t> random_indices(std::size_t n, std::int64_t hi,
                                         util::Rng& rng) {
  std::vector<std::int32_t> idx(n);
  for (auto& v : idx)
    v = static_cast<std::int32_t>(rng.uniform_int(static_cast<std::uint64_t>(hi)));
  return idx;
}

/// Compares bit patterns, so a +0 / -0 mismatch fails too.
void expect_bitwise(const Tensor& a, const Tensor& b, const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    std::uint32_t ua, ub;
    std::memcpy(&ua, a.data() + i, sizeof ua);
    std::memcpy(&ub, b.data() + i, sizeof ub);
    ASSERT_EQ(ua, ub) << what << " element " << i << ": " << a.data()[i]
                      << " vs " << b.data()[i];
  }
}

TEST(SimdKernels, TensorStorageIsCacheLineAligned) {
  util::Rng rng(3);
  for (std::int64_t n : {1, 7, 64, 1000}) {
    Tensor t = random_tensor({n}, rng);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(t.data()) % 64, 0u)
        << "numel " << n;
  }
}

TEST(SimdKernels, MatmulBitIdenticalAcrossLevelsShapesAndTranspose) {
  DispatchGuard guard;
  util::Rng rng(11);
  // Shapes straddle the k-panel (256) and column-tile (32) boundaries and
  // include 1-wide and odd remainders.
  const std::int64_t shapes[][3] = {{1, 1, 1},   {3, 7, 31},  {5, 64, 32},
                                    {4, 65, 33}, {2, 33, 64}, {7, 96, 40},
                                    {9, 257, 65}};
  for (const auto& s : shapes) {
    const std::int64_t m = s[0], k = s[1], n = s[2];
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) {
        const Tensor a = random_tensor(ta ? std::vector<std::int64_t>{k, m}
                                          : std::vector<std::int64_t>{m, k},
                                       rng);
        const Tensor b = random_tensor(tb ? std::vector<std::int64_t>{n, k}
                                          : std::vector<std::int64_t>{k, n},
                                       rng);
        util::set_simd_level(SimdLevel::kScalar);
        const Tensor ref = tensor::matmul(a, b, ta, tb);
        for (SimdLevel lvl : available_levels()) {
          ASSERT_EQ(util::set_simd_level(lvl), lvl);
          expect_bitwise(ref, tensor::matmul(a, b, ta, tb),
                         std::string("matmul ") + util::simd_level_name(lvl));
        }
      }
    }
    // Fused bias epilogue (matmul_bias with and without bias).
    const Tensor a = random_tensor({m, k}, rng);
    const Tensor b = random_tensor({k, n}, rng);
    const Tensor bias = random_tensor({n}, rng);
    util::set_simd_level(SimdLevel::kScalar);
    Tensor ref({m, n}), ref_nb({m, n});
    tensor::matmul_bias(a, b, &bias, ref);
    tensor::matmul_bias(a, b, nullptr, ref_nb);
    for (SimdLevel lvl : available_levels()) {
      ASSERT_EQ(util::set_simd_level(lvl), lvl);
      Tensor out({m, n}), out_nb({m, n});
      tensor::matmul_bias(a, b, &bias, out);
      tensor::matmul_bias(a, b, nullptr, out_nb);
      expect_bitwise(ref, out, "matmul_bias");
      expect_bitwise(ref_nb, out_nb, "matmul_bias nullptr");
    }
  }
}

/// A [m,k] holding exact +0 and -0: every row i % 5 == 2 and every column
/// x % 3 == 1 is all zero, and about a third of the other entries are
/// zero. The signs of the zeros alternate.
Tensor zero_heavy_a(std::int64_t m, std::int64_t k, util::Rng& rng) {
  Tensor t({m, k});
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t x = 0; x < k; ++x) {
      const bool zero = i % 5 == 2 || x % 3 == 1 || rng.uniform(0.0, 1.0) < 0.3;
      t.at(i * k + x) = zero ? ((i + x) % 2 ? -0.0f : 0.0f)
                             : static_cast<float>(rng.uniform(-2.0, 2.0));
    }
  return t;
}

/// B [k,n]: finite, except +-inf across every row x whose A column is all
/// zero (x % 3 == 1). The scalar kernel skips a == 0 products, so those
/// infinities must never reach an output.
Tensor inf_rows_b(std::int64_t k, std::int64_t n, util::Rng& rng) {
  Tensor t = random_tensor({k, n}, rng);
  for (std::int64_t x = 1; x < k; x += 3)
    for (std::int64_t j = 0; j < n; ++j)
      t.at(x * n + j) = (x + j) % 2 ? -INFINITY : INFINITY;
  return t;
}

// The a == 0 skip is observable (0 * inf is NaN, -0 + +0 is +0), so every
// vector body must reproduce it exactly: the matrix-vector body (n == 1,
// k across the 8-wide blocks and the 256-deep panel), the multi-row full
// tile with row tails, the bias epilogue, accumulation onto an output
// prefilled with -0 and finite values, trans_a packing (the tape's
// weight gradient), and 1 vs 4 threads.
TEST(SimdKernels, MatmulZeroSkipBitIdenticalAcrossLevelsAndThreads) {
  DispatchGuard guard;
  util::Rng rng(23);
  std::vector<std::array<std::int64_t, 3>> shapes;  // m, k, n
  for (std::int64_t m : {8, 17, 100})
    for (std::int64_t k : {1, 7, 8, 192, 300}) shapes.push_back({m, k, 1});
  for (std::int64_t m : {8, 17, 100, 103})
    for (std::int64_t k : {7, 64, 300})
      for (std::int64_t n : {32, 64, 65}) shapes.push_back({m, k, n});
  // Large enough to fan out over the pool.
  shapes.push_back({4099, 300, 1});
  shapes.push_back({1029, 64, 64});

  for (const auto& [m, k, n] : shapes) {
    const std::string shape = std::to_string(m) + "x" + std::to_string(k) +
                              "x" + std::to_string(n);
    const Tensor a = zero_heavy_a(m, k, rng);
    Tensor a_t({k, m});
    for (std::int64_t i = 0; i < m; ++i)
      for (std::int64_t x = 0; x < k; ++x) a_t.at(x * m + i) = a.at(i * k + x);
    const Tensor b = inf_rows_b(k, n, rng);
    const Tensor bias = random_tensor({n}, rng);
    Tensor prefill = random_tensor({m, n}, rng);
    for (std::int64_t e = 0; e < prefill.numel(); e += 2)
      prefill.at(e) = -0.0f;

    struct Outs {
      Tensor acc, acc_t, with_bias;
    };
    const auto run = [&] {
      Outs r{prefill, prefill, Tensor({m, n})};
      tensor::matmul_acc(a, b, false, false, r.acc);
      tensor::matmul_acc(a_t, b, true, false, r.acc_t);
      tensor::matmul_bias(a, b, &bias, r.with_bias);
      return r;
    };
    util::set_parallel_threads(1);
    util::set_simd_level(SimdLevel::kScalar);
    const Outs ref = run();
    for (const Tensor* t : {&ref.acc, &ref.acc_t, &ref.with_bias})
      for (std::int64_t e = 0; e < t->numel(); ++e)
        ASSERT_FALSE(std::isnan(t->data()[e])) << shape << " element " << e;
    for (int threads : {1, 4}) {
      util::set_parallel_threads(threads);
      for (SimdLevel lvl : available_levels()) {
        ASSERT_EQ(util::set_simd_level(lvl), lvl);
        const std::string tag = shape + " " + util::simd_level_name(lvl) +
                                " threads=" + std::to_string(threads);
        const Outs got = run();
        expect_bitwise(ref.acc, got.acc, "matmul_acc " + tag);
        expect_bitwise(ref.acc_t, got.acc_t, "matmul_acc trans_a " + tag);
        expect_bitwise(ref.with_bias, got.with_bias, "matmul_bias " + tag);
      }
    }
  }
}

TEST(SimdKernels, FusedKernelsBitIdenticalAcrossLevelsAndThreads) {
  DispatchGuard guard;
  util::Rng rng(17);
  const std::int64_t kN = 37;  // nodes
  const std::int64_t kE = 101;  // edges
  const std::int64_t kSegs = 9;
  // Column widths with full vectors, remainders, and sub-vector rows.
  for (std::int64_t c : {std::int64_t{1}, std::int64_t{7}, std::int64_t{9},
                         std::int64_t{16}, std::int64_t{33}}) {
    const Tensor x = random_tensor({kN, c}, rng);
    const Tensor y = random_tensor({kN, c}, rng);
    const Tensor beta = random_tensor({kN, 1}, rng);
    const Tensor cat = random_tensor({kN, 3 * c}, rng);
    const Tensor q = random_tensor({kN, c}, rng);
    const Tensor k = random_tensor({kN, c}, rng);
    const Tensor ek = random_tensor({kE, c}, rng);
    const Tensor escores = random_tensor({kE, 1}, rng);
    const Tensor alpha = random_tensor({kE, 1}, rng);
    const auto src = random_indices(static_cast<std::size_t>(kE), kN, rng);
    const auto dst = random_indices(static_cast<std::size_t>(kE), kN, rng);
    // Row-plan index maps: edge-feature rows and residual rows read
    // through an index instead of the edge or row number.
    const auto eid = random_indices(static_cast<std::size_t>(kE), kE, rng);
    const auto rrow = random_indices(static_cast<std::size_t>(kN), kN, rng);
    std::vector<std::int32_t> seg(static_cast<std::size_t>(kE));
    for (std::size_t i = 0; i < seg.size(); ++i)
      seg[i] = static_cast<std::int32_t>(
          rng.uniform_int(static_cast<std::uint64_t>(kSegs - 1)));  // seg 8 empty

    // Scalar single-thread reference for every kernel.
    struct Results {
      Tensor residual, gated, eattn, wscatter, ssmax;
      Tensor residual_ix, eattn_ix, wscatter_ix;
    };
    auto run = [&](SimdLevel lvl, int threads) {
      util::set_parallel_threads(threads);
      EXPECT_EQ(util::set_simd_level(lvl), lvl);
      gnn::InferenceSession s;
      s.begin();
      Results r;
      r.residual = s.residual_concat(x, y);
      r.gated = s.gated_mix(x, beta, cat);
      r.eattn = s.edge_attention_scores(q, k, ek, src, dst, nullptr, 0.25f);
      r.wscatter = s.weighted_scatter_add(alpha.data(), x, ek, src, dst,
                                          nullptr, kN);
      r.ssmax = s.segment_softmax(escores, seg, kSegs);
      r.residual_ix = s.residual_concat(x, y, rrow.data());
      r.eattn_ix =
          s.edge_attention_scores(q, k, ek, src, dst, eid.data(), 0.25f);
      r.wscatter_ix = s.weighted_scatter_add(alpha.data(), x, ek, src, dst,
                                             eid.data(), kN);
      return r;
    };
    const Results ref = run(SimdLevel::kScalar, 1);
    for (SimdLevel lvl : available_levels()) {
      for (int threads : {1, 2, 4}) {
        const Results got = run(lvl, threads);
        const std::string tag = std::string(util::simd_level_name(lvl)) +
                                " threads=" + std::to_string(threads) +
                                " c=" + std::to_string(c);
        expect_bitwise(ref.residual, got.residual, "residual_concat " + tag);
        expect_bitwise(ref.gated, got.gated, "gated_mix " + tag);
        expect_bitwise(ref.eattn, got.eattn, "edge_attention_scores " + tag);
        expect_bitwise(ref.wscatter, got.wscatter,
                       "weighted_scatter_add " + tag);
        expect_bitwise(ref.ssmax, got.ssmax, "segment_softmax " + tag);
        expect_bitwise(ref.residual_ix, got.residual_ix,
                       "residual_concat rrow " + tag);
        expect_bitwise(ref.eattn_ix, got.eattn_ix,
                       "edge_attention_scores eid " + tag);
        expect_bitwise(ref.wscatter_ix, got.wscatter_ix,
                       "weighted_scatter_add eid " + tag);
      }
    }
  }
}

TEST(SimdKernels, EdgeAttentionVariantsBitIdenticalToScalar) {
  DispatchGuard guard;
  util::Rng rng(29);
  const std::int64_t kN = 41;
  // Edge counts and widths with full 8x8 blocks and remainders on both
  // axes: e % 8 != 0 exercises the scalar edge tail, d < 8 means the
  // transpose body never runs a vector block, d % 8 != 0 exercises the
  // per-lane j-tail that resumes from the spilled accumulator.
  for (std::int64_t e : {std::int64_t{5}, std::int64_t{8}, std::int64_t{64},
                         std::int64_t{103}}) {
    for (std::int64_t d : {std::int64_t{1}, std::int64_t{7}, std::int64_t{8},
                           std::int64_t{19}, std::int64_t{32}}) {
      const Tensor q = random_tensor({kN, d}, rng);
      const Tensor k = random_tensor({kN, d}, rng);
      const Tensor ek = random_tensor({e, d}, rng);
      const auto src = random_indices(static_cast<std::size_t>(e), kN, rng);
      const auto dst = random_indices(static_cast<std::size_t>(e), kN, rng);
      std::vector<float> ref(static_cast<std::size_t>(e), 0.0f);
      gnn::simd::edge_attention_scores_range(
          SimdLevel::kScalar, q.data(), k.data(), ek.data(), src.data(),
          dst.data(), nullptr, d, 0.125f, ref.data(), 0, e);
      for (SimdLevel lvl : available_levels()) {
        const std::string tag = std::string("edge_attention ") +
                                util::simd_level_name(lvl) +
                                " e=" + std::to_string(e) +
                                " d=" + std::to_string(d);
        std::vector<float> got(static_cast<std::size_t>(e), 0.0f);
        gnn::simd::edge_attention_scores_range(
            lvl, q.data(), k.data(), ek.data(), src.data(), dst.data(),
            nullptr, d, 0.125f, got.data(), 0, e);
        EXPECT_EQ(ref, got) << tag;
        // Partial edge range (threaded chunks start mid-array): the
        // untouched prefix/suffix must stay zero.
        if (e > 4) {
          std::vector<float> part(static_cast<std::size_t>(e), 0.0f);
          gnn::simd::edge_attention_scores_range(
              lvl, q.data(), k.data(), ek.data(), src.data(), dst.data(),
              nullptr, d, 0.125f, part.data(), 3, e - 1);
          for (std::int64_t i = 0; i < e; ++i) {
            const float want =
                (i >= 3 && i < e - 1) ? ref[static_cast<std::size_t>(i)]
                                      : 0.0f;
            ASSERT_EQ(part[static_cast<std::size_t>(i)], want)
                << tag << " partial edge " << i;
          }
        }
      }
    }
  }
}

TEST(SimdKernels, RangeHelpersBitIdenticalOnUnalignedViews) {
  DispatchGuard guard;
  util::Rng rng(23);
  const std::int64_t r = 19, d = 21, e = 43;
  const auto src = random_indices(static_cast<std::size_t>(e), r, rng);
  const auto dst = random_indices(static_cast<std::size_t>(e), r, rng);
  // Deliberately misaligned bases: every pointer is one float past a
  // (64-byte-aligned) tensor start, so the transpose body's row loads are
  // unaligned, and the output column is unaligned too.
  Tensor qbuf = random_tensor({r * d + 1}, rng);
  Tensor kbuf = random_tensor({r * d + 1}, rng);
  Tensor ebuf = random_tensor({e * d + 1}, rng);
  Tensor obuf({e + 1});
  const float* qp = qbuf.data() + 1;
  const float* kp = kbuf.data() + 1;
  const float* ep = ebuf.data() + 1;
  float* op = obuf.data() + 1;
  std::vector<float> ref(static_cast<std::size_t>(e));
  gnn::simd::edge_attention_scores_range(SimdLevel::kScalar, qp, kp, ep,
                                         src.data(), dst.data(), nullptr, d,
                                         0.25f, ref.data(), 0, e);
  for (SimdLevel lvl : available_levels()) {
    std::memset(op, 0, static_cast<std::size_t>(e) * sizeof(float));
    gnn::simd::edge_attention_scores_range(lvl, qp, kp, ep, src.data(),
                                           dst.data(), nullptr, d, 0.25f, op,
                                           0, e);
    for (std::int64_t i = 0; i < e; ++i)
      ASSERT_EQ(ref[static_cast<std::size_t>(i)], op[i])
          << "edge_attention unaligned " << util::simd_level_name(lvl)
          << " edge " << i;
  }
}

TEST(SimdKernels, EnvParseAndClamp) {
  using util::parse_simd_level;
  EXPECT_EQ(parse_simd_level("scalar", SimdLevel::kAvx512), SimdLevel::kScalar);
  EXPECT_EQ(parse_simd_level("avx2", SimdLevel::kScalar), SimdLevel::kAvx2);
  EXPECT_EQ(parse_simd_level("avx512", SimdLevel::kScalar),
            SimdLevel::kAvx512);
  EXPECT_EQ(parse_simd_level("auto", SimdLevel::kAvx2), SimdLevel::kAvx2);
  EXPECT_EQ(parse_simd_level("", SimdLevel::kAvx2), SimdLevel::kAvx2);
  EXPECT_EQ(parse_simd_level("turbo9000", SimdLevel::kAvx2), SimdLevel::kAvx2);

  DispatchGuard guard;
  // set_simd_level clamps to hardware capability and reports what it
  // applied; requesting scalar always succeeds.
  EXPECT_EQ(util::set_simd_level(SimdLevel::kScalar), SimdLevel::kScalar);
  const SimdLevel cap = util::detect_simd_level();
  EXPECT_LE(util::set_simd_level(SimdLevel::kAvx512), cap);

  EXPECT_EQ(util::simd_level_width(SimdLevel::kScalar), 0);
  EXPECT_EQ(util::simd_level_width(SimdLevel::kAvx2), 256);
  EXPECT_EQ(util::simd_level_width(SimdLevel::kAvx512), 512);
}

TEST(SimdKernels, DispatchCountersAndGaugeTrackActiveLevel) {
  DispatchGuard guard;
  obs::set_enabled(true);
  util::Rng rng(29);
  const Tensor x = random_tensor({5, 8}, rng);
  const Tensor y = random_tensor({5, 8}, rng);
  for (SimdLevel lvl : available_levels()) {
    util::set_simd_level(lvl);
    obs::Counter& c = obs::counter(std::string("simd.residual_concat.") +
                                   util::simd_level_name(lvl));
    const std::int64_t before = c.value();
    gnn::InferenceSession s;
    s.begin();
    s.residual_concat(x, y);
    EXPECT_EQ(c.value(), before + 1) << util::simd_level_name(lvl);
    EXPECT_EQ(obs::gauge("tensor.simd_level").value(),
              static_cast<double>(util::simd_level_width(lvl)));
  }
  obs::set_enabled(false);
}

// The `simd_dispatch_check` ctest runs exactly this suite: predictions of
// the full fast path (and the tape) must be bit-identical at every
// dispatch level and thread count.
TEST(SimdDispatchCheck, FastPathPredictionsBitIdenticalAcrossLevels) {
  DispatchGuard guard;
  kir::Kernel kernel = kernels::Registry::global().get("spmv-crs");
  model::SampleFactory factory;
  dspace::DesignSpace space(kernel);
  util::Rng crng(7);
  std::vector<hlssim::DesignConfig> configs;
  for (int i = 0; i < 10; ++i) configs.push_back(space.sample(crng));
  std::vector<gnn::GraphData> graphs;
  for (const auto& cf : configs) graphs.push_back(factory.featurize(kernel, cf));
  std::vector<const gnn::GraphData*> ptrs;
  for (const auto& g : graphs) ptrs.push_back(&g);

  util::Rng rng(11);
  model::PredictiveModel model(
      [] {
        model::ModelOptions mo;
        mo.kind = model::ModelKind::kM7Full;
        mo.gnn_layers = 3;
        mo.hidden = 16;
        mo.out_dim = 4;
        return mo;
      }(),
      rng);
  model::Trainer trainer(model, model::TrainOptions{});

  util::set_simd_level(SimdLevel::kScalar);
  util::set_parallel_threads(1);
  const Tensor ref = trainer.predict_graphs(ptrs);
  expect_bitwise(ref, trainer.predict_graphs_tape(ptrs), "scalar tape");

  for (SimdLevel lvl : available_levels()) {
    for (int threads : {1, 2, 4}) {
      util::set_parallel_threads(threads);
      ASSERT_EQ(util::set_simd_level(lvl), lvl);
      const std::string tag = std::string(util::simd_level_name(lvl)) +
                              " threads=" + std::to_string(threads);
      expect_bitwise(ref, trainer.predict_graphs(ptrs), "fast path " + tag);
      expect_bitwise(ref, trainer.predict_graphs_tape(ptrs), "tape " + tag);
    }
  }
}

}  // namespace
}  // namespace gnndse
