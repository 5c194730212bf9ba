// Parallel-execution layer: pool reuse, exception propagation, nesting,
// grain edge cases, and the determinism guarantee — multi-threaded matmul
// and predict_graphs are bit-identical to GNNDSE_THREADS=1 and to the
// pre-pool serial kernel.
#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dspace/design_space.hpp"
#include "kernels/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "model/dataset.hpp"
#include "model/predictive_model.hpp"
#include "model/trainer.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace gnndse {
namespace {

using util::parallel_for;
using util::set_parallel_threads;

/// Restores the default pool after each test so thread-count overrides
/// never leak into other suites.
class ParallelFor : public ::testing::Test {
 protected:
  ~ParallelFor() override { set_parallel_threads(0); }
};
using ParallelMatmul = ParallelFor;
using ParallelDeterminism = ParallelFor;

TEST_F(ParallelFor, CoversEveryIndexOnceAndReusesPool) {
  set_parallel_threads(4);
  EXPECT_EQ(util::parallel_threads(), 4);
  constexpr std::int64_t kN = 1000;
  // Two rounds over the same pool: the workers must survive the first
  // fan-out and pick up the second.
  for (int round = 0; round < 2; ++round) {
    std::vector<std::atomic<int>> hits(kN);
    parallel_for(kN, 1, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) hits[static_cast<std::size_t>(i)]++;
    });
    for (std::int64_t i = 0; i < kN; ++i)
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST_F(ParallelFor, EmptyRangeNeverInvokesBody) {
  set_parallel_threads(4);
  bool called = false;
  parallel_for(0, 1, [&](std::int64_t, std::int64_t) { called = true; });
  parallel_for(-5, 1, [&](std::int64_t, std::int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST_F(ParallelFor, SmallRangeRunsAsOneInlineChunk) {
  set_parallel_threads(8);
  std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
  std::mutex mu;
  auto record = [&](std::int64_t b, std::int64_t e) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(b, e);
  };
  parallel_for(5, 100, record);  // n < grain -> single [0, 5) chunk
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], (std::pair<std::int64_t, std::int64_t>{0, 5}));

  chunks.clear();
  parallel_for(7, 0, record);  // grain < 1 behaves as 1
  std::int64_t covered = 0;
  for (auto [b, e] : chunks) covered += e - b;
  EXPECT_EQ(covered, 7);
}

TEST_F(ParallelFor, ChunksAreAtLeastGrainSized) {
  set_parallel_threads(8);
  std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
  std::mutex mu;
  parallel_for(10, 3, [&](std::int64_t b, std::int64_t e) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(b, e);
  });
  // floor(10/3) = 3 chunks; every chunk >= 3 iterations, total 10.
  ASSERT_EQ(chunks.size(), 3u);
  std::int64_t covered = 0;
  for (auto [b, e] : chunks) {
    EXPECT_GE(e - b, 3);
    covered += e - b;
  }
  EXPECT_EQ(covered, 10);
}

TEST_F(ParallelFor, NestedCallRunsInline) {
  set_parallel_threads(4);
  EXPECT_FALSE(util::in_parallel_region());
  std::atomic<std::int64_t> total{0};
  parallel_for(8, 1, [&](std::int64_t b, std::int64_t e) {
    EXPECT_TRUE(util::in_parallel_region());
    for (std::int64_t i = b; i < e; ++i) {
      // The nested loop must execute inline on this thread: a single
      // chunk spanning the whole range.
      std::vector<std::pair<std::int64_t, std::int64_t>> inner;
      parallel_for(16, 1, [&](std::int64_t ib, std::int64_t ie) {
        inner.emplace_back(ib, ie);
      });
      ASSERT_EQ(inner.size(), 1u);
      EXPECT_EQ(inner[0].first, 0);
      EXPECT_EQ(inner[0].second, 16);
      total += inner[0].second;
    }
  });
  EXPECT_FALSE(util::in_parallel_region());
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST_F(ParallelFor, PropagatesFirstExceptionAndPoolSurvives) {
  set_parallel_threads(4);
  EXPECT_THROW(
      parallel_for(100, 1,
                   [&](std::int64_t b, std::int64_t) {
                     if (b >= 0) throw std::runtime_error("chunk failed");
                   }),
      std::runtime_error);
  // All chunks completed (or failed) before the rethrow; the pool must
  // still accept work.
  std::atomic<std::int64_t> sum{0};
  parallel_for(100, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) sum += i;
  });
  EXPECT_EQ(sum.load(), 99 * 100 / 2);
}

TEST_F(ParallelFor, ChunkSpansNestUnderSubmittersOpenSpan) {
  set_parallel_threads(4);
  obs::reset_all();
  obs::set_enabled(true);
  std::int64_t outer_id = -1;
  {
    obs::ScopedSpan outer("outer");
    outer_id = obs::current_span_id();
    parallel_for(64, 1, [](std::int64_t, std::int64_t) {
      obs::ScopedSpan chunk("chunk");
    });
  }
  int chunk_spans = 0;
  for (const auto& s : obs::trace_snapshot()) {
    if (s.name != "chunk") continue;
    ++chunk_spans;
    // Pool-side chunks adopt the submitting thread's span instead of
    // becoming root-level orphans on the worker rows.
    EXPECT_EQ(s.parent, outer_id);
  }
  EXPECT_EQ(chunk_spans, 4);  // 4 lanes over 64 unit-grain items
  obs::set_enabled(false);
  obs::reset_all();
}

TEST_F(ParallelFor, PoolRegistersQueueTelemetryAtConstruction) {
  // Even a single-lane pool (which never reaches submit()) must register
  // its gauges so report validation holds on one-core machines.
  set_parallel_threads(1);
  bool has_depth = false, has_util = false;
  for (const auto& g : obs::gauges_snapshot()) {
    if (g.name == "parallel.queue_depth") has_depth = true;
    if (g.name == "parallel.worker_utilization") has_util = true;
  }
  EXPECT_TRUE(has_depth);
  EXPECT_TRUE(has_util);
}

// ---------------------------------------------------------------------------
// Determinism: the acceptance bar is bit-identical output at every thread
// count, including against the pre-pool serial kernel.
// ---------------------------------------------------------------------------

/// The seed repo's serial matmul_acc (plain i-k-j with transpose copies),
/// kept verbatim as the bit-exactness reference.
tensor::Tensor reference_matmul(const tensor::Tensor& a,
                                const tensor::Tensor& b, bool trans_a,
                                bool trans_b) {
  const std::int64_t m = trans_a ? a.dim(1) : a.dim(0);
  const std::int64_t k = trans_a ? a.dim(0) : a.dim(1);
  const std::int64_t n = trans_b ? b.dim(0) : b.dim(1);
  std::vector<float> ap(static_cast<std::size_t>(m * k));
  std::vector<float> bp(static_cast<std::size_t>(k * n));
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t x = 0; x < k; ++x)
      ap[static_cast<std::size_t>(i * k + x)] =
          trans_a ? a.at(x, i) : a.at(i, x);
  for (std::int64_t x = 0; x < k; ++x)
    for (std::int64_t j = 0; j < n; ++j)
      bp[static_cast<std::size_t>(x * n + j)] =
          trans_b ? b.at(j, x) : b.at(x, j);
  tensor::Tensor out({m, n});
  float* o = out.data();
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t x = 0; x < k; ++x) {
      const float av_ix = ap[static_cast<std::size_t>(i * k + x)];
      if (av_ix == 0.0f) continue;
      for (std::int64_t j = 0; j < n; ++j)
        o[i * n + j] += av_ix * bp[static_cast<std::size_t>(x * n + j)];
    }
  return out;
}

tensor::Tensor random_tensor(std::int64_t r, std::int64_t c, util::Rng& rng) {
  tensor::Tensor t({r, c});
  for (std::int64_t i = 0; i < t.numel(); ++i)
    t.at(i) = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

bool bit_identical(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST_F(ParallelMatmul, BitIdenticalToSerialReferenceAtEveryThreadCount) {
  util::Rng rng(7);
  // Sizes chosen to cross the FLOP threshold (so the pool actually engages
  // at >1 threads) and to exercise ragged row splits and k > one L2 panel.
  const struct {
    std::int64_t m, k, n;
  } shapes[] = {{67, 33, 29}, {129, 300, 64}, {256, 64, 64}};
  for (const auto& s : shapes) {
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) {
        tensor::Tensor a = ta ? random_tensor(s.k, s.m, rng)
                              : random_tensor(s.m, s.k, rng);
        tensor::Tensor b = tb ? random_tensor(s.n, s.k, rng)
                              : random_tensor(s.k, s.n, rng);
        tensor::Tensor want = reference_matmul(a, b, ta, tb);
        for (int threads : {1, 2, 4, 8}) {
          set_parallel_threads(threads);
          tensor::Tensor got = tensor::matmul(a, b, ta, tb);
          EXPECT_TRUE(bit_identical(want, got))
              << s.m << "x" << s.k << "x" << s.n << " ta=" << ta
              << " tb=" << tb << " threads=" << threads;
        }
      }
    }
  }
}

TEST_F(ParallelFor, EnvThreadRequestClampsToHardwareConcurrency) {
  // GNNDSE_THREADS above the hardware thread count clamps to it (an
  // oversubscribed static-chunk pool is pure scheduler churn) unless the
  // OVERSUBSCRIBE escape hatch keeps the literal request. Explicit
  // set_parallel_threads() calls stay exempt — the other tests in this
  // suite pin 4- and 8-lane pools on any machine.
  int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw < 1) hw = 1;
  const std::string request = std::to_string(hw + 6);
  ::setenv("GNNDSE_THREADS", request.c_str(), 1);
  ::unsetenv("GNNDSE_THREADS_OVERSUBSCRIBE");
  set_parallel_threads(0);  // drop the pool; next use resolves env defaults
  EXPECT_EQ(util::parallel_threads(), hw);

  ::setenv("GNNDSE_THREADS_OVERSUBSCRIBE", "1", 1);
  set_parallel_threads(0);
  EXPECT_EQ(util::parallel_threads(), hw + 6);

  ::unsetenv("GNNDSE_THREADS");
  ::unsetenv("GNNDSE_THREADS_OVERSUBSCRIBE");
}

TEST_F(ParallelDeterminism, PredictGraphsBitIdenticalAcrossThreadCounts) {
  const kir::Kernel kernel = kernels::Registry::global().get("mvt");
  model::SampleFactory factory;
  util::Rng rng(11);
  const auto& space = factory.space(kernel);
  std::vector<gnn::GraphData> graphs;
  for (int i = 0; i < 48; ++i)
    graphs.push_back(factory.featurize(kernel, space.sample(rng)));
  std::vector<const gnn::GraphData*> ptrs;
  for (const auto& g : graphs) ptrs.push_back(&g);

  // Randomly initialized model: predict_graphs only needs weights, and
  // the forward pass is where every parallel layer (batching + matmul)
  // meets.
  model::ModelOptions mo;
  mo.hidden = 32;
  mo.gnn_layers = 3;
  util::Rng wrng(5);
  model::PredictiveModel m(mo, wrng);
  model::Trainer trainer(m, model::TrainOptions{});

  set_parallel_threads(1);
  tensor::Tensor serial = trainer.predict_graphs(ptrs);
  ASSERT_EQ(serial.rows(), static_cast<std::int64_t>(ptrs.size()));
  for (int threads : {2, 4, 8}) {
    set_parallel_threads(threads);
    tensor::Tensor parallel = trainer.predict_graphs(ptrs);
    EXPECT_TRUE(bit_identical(serial, parallel)) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace gnndse
