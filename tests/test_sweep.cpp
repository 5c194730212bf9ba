// Sweep engine: bit-identical ranked results across thread counts (the
// three heads run as concurrent pool tasks), deterministic budgets, prompt
// cancellation, and a shared-factory stress case (tsan-labeled).
// Kept cheap: tiny models, small budgets.
#include "dse/dse.hpp"
#include "dse/pipeline.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <limits>
#include <thread>

#include "dspace/design_space.hpp"
#include "kernels/registry.hpp"
#include "oracle/evaluator.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace gnndse::dse {
namespace {

PipelineOptions tiny_pipeline() {
  PipelineOptions po;
  po.main_epochs = 4;
  po.bram_epochs = 2;
  po.classifier_epochs = 2;
  po.hidden = 16;
  po.gnn_layers = 3;
  return po;
}

db::Database tiny_db(const std::vector<kir::Kernel>& kernels, int budget) {
  oracle::SimEvaluator hls;
  util::Rng rng(33);
  return db::generate_initial_database(
      kernels, hls, rng, [budget](const std::string&) { return budget; });
}

/// Restores the env-default pool even when an assertion bails out early.
struct ThreadGuard {
  ~ThreadGuard() { util::set_parallel_threads(0); }
};

std::uint32_t float_bits(float v) {
  std::uint32_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

void expect_same_ranked(const std::vector<RankedDesign>& a,
                        const std::vector<RankedDesign>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("rank " + std::to_string(i));
    EXPECT_EQ(a[i].config.key(), b[i].config.key());
    for (std::size_t j = 0; j < model::kNumObjectives; ++j)
      EXPECT_EQ(float_bits(a[i].predicted[j]), float_bits(b[i].predicted[j]));
    EXPECT_EQ(float_bits(a[i].p_valid), float_bits(b[i].p_valid));
  }
}

void expect_same_result(const DseResult& a, const DseResult& b) {
  EXPECT_EQ(a.num_explored, b.num_explored);
  {
    SCOPED_TRACE("top");
    expect_same_ranked(a.top, b.top);
  }
  {
    SCOPED_TRACE("reserve");
    expect_same_ranked(a.reserve, b.reserve);
  }
}

class SweepFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    kernels_ = {kernels::Registry::global().get("gemm-ncubed"),
                kernels::Registry::global().get("spmv-crs")};
    database_ = tiny_db(kernels_, 150);
    models_ = std::make_unique<TrainedModels>(database_, kernels_, factory_,
                                              tiny_pipeline());
    dse_ = std::make_unique<ModelDse>(models_->bundle(),
                                      models_->normalizer(), factory_);
  }

  std::vector<kir::Kernel> kernels_;
  db::Database database_;
  model::SampleFactory factory_;
  std::unique_ptr<TrainedModels> models_;
  std::unique_ptr<ModelDse> dse_;
};

/// Runs `opts` on `kernel` at 1 thread as the reference, requires
/// bit-identical ranked results at 2 and 4 threads, and returns the
/// reference.
DseResult expect_identical_across_threads(ModelDse& dse,
                                          const kir::Kernel& kernel,
                                          const DseOptions& opts) {
  ThreadGuard guard;
  util::set_parallel_threads(1);
  util::Rng rng_ref(3);
  DseResult ref = dse.run(kernel, opts, rng_ref);
  for (int threads : {2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    util::set_parallel_threads(threads);
    util::Rng rng(3);
    expect_same_result(ref, dse.run(kernel, opts, rng));
  }
  return ref;
}

TEST_F(SweepFixture, ExhaustiveIdenticalAcrossThreads) {
  // The engine's contract: the same ranked designs with the same predicted
  // bits whether the three heads run inline (1 thread) or as concurrent
  // pool tasks.
  DseOptions opts;
  opts.top_m = 5;
  const DseResult ref =
      expect_identical_across_threads(*dse_, kernels_[1], opts);  // spmv-crs
  EXPECT_GT(ref.num_explored, 0u);
}

TEST_F(SweepFixture, HeuristicIdenticalUnderDeterministicBudget) {
  // max_configs pins the heuristic path (beam + random phases) to an exact
  // candidate stream, so thread counts must agree there too. Beam refreshes
  // score partial chunks, so chunk sizes alternate.
  DseOptions opts;
  opts.top_m = 5;
  opts.max_exhaustive = 100;  // force the heuristic path
  opts.time_limit_seconds = 1e9;
  opts.max_configs = 600;
  const DseResult ref =
      expect_identical_across_threads(*dse_, kernels_[0], opts);  // gemm-ncubed
  EXPECT_EQ(ref.num_explored, 600u);
}

TEST_F(SweepFixture, MaxConfigsBudgetIsExact) {
  const kir::Kernel& spmv = kernels_[1];
  dspace::DesignSpace space(spmv);
  ASSERT_GT(space.pruned_size(), 50u);  // the cap must actually bind
  DseOptions opts;
  opts.top_m = 5;
  opts.max_configs = 50;
  util::Rng rng(3);
  const DseResult r = dse_->run(spmv, opts, rng);
  EXPECT_EQ(r.num_explored, 50u);
  EXPECT_FALSE(r.cancelled);
}

TEST_F(SweepFixture, PreCancelledRunReturnsImmediately) {
  // The for_each early-exit satellite: with the flag already set, the run
  // must return without decoding the space (the old enumeration kept
  // walking every raw index after cancel).
  kir::Kernel big = kernels::Registry::global().get("gemm-blocked");
  DseOptions opts;
  opts.max_exhaustive = std::numeric_limits<std::uint64_t>::max();
  opts.time_limit_seconds = 1e9;
  std::atomic<bool> cancel{true};
  opts.cancel = &cancel;
  util::Rng rng(3);
  util::Timer t;
  const DseResult r = dse_->run(big, opts, rng);
  EXPECT_TRUE(r.cancelled);
  EXPECT_EQ(r.num_explored, 0u);
  EXPECT_TRUE(r.top.empty());
  EXPECT_LT(t.seconds(), 5.0);
}

TEST_F(SweepFixture, CancelMidSweepDropsPendingWork) {
  // Cancel raised mid-sweep: the engine drops pending work, keeps what it
  // already scored, and returns a consistent ranking. The cancel fires once
  // the first chunk is scored (not after a fixed delay), so the point it
  // lands on does not depend on how fast the sweep runs.
  kir::Kernel big = kernels::Registry::global().get("gemm-blocked");
  dspace::DesignSpace space(big);
  DseOptions opts;
  opts.top_m = 5;
  opts.max_exhaustive = std::numeric_limits<std::uint64_t>::max();
  opts.time_limit_seconds = 1e9;
  std::atomic<bool> cancel{false};
  std::atomic<bool> done{false};
  SweepProgress progress;
  opts.cancel = &cancel;
  opts.progress = &progress;
  std::thread killer([&] {
    while (progress.configs_explored.load() == 0 && !done.load())
      std::this_thread::yield();
    cancel.store(true);
  });
  util::Rng rng(3);
  util::Timer t;
  const DseResult r = dse_->run(big, opts, rng);
  done.store(true);
  killer.join();
  EXPECT_TRUE(r.cancelled);
  EXPECT_GT(r.num_explored, 0u);
  EXPECT_LT(r.num_explored, space.pruned_size());
  EXPECT_FALSE(r.top.empty());
  EXPECT_LT(t.seconds(), 30.0);
  // Whatever was scored before the cancel is still ranked best-first.
  for (std::size_t i = 1; i < r.top.size(); ++i)
    EXPECT_GE(ranking_score(r.top[i - 1], opts.util_threshold),
              ranking_score(r.top[i], opts.util_threshold));
}

TEST_F(SweepFixture, StageStatsAreReported) {
  const kir::Kernel& spmv = kernels_[1];
  DseOptions opts;
  opts.top_m = 5;
  util::Rng rng(3);
  const DseResult r = dse_->run(spmv, opts, rng);
  EXPECT_GT(r.stages.chunks, 0u);
  EXPECT_GT(r.stages.wall_ms, 0.0);
  EXPECT_GT(r.stages.predict_ms, 0.0);
  EXPECT_GE(r.stages.featurize_ms, 0.0);
  EXPECT_LE(r.stages.featurize_ms + r.stages.predict_ms + r.stages.rank_ms,
            r.stages.wall_ms);
}

TEST_F(SweepFixture, SweepIdenticalUnderConcurrentFactoryTraffic) {
  // The serve daemon featurizes predict traffic through shared factories
  // while sweeps run. Hammer this factory's featurize() path and template
  // LRU from two threads during a multi-threaded sweep (batch_for stays
  // with the sweep, its single consumer): the result must still match the
  // quiet 1-thread reference, and TSan must stay quiet — this binary is in
  // the tsan label.
  const kir::Kernel& spmv = kernels_[1];
  const kir::Kernel& gemm = kernels_[0];
  ThreadGuard guard;
  DseOptions opts;
  opts.top_m = 5;
  util::set_parallel_threads(1);
  util::Rng rng_ref(3);
  const DseResult ref = dse_->run(spmv, opts, rng_ref);

  util::set_parallel_threads(2);
  std::atomic<bool> stop{false};
  auto fire = [&](const kir::Kernel& k) {
    const auto neutral = hlssim::DesignConfig::neutral(k);
    while (!stop.load(std::memory_order_relaxed)) {
      (void)factory_.featurize(k, neutral);
      (void)factory_.space(k);
    }
  };
  std::thread t1(fire, std::cref(spmv));
  std::thread t2(fire, std::cref(gemm));
  util::Rng rng(3);
  const DseResult r = dse_->run(spmv, opts, rng);
  stop.store(true);
  t1.join();
  t2.join();
  expect_same_result(ref, r);
}

}  // namespace
}  // namespace gnndse::dse
