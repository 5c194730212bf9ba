// The oracle layer (src/oracle/): kernel digests, the caching decorator's
// persistence and bit-identical replay, deterministic fault injection,
// bounded retry, and batch-vs-serial equivalence at every thread count.
// Labeled `tsan` — CachingEvaluator and FaultInjectingEvaluator are the
// shared mutable state every parallel batch hammers.
#include "oracle/caching.hpp"
#include "oracle/evaluator.hpp"
#include "oracle/fault.hpp"
#include "oracle/stack.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <vector>

#include "db/explorer.hpp"
#include "dspace/design_space.hpp"
#include "kernels/registry.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace gnndse::oracle {
namespace {

using hlssim::DesignConfig;
using hlssim::HlsResult;

void expect_identical(const HlsResult& a, const HlsResult& b) {
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.invalid_reason, b.invalid_reason);
  EXPECT_DOUBLE_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.dsp, b.dsp);
  EXPECT_EQ(a.bram, b.bram);
  EXPECT_EQ(a.lut, b.lut);
  EXPECT_EQ(a.ff, b.ff);
  EXPECT_DOUBLE_EQ(a.synth_seconds, b.synth_seconds);
  EXPECT_DOUBLE_EQ(a.util_dsp, b.util_dsp);
  EXPECT_DOUBLE_EQ(a.util_bram, b.util_bram);
  EXPECT_DOUBLE_EQ(a.util_lut, b.util_lut);
  EXPECT_DOUBLE_EQ(a.util_ff, b.util_ff);
}

std::vector<DesignConfig> sample_configs(const kir::Kernel& k, int n,
                                         std::uint64_t seed = 11) {
  dspace::DesignSpace space(k);
  util::Rng rng(seed);
  std::vector<DesignConfig> cfgs;
  cfgs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) cfgs.push_back(space.sample(rng));
  return cfgs;
}

/// Counts the evaluations that actually reach the substrate — what the
/// warm-start acceptance criterion calls "fresh hlssim evaluations".
class CountingEvaluator final : public Evaluator {
 public:
  HlsResult evaluate(const kir::Kernel& k, const DesignConfig& cfg) override {
    calls.fetch_add(1, std::memory_order_relaxed);
    return sim_.evaluate(k, cfg);
  }
  std::atomic<int> calls{0};

 private:
  SimEvaluator sim_;
};

/// Faults unconditionally — exercises retry exhaustion without relying on
/// a fault rate.
class AlwaysFaulting final : public Evaluator {
 public:
  HlsResult evaluate(const kir::Kernel&, const DesignConfig&) override {
    HlsResult r;
    r.valid = false;
    r.invalid_reason = "fault: HLS tool crashed (test double)";
    r.synth_seconds = 60.0;
    return r;
  }
};

/// Faults the first `failures` attempts per config key, then defers to the
/// substrate — the transient-crash shape retry is meant to absorb.
class FlakyEvaluator final : public Evaluator {
 public:
  explicit FlakyEvaluator(int failures) : failures_(failures) {}
  HlsResult evaluate(const kir::Kernel& k, const DesignConfig& cfg) override {
    int seen;
    {
      std::lock_guard<std::mutex> lock(mu_);
      seen = attempts_[cfg.key()]++;
    }
    if (seen < failures_) {
      HlsResult r;
      r.valid = false;
      r.invalid_reason = "fault: HLS tool crashed (flaky test double)";
      r.synth_seconds = 60.0;
      return r;
    }
    return sim_.evaluate(k, cfg);
  }

 private:
  int failures_;
  SimEvaluator sim_;
  std::mutex mu_;
  std::unordered_map<std::string, int> attempts_;
};

TEST(KernelDigest, StableAndSensitiveToStructure) {
  kir::Kernel a = kernels::Registry::global().get("gemm-ncubed");
  kir::Kernel b = kernels::Registry::global().get("gemm-ncubed");
  EXPECT_EQ(kernel_digest(a), kernel_digest(b));
  EXPECT_EQ(digest_key(a), digest_key(b));
  // The key leads with the kernel name (it rides in the CSV kernel column).
  EXPECT_EQ(digest_key(a).rfind("gemm-ncubed@", 0), 0u);

  // A structural edit — not just a rename — must change the digest.
  b.loops[0].trip_count += 1;
  EXPECT_NE(kernel_digest(a), kernel_digest(b));
  kir::Kernel c = kernels::Registry::global().get("gemm-ncubed");
  c.name = "gemm-renamed";
  EXPECT_NE(digest_key(a), digest_key(c));

  EXPECT_NE(kernel_digest(a),
            kernel_digest(kernels::Registry::global().get("aes")));
}

TEST(Caching, CachedResultIsBitIdenticalToFresh) {
  kir::Kernel k = kernels::Registry::global().get("spmv-crs");
  SimEvaluator fresh;
  CountingEvaluator counted;
  CachingEvaluator cache(counted);
  for (const auto& cfg : sample_configs(k, 40)) {
    HlsResult first = cache.evaluate(k, cfg);
    HlsResult second = cache.evaluate(k, cfg);  // served from memory
    expect_identical(first, fresh.evaluate(k, cfg));
    expect_identical(first, second);
  }
  EXPECT_GT(cache.size(), 0u);
}

TEST(Caching, PersistRoundTripServesWithoutFreshEvaluations) {
  kir::Kernel k = kernels::Registry::global().get("atax");
  const std::string path = ::testing::TempDir() + "oracle_cache_rt.csv";
  std::remove(path.c_str());
  auto cfgs = sample_configs(k, 30);

  std::vector<HlsResult> first;
  {
    SimEvaluator sim;
    CachingEvaluator cache(sim, path);
    for (const auto& cfg : cfgs) first.push_back(cache.evaluate(k, cfg));
  }  // destructor flushes to disk

  CountingEvaluator counted;
  CachingEvaluator warm(counted, path);
  EXPECT_GT(warm.size(), 0u);  // unique sampled keys, loaded from disk
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    ASSERT_TRUE(warm.contains(k, cfgs[i]));
    expect_identical(warm.evaluate(k, cfgs[i]), first[i]);
  }
  EXPECT_EQ(counted.calls.load(), 0);  // zero fresh substrate evaluations
  std::remove(path.c_str());
}

TEST(Caching, KernelEditInvalidatesOnlyThatKernel) {
  kir::Kernel k = kernels::Registry::global().get("bicg");
  kir::Kernel other = kernels::Registry::global().get("aes");
  const std::string path = ::testing::TempDir() + "oracle_cache_inval.csv";
  std::remove(path.c_str());
  auto cfgs = sample_configs(k, 10);
  {
    SimEvaluator sim;
    CachingEvaluator cache(sim, path);
    for (const auto& cfg : cfgs) cache.evaluate(k, cfg);
    cache.evaluate(other, DesignConfig::neutral(other));
  }

  // Same structure -> warm. Edited structure -> every entry is a miss,
  // while the untouched kernel's entries survive.
  kir::Kernel edited = kernels::Registry::global().get("bicg");
  edited.loops[0].trip_count *= 2;
  CountingEvaluator counted;
  CachingEvaluator warm(counted, path);
  EXPECT_TRUE(warm.contains(k, cfgs[0]));
  EXPECT_TRUE(warm.contains(other, DesignConfig::neutral(other)));
  EXPECT_FALSE(warm.contains(edited, cfgs[0]));
  warm.evaluate(edited, cfgs[0]);
  EXPECT_EQ(counted.calls.load(), 1);
  std::remove(path.c_str());
}

TEST(Caching, FaultsAreNeverCached) {
  kir::Kernel k = kernels::Registry::global().get("aes");
  AlwaysFaulting faulty;
  CachingEvaluator cache(faulty);
  DesignConfig cfg = DesignConfig::neutral(k);
  HlsResult r = cache.evaluate(k, cfg);
  EXPECT_TRUE(is_fault(r));
  EXPECT_EQ(cache.size(), 0u);  // transient: property of the invocation
  EXPECT_FALSE(cache.contains(k, cfg));
}

TEST(Fault, DeterministicAtFixedSeed) {
  kir::Kernel k = kernels::Registry::global().get("mvt");
  auto cfgs = sample_configs(k, 200);

  auto pattern = [&](std::uint64_t seed) {
    SimEvaluator sim;
    FaultInjectingEvaluator inject(sim, 0.3, seed);
    std::vector<bool> faults;
    for (const auto& cfg : cfgs) faults.push_back(is_fault(inject.evaluate(k, cfg)));
    return faults;
  };

  auto a = pattern(0x5eed);
  auto b = pattern(0x5eed);
  EXPECT_EQ(a, b);  // same seed -> identical fault pattern
  auto c = pattern(0xc0ffee);
  EXPECT_NE(a, c);  // different seed -> different pattern
  int faulted = 0;
  for (bool f : a) faulted += f ? 1 : 0;
  // ~30% of 200 draws; wide bounds keep this deterministic-hash test tight
  // against regressions without assuming the exact hash.
  EXPECT_GT(faulted, 20);
  EXPECT_LT(faulted, 120);
}

TEST(Fault, RateEndpointsAndRetryReroll) {
  kir::Kernel k = kernels::Registry::global().get("aes");
  DesignConfig cfg = DesignConfig::neutral(k);
  SimEvaluator sim;

  FaultInjectingEvaluator off(sim, 0.0);
  EXPECT_FALSE(is_fault(off.evaluate(k, cfg)));

  FaultInjectingEvaluator always(sim, 1.0);
  HlsResult r = always.evaluate(k, cfg);
  EXPECT_TRUE(is_fault(r));
  EXPECT_FALSE(r.valid);
  EXPECT_EQ(r.invalid_reason.rfind("fault:", 0), 0u);
  EXPECT_DOUBLE_EQ(r.synth_seconds,
                   FaultInjectingEvaluator::kFaultSynthSeconds);

  // Each attempt on the same key gets an independent draw: at rate 0.5 a
  // run of repeated calls cannot be all-fault or all-pass.
  FaultInjectingEvaluator half(sim, 0.5, 7);
  int faults = 0;
  for (int i = 0; i < 64; ++i) faults += is_fault(half.evaluate(k, cfg));
  EXPECT_GT(faults, 0);
  EXPECT_LT(faults, 64);
}

TEST(Retry, AbsorbsTransientFaultsAndBillsBackoff) {
  kir::Kernel k = kernels::Registry::global().get("gemm-blocked");
  DesignConfig cfg = DesignConfig::neutral(k);
  SimEvaluator sim;
  HlsResult bare = sim.evaluate(k, cfg);

  FlakyEvaluator flaky(2);  // crashes twice, then succeeds
  RetryingEvaluator retry(flaky, 3);
  HlsResult r = retry.evaluate(k, cfg);
  EXPECT_EQ(r.valid, bare.valid);
  EXPECT_DOUBLE_EQ(r.cycles, bare.cycles);
  // Two crashed attempts (60s each) plus backoff 30s*2^0 + 30s*2^1 ride on
  // top of the successful attempt's synthesis time.
  EXPECT_DOUBLE_EQ(r.synth_seconds, bare.synth_seconds + 2 * 60.0 + 30.0 + 60.0);
}

TEST(Retry, ExhaustionSurfacesFaultNotException) {
  kir::Kernel k = kernels::Registry::global().get("aes");
  AlwaysFaulting faulty;
  RetryingEvaluator retry(faulty, 2);
  HlsResult r;
  ASSERT_NO_THROW(r = retry.evaluate(k, DesignConfig::neutral(k)));
  EXPECT_FALSE(r.valid);
  EXPECT_EQ(r.invalid_reason.rfind("fault:", 0), 0u);
  EXPECT_NE(r.invalid_reason.find("retries exhausted"), std::string::npos);
  EXPECT_TRUE(is_fault(r));  // exhaustion stays in the fault class
}

TEST(Retry, PassesThroughNonFaultFailures) {
  // Refusals and timeouts carry information about the design point; the
  // retry layer must not spend budget on them.
  class Refusing final : public Evaluator {
   public:
    HlsResult evaluate(const kir::Kernel&, const DesignConfig&) override {
      ++calls;
      HlsResult r;
      r.valid = false;
      r.invalid_reason = "refused: unroll product over limit";
      r.synth_seconds = 5.0;
      return r;
    }
    int calls = 0;
  };
  Refusing inner;
  RetryingEvaluator retry(inner, 3);
  kir::Kernel k = kernels::Registry::global().get("aes");
  HlsResult r = retry.evaluate(k, DesignConfig::neutral(k));
  EXPECT_EQ(inner.calls, 1);
  EXPECT_EQ(r.invalid_reason.rfind("refused:", 0), 0u);
  EXPECT_DOUBLE_EQ(r.synth_seconds, 5.0);
}

TEST(Batch, MatchesSerialAtEveryThreadCount) {
  kir::Kernel k = kernels::Registry::global().get("stencil");
  auto cfgs = sample_configs(k, 64);
  SimEvaluator serial_sim;
  std::vector<HlsResult> serial;
  for (const auto& cfg : cfgs) serial.push_back(serial_sim.evaluate(k, cfg));

  for (int threads : {1, 2, 4, 8}) {
    util::set_parallel_threads(threads);
    SimEvaluator sim;
    CachingEvaluator cache(sim);
    auto batch = cache.evaluate_batch(k, cfgs);
    ASSERT_EQ(batch.size(), serial.size()) << threads << " threads";
    for (std::size_t i = 0; i < serial.size(); ++i)
      expect_identical(batch[i], serial[i]);
  }
  util::set_parallel_threads(0);  // back to the GNNDSE_THREADS default
}

TEST(Stack, FaultFreeStackIsBitIdenticalToBareSubstrate) {
  kir::Kernel k = kernels::Registry::global().get("spmv-ellpack");
  OracleOptions opts;  // defaults: no cache file, fault rate 0
  OracleStack stack(opts);
  SimEvaluator bare;
  for (const auto& cfg : sample_configs(k, 40))
    expect_identical(stack.evaluate(k, cfg), bare.evaluate(k, cfg));
}

TEST(Stack, RecoversFromInjectedFaultsAtModerateRate) {
  // With bounded retries, a 20% per-attempt fault rate still resolves the
  // overwhelming majority of points to their fault-free results.
  kir::Kernel k = kernels::Registry::global().get("gemver");
  OracleOptions opts;
  opts.fault_rate = 0.2;
  opts.retries = 6;
  OracleStack stack(opts);
  SimEvaluator bare;
  auto cfgs = sample_configs(k, 50);
  int recovered = 0;
  for (const auto& cfg : cfgs) {
    HlsResult r = stack.evaluate(k, cfg);
    if (is_fault(r)) continue;
    HlsResult b = bare.evaluate(k, cfg);
    EXPECT_EQ(r.valid, b.valid);
    EXPECT_DOUBLE_EQ(r.cycles, b.cycles);
    EXPECT_GE(r.synth_seconds, b.synth_seconds);  // backoff only adds time
    ++recovered;
  }
  EXPECT_GE(recovered, 45);  // p(exhaust 7 attempts at 0.2) = 0.2^7
}

TEST(WarmStart, SecondDatabaseRunPerformsZeroFreshEvaluations) {
  // The acceptance criterion behind GNNDSE_ORACLE_CACHE: rerunning
  // generate_initial_database against a warm persistent cache touches the
  // substrate zero times and reproduces the database exactly.
  const std::string path = ::testing::TempDir() + "oracle_warmstart.csv";
  std::remove(path.c_str());
  std::vector<kir::Kernel> kernels{kernels::Registry::global().get("atax"),
                                   kernels::Registry::global().get("spmv-crs")};
  auto budget = [](const std::string&) { return 50; };

  db::Database cold;
  {
    CountingEvaluator counted;
    CachingEvaluator cache(counted, path);
    util::Rng rng(13);
    cold = db::generate_initial_database(kernels, cache, rng, budget);
    EXPECT_GT(counted.calls.load(), 0);
  }

  CountingEvaluator counted;
  CachingEvaluator warm(counted, path);
  util::Rng rng(13);
  db::Database rerun = db::generate_initial_database(kernels, warm, rng, budget);
  EXPECT_EQ(counted.calls.load(), 0) << "warm cache must serve every point";
  ASSERT_EQ(rerun.size(), cold.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(rerun.points()[i].kernel, cold.points()[i].kernel);
    EXPECT_EQ(rerun.points()[i].config, cold.points()[i].config);
    expect_identical(rerun.points()[i].result, cold.points()[i].result);
  }
  std::remove(path.c_str());
}

TEST(WarmStart, StackWiresCachePathFromOptions) {
  const std::string path = ::testing::TempDir() + "oracle_stack_cache.csv";
  std::remove(path.c_str());
  kir::Kernel k = kernels::Registry::global().get("aes");
  DesignConfig cfg = DesignConfig::neutral(k);
  HlsResult first;
  {
    OracleOptions opts;
    opts.cache_path = path;
    OracleStack stack(opts);
    first = stack.evaluate(k, cfg);
    EXPECT_EQ(stack.cache().persist_path(), path);
  }
  OracleOptions opts;
  opts.cache_path = path;
  OracleStack warm(opts);
  EXPECT_TRUE(warm.cache().contains(k, cfg));
  expect_identical(warm.evaluate(k, cfg), first);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gnndse::oracle
