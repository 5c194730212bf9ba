// Database and explorers (§4.1): dedup, counts, CSV round trip, fitness,
// and explorer behavior against the HLS substrate.
#include "db/database.hpp"
#include "db/explorer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "kernels/kernels.hpp"
#include "kernels/registry.hpp"
#include "oracle/evaluator.hpp"

namespace gnndse::db {
namespace {

using hlssim::DesignConfig;
using hlssim::HlsResult;

HlsResult fake_result(bool valid, double cycles, double util = 0.1) {
  HlsResult r;
  r.valid = valid;
  r.cycles = cycles;
  r.util_dsp = r.util_bram = r.util_lut = r.util_ff = util;
  r.synth_seconds = 100.0;
  return r;
}

DataPoint point(const std::string& kernel, int parallel, bool valid,
                double cycles, double util = 0.1) {
  kir::Kernel k = kernels::Registry::global().get(kernel);
  DesignConfig cfg = DesignConfig::neutral(k);
  cfg.loops[0].parallel = parallel;
  return DataPoint{kernel, cfg, fake_result(valid, cycles, util)};
}

TEST(Database, AddDeduplicates) {
  Database db;
  EXPECT_TRUE(db.add(point("aes", 1, true, 1000)));
  EXPECT_FALSE(db.add(point("aes", 1, true, 2000)));  // same config
  EXPECT_TRUE(db.add(point("aes", 2, true, 900)));
  EXPECT_EQ(db.size(), 2u);
  EXPECT_TRUE(db.contains("aes", point("aes", 1, true, 0).config));
  EXPECT_FALSE(db.contains("nw", point("nw", 1, true, 0).config));
}

TEST(Database, CountsPerKernel) {
  Database db;
  db.add(point("aes", 1, true, 1000));
  db.add(point("aes", 2, false, 0));
  db.add(point("nw", 1, true, 5000));
  auto c = db.counts("aes");
  EXPECT_EQ(c.total, 2u);
  EXPECT_EQ(c.valid, 1u);
  auto t = db.counts_total();
  EXPECT_EQ(t.total, 3u);
  EXPECT_EQ(t.valid, 2u);
}

TEST(Database, BestValidRespectsUtilThreshold) {
  Database db;
  db.add(point("aes", 1, true, 1000, 0.3));
  db.add(point("aes", 2, true, 500, 0.95));  // faster but over budget
  db.add(point("aes", 4, false, 100));       // invalid
  auto best = db.best_valid("aes", 0.8);
  ASSERT_TRUE(best.has_value());
  EXPECT_DOUBLE_EQ(best->result.cycles, 1000.0);
  EXPECT_FALSE(db.best_valid("mvt").has_value());
}

TEST(Database, CsvRoundTrip) {
  Database db;
  db.add(point("aes", 1, true, 1234.0));
  auto bad = point("aes", 2, false, 0);
  bad.result.invalid_reason = "timeout: synthesis exceeded 4h budget";
  db.add(bad);
  const std::string path = ::testing::TempDir() + "db_roundtrip.csv";
  db.save_csv(path);
  Database loaded = Database::load_csv(path);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.points()[0].kernel, "aes");
  EXPECT_DOUBLE_EQ(loaded.points()[0].result.cycles, 1234.0);
  EXPECT_EQ(loaded.points()[0].config, db.points()[0].config);
  EXPECT_FALSE(loaded.points()[1].result.valid);
  EXPECT_EQ(loaded.points()[1].result.invalid_reason,
            "timeout: synthesis exceeded 4h budget");
  std::remove(path.c_str());
}

TEST(Fitness, OrdersDesignsCorrectly) {
  EXPECT_TRUE(std::isinf(fitness(fake_result(false, 100))));
  EXPECT_DOUBLE_EQ(fitness(fake_result(true, 100, 0.5)), 100.0);
  // Over-utilized: penalized but finite.
  const double f = fitness(fake_result(true, 100, 1.2));
  EXPECT_GT(f, 100.0);
  EXPECT_TRUE(std::isfinite(f));
}

TEST(Fits, ChecksEveryResource) {
  auto r = fake_result(true, 100, 0.5);
  EXPECT_TRUE(fits(r));
  r.util_bram = 0.9;
  EXPECT_FALSE(fits(r));
  r.util_bram = 0.5;
  r.valid = false;
  EXPECT_FALSE(fits(r));
}

// --- explorers -----------------------------------------------------------------

class ExplorerTest : public ::testing::Test {
 protected:
  oracle::SimEvaluator hls_;
  kir::Kernel kernel_ = kernels::Registry::global().get("gemm-ncubed");
  dspace::DesignSpace space_{kernel_};
};

TEST_F(ExplorerTest, BottleneckImprovesOverNeutral) {
  Explorer ex(kernel_, space_, hls_);
  Database db;
  ExplorerOptions opts;
  opts.max_evals = 120;
  DesignConfig best =
      ex.run_bottleneck(opts, [&db](const DataPoint& p) { db.add(p); });
  const double neutral =
      hls_.evaluate(kernel_, DesignConfig::neutral(kernel_)).cycles;
  const auto r = hls_.evaluate(kernel_, best);
  ASSERT_TRUE(r.valid);
  EXPECT_LT(r.cycles, neutral / 2.0);  // greedy must find real speedups
  EXPECT_GT(db.size(), 20u);
  EXPECT_LE(static_cast<int>(db.size()), opts.max_evals);
}

TEST_F(ExplorerTest, BottleneckAccountsSimulatedTime) {
  Explorer ex(kernel_, space_, hls_);
  ExplorerOptions opts;
  opts.max_evals = 40;
  double seconds = 0.0;
  ex.run_bottleneck(opts, nullptr, &seconds);
  EXPECT_GT(seconds, 0.0);
  // Batch accounting: simulated time must be far below the serial sum but
  // at least one synthesis long.
  EXPECT_GE(seconds, 60.0);
}

TEST_F(ExplorerTest, HybridExploresNeighborsOfImprovements) {
  Explorer ex(kernel_, space_, hls_);
  Database db;
  ExplorerOptions opts;
  opts.max_evals = 100;
  util::Rng rng(3);
  ex.run_hybrid(opts, [&db](const DataPoint& p) { db.add(p); }, rng);
  EXPECT_GT(db.size(), 20u);
}

TEST_F(ExplorerTest, RandomRespectsBudgetAndDedup) {
  Explorer ex(kernel_, space_, hls_);
  Database db;
  util::Rng rng(5);
  ex.run_random(50, [&db](const DataPoint& p) { db.add(p); }, rng);
  EXPECT_LE(db.size(), 50u);
  EXPECT_GT(db.size(), 30u);  // hardly any collisions in a 14k space
  EXPECT_EQ(db.size(), static_cast<std::size_t>(ex.evals_used()));
}

TEST(InitialDatabase, RespectsBudgetsAndCoversKernels) {
  oracle::SimEvaluator hls;
  util::Rng rng(7);
  auto kernels = kernels::make_training_kernels();
  Database db = generate_initial_database(
      kernels, hls, rng, [](const std::string&) { return 60; });
  for (const auto& k : kernels) {
    auto c = db.counts(k.name);
    EXPECT_GT(c.total, 0u) << k.name;
    EXPECT_LE(c.total, 60u) << k.name;
  }
}

TEST(InitialDatabase, DefaultBudgetsMatchTable1) {
  EXPECT_EQ(default_budget("aes"), 15);
  EXPECT_EQ(default_budget("stencil"), 1066);
  EXPECT_EQ(default_budget("nw"), 911);
  EXPECT_EQ(default_budget("unknown-kernel"), 400);
}

TEST(InitialDatabase, ContainsInvalidDesignsForClassifier) {
  // The model needs to see "bad" designs (§4.1); nw especially produces
  // many invalid points.
  oracle::SimEvaluator hls;
  util::Rng rng(7);
  Database db = generate_initial_database(
      {kernels::Registry::global().get("nw")}, hls, rng,
      [](const std::string&) { return 120; });
  auto c = db.counts("nw");
  EXPECT_GT(c.total, c.valid);  // some invalid designs present
}

}  // namespace
}  // namespace gnndse::db
