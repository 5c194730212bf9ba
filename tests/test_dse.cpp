// Model-driven DSE and the AutoDSE baseline: exhaustive vs heuristic paths,
// top-M evaluation, the full pipeline and DB-augmentation rounds.
// Kept cheap: tiny models, small budgets.
#include "dse/dse.hpp"
#include "dse/pipeline.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "db/explorer.hpp"
#include "kernels/registry.hpp"
#include "oracle/evaluator.hpp"

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

class DseFixture : public ::testing::Test {
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

  oracle::SimEvaluator hls_;
  std::vector<kir::Kernel> kernels_;
  db::Database database_;
  model::SampleFactory factory_;
  std::unique_ptr<TrainedModels> models_;
  std::unique_ptr<ModelDse> dse_;
};

TEST_F(DseFixture, ExhaustiveSweepCoversSmallSpace) {
  const kir::Kernel& spmv = kernels_[1];
  dspace::DesignSpace space(spmv);
  DseOptions opts;
  opts.top_m = 5;
  util::Rng rng(3);
  DseResult r = dse_->run(spmv, opts, rng);
  EXPECT_EQ(r.num_explored, space.pruned_size());
  ASSERT_EQ(r.top.size(), 5u);
  EXPECT_GT(r.search_seconds, 0.0);
}

TEST_F(DseFixture, HeuristicPathRespectsTimeLimit) {
  const kir::Kernel& gemm = kernels_[0];
  DseOptions opts;
  opts.max_exhaustive = 100;  // force the heuristic path
  opts.time_limit_seconds = 2.0;
  util::Rng rng(3);
  DseResult r = dse_->run(gemm, opts, rng);
  EXPECT_GT(r.num_explored, 50u);
  EXPECT_LT(r.search_seconds, 10.0);
  EXPECT_FALSE(r.top.empty());
}

TEST_F(DseFixture, TopDesignsBeatNeutralAfterHlsCheck) {
  const kir::Kernel& gemm = kernels_[0];
  DseOptions opts;
  opts.top_m = 10;
  opts.max_exhaustive = 50'000;
  util::Rng rng(3);
  DseResult r = dse_->run(gemm, opts, rng);
  auto ev = dse_->evaluate_top(gemm, r, hls_);
  ASSERT_TRUE(ev.best.has_value());
  const double neutral =
      hls_.evaluate(gemm, hlssim::DesignConfig::neutral(gemm)).cycles;
  EXPECT_LT(ev.best->result.cycles, neutral);
  EXPECT_GT(ev.hls_seconds, 0.0);
  EXPECT_EQ(ev.evaluated.size(), r.top.size());
}

TEST_F(DseFixture, EvaluateTopAppendsToDatabase) {
  const kir::Kernel& spmv = kernels_[1];
  DseOptions opts;
  opts.top_m = 5;
  util::Rng rng(3);
  DseResult r = dse_->run(spmv, opts, rng);
  db::Database out;
  dse_->evaluate_top(spmv, r, hls_, 0.8, &out);
  EXPECT_EQ(out.size(), r.top.size());
}

TEST(AutoDseBaseline, ImprovesAndAccountsTime) {
  kir::Kernel k = kernels::Registry::global().get("gemm-ncubed");
  oracle::SimEvaluator hls;
  AutoDseOutcome out = run_autodse_baseline(k, hls, 6.0 * 3600.0);
  EXPECT_GT(out.evals, 20);
  EXPECT_GT(out.simulated_seconds, 0.0);
  EXPECT_LE(out.simulated_seconds, 6.0 * 3600.0 + 1.0);
  const double neutral =
      hls.evaluate(k, hlssim::DesignConfig::neutral(k)).cycles;
  EXPECT_LT(out.best_cycles, neutral);
}

// The budget stops the pass, not just the reported clock: a budget the
// first synthesis already uses up evaluates only that design, fewer than
// the 21 h run, and the reported time never exceeds the budget.
TEST(AutoDseBaseline, BudgetLimitsEvaluations) {
  kir::Kernel k = kernels::Registry::global().get("atax");
  oracle::SimEvaluator hls;
  const AutoDseOutcome tiny = run_autodse_baseline(k, hls, 1.0);
  const AutoDseOutcome full = run_autodse_baseline(k, hls, 21.0 * 3600.0);
  EXPECT_EQ(tiny.evals, 1);
  EXPECT_LT(tiny.evals, full.evals);
  EXPECT_LE(tiny.simulated_seconds, 1.0);
  EXPECT_LE(full.simulated_seconds, 21.0 * 3600.0);
}

TEST(Rounds, ReportsPerRoundDseQuality) {
  // Fig 7 semantics: each round's speedup is the design found by *that*
  // round's DSE vs the initial database best (can dip below 1x early).
  auto kernels =
      std::vector<kir::Kernel>{kernels::Registry::global().get("spmv-crs"),
                               kernels::Registry::global().get("spmv-ellpack")};
  db::Database initial = tiny_db(kernels, 60);
  oracle::SimEvaluator hls;
  DseOptions dopts;
  dopts.top_m = 5;
  util::Rng rng(5);
  RoundsOutcome out =
      run_dse_rounds(initial, kernels, hls, 2, tiny_pipeline(), dopts, rng);
  ASSERT_EQ(out.speedups.size(), 2u);
  ASSERT_EQ(out.average.size(), 2u);
  for (const auto& k : kernels) {
    EXPECT_GT(out.speedups[0].at(k.name), 0.0);
    EXPECT_GT(out.speedups[1].at(k.name), 0.0);
    EXPECT_TRUE(std::isfinite(out.speedups[1].at(k.name)));
  }
  // The augmented designs (top-M per kernel per round) joined the DB.
  EXPECT_GE(out.final_db.size(), initial.size());
  EXPECT_GT(out.average[1], 0.0);
}

TEST(TrainedModelsCache, RoundTripsThroughDisk) {
  auto kernels =
      std::vector<kir::Kernel>{kernels::Registry::global().get("aes")};
  db::Database database = tiny_db(kernels, 20);
  const std::string prefix = ::testing::TempDir() + "bundle_test";
  model::SampleFactory f1;
  TrainedModels first(database, kernels, f1, tiny_pipeline(), prefix);
  model::SampleFactory f2;
  TrainedModels second(database, kernels, f2, tiny_pipeline(), prefix);

  // Both bundles must produce identical predictions.
  kir::Kernel k = kernels[0];
  gnn::GraphData g = f1.featurize(k, hlssim::DesignConfig::neutral(k));
  auto p1 = first.bundle().regression_main->predict_graphs({&g});
  auto p2 = second.bundle().regression_main->predict_graphs({&g});
  for (std::int64_t i = 0; i < p1.numel(); ++i)
    EXPECT_FLOAT_EQ(p1.at(i), p2.at(i));
  for (const char* suffix : {".main.bin", ".bram.bin", ".cls.bin"})
    std::remove((prefix + suffix).c_str());
}

}  // namespace
}  // namespace gnndse::dse
