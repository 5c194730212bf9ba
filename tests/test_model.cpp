// Model stack: normalization (eq. 11), dataset assembly, all seven model
// variants' forward passes, training convergence, metric computation, and
// weight serialization.
#include "model/dataset.hpp"
#include "model/normalizer.hpp"
#include "model/predictive_model.hpp"
#include "model/trainer.hpp"
#include "model/weights.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "db/explorer.hpp"
#include "kernels/registry.hpp"
#include "oracle/evaluator.hpp"

namespace gnndse::model {
namespace {

db::Database small_db(const std::vector<kir::Kernel>& kernels, int budget) {
  oracle::SimEvaluator hls;
  util::Rng rng(21);
  return db::generate_initial_database(
      kernels, hls, rng, [budget](const std::string&) { return budget; });
}

TEST(Normalizer, LatencyTransformMatchesEq11) {
  Normalizer n(1'000'000.0);
  EXPECT_FLOAT_EQ(n.latency_target(1'000'000.0), 0.0f);
  EXPECT_FLOAT_EQ(n.latency_target(500'000.0), 1.0f);  // log2(2)
  EXPECT_FLOAT_EQ(n.latency_target(1'000.0), std::log2(1000.0f));
  // Faster designs get larger targets (the loss emphasizes them).
  EXPECT_GT(n.latency_target(100.0), n.latency_target(10'000.0));
  // Clamped at 0 for designs slower than the normalization factor.
  EXPECT_FLOAT_EQ(n.latency_target(2'000'000.0), 0.0f);
}

TEST(Normalizer, RoundTrip) {
  Normalizer n(4'812'119.0);
  for (double cycles : {660.0, 12'345.0, 1e6}) {
    EXPECT_NEAR(n.latency_from_target(n.latency_target(cycles)) / cycles, 1.0,
                1e-3);
  }
}

TEST(Normalizer, FitUsesMaxValidLatency) {
  hlssim::HlsResult a;
  a.valid = true;
  a.cycles = 5000;
  hlssim::HlsResult b = a;
  b.cycles = 9000;
  hlssim::HlsResult c = a;
  c.valid = false;
  c.cycles = 1e9;  // invalid: ignored
  std::vector<db::DataPoint> pts{{"k", {}, a}, {"k", {}, b}, {"k", {}, c}};
  EXPECT_DOUBLE_EQ(Normalizer::fit(pts).norm_factor(), 9000.0);
}

TEST(Normalizer, TargetsOrderAndUtilPassthrough) {
  Normalizer n(1000.0);
  hlssim::HlsResult r;
  r.valid = true;
  r.cycles = 500;
  r.util_dsp = 0.25;
  r.util_lut = 0.5;
  r.util_ff = 0.75;
  r.util_bram = 0.1;
  auto t = n.targets(r);
  EXPECT_FLOAT_EQ(t[kLatency], 1.0f);
  EXPECT_FLOAT_EQ(t[kDsp], 0.25f);
  EXPECT_FLOAT_EQ(t[kLut], 0.5f);
  EXPECT_FLOAT_EQ(t[kFf], 0.75f);
  EXPECT_FLOAT_EQ(t[kBram], 0.1f);
}

TEST(SampleFactory, CachesKernelStructures) {
  kir::Kernel k = kernels::Registry::global().get("aes");
  SampleFactory f;
  const auto& g1 = f.graph(k);
  const auto& g2 = f.graph(k);
  EXPECT_EQ(&g1, &g2);  // same cached object
  auto d1 = f.featurize(k, hlssim::DesignConfig::neutral(k));
  EXPECT_EQ(d1.x.rows(), g1.num_nodes());
  EXPECT_GT(d1.aux.numel(), 0);
}

TEST(DatasetBuild, TargetsAndValidityCarriedOver) {
  auto kernels =
      std::vector<kir::Kernel>{kernels::Registry::global().get("spmv-crs")};
  db::Database database = small_db(kernels, 40);
  Normalizer norm = Normalizer::fit(database.points());
  SampleFactory f;
  Dataset ds = build_dataset(database, kernels, norm, f);
  ASSERT_EQ(ds.samples.size(), database.size());
  for (std::size_t i = 0; i < ds.samples.size(); ++i) {
    EXPECT_EQ(ds.samples[i].valid, database.points()[i].result.valid);
    if (ds.samples[i].valid)
      EXPECT_GE(ds.samples[i].target[kLatency], 0.0f);
  }
  EXPECT_EQ(ds.valid_indices().size(), database.counts_total().valid);
}

TEST(DatasetSplit, PartitionsWithoutOverlap) {
  Dataset ds;
  ds.samples.resize(100);
  util::Rng rng(3);
  auto [train, test] = Dataset::split(ds.all_indices(), 0.8, rng);
  EXPECT_EQ(train.size(), 80u);
  EXPECT_EQ(test.size(), 20u);
  std::set<std::size_t> all(train.begin(), train.end());
  for (auto i : test) EXPECT_TRUE(all.insert(i).second);
  EXPECT_EQ(all.size(), 100u);
}

TEST(DatasetFolds, ThreeFoldCoversAll) {
  Dataset ds;
  ds.samples.resize(31);
  util::Rng rng(3);
  auto folds = Dataset::folds(ds.all_indices(), 3, rng);
  ASSERT_EQ(folds.size(), 3u);
  std::set<std::size_t> all;
  for (const auto& f : folds)
    for (auto i : f) EXPECT_TRUE(all.insert(i).second);
  EXPECT_EQ(all.size(), 31u);
  EXPECT_THROW(Dataset::folds(ds.all_indices(), 1, rng),
               std::invalid_argument);
}

class AllVariantsForward : public ::testing::TestWithParam<ModelKind> {};

TEST_P(AllVariantsForward, ProducesFiniteOutputs) {
  auto kernels =
      std::vector<kir::Kernel>{kernels::Registry::global().get("aes")};
  db::Database database = small_db(kernels, 20);
  Normalizer norm = Normalizer::fit(database.points());
  SampleFactory f;
  Dataset ds = build_dataset(database, kernels, norm, f);
  ASSERT_GE(ds.samples.size(), 4u);

  ModelOptions mo;
  mo.kind = GetParam();
  mo.hidden = 16;
  mo.gnn_layers = 3;
  mo.out_dim = 4;
  util::Rng rng(1);
  PredictiveModel m(mo, rng);
  EXPECT_GT(m.num_weights(), 0);

  TrainOptions to;
  to.epochs = 1;
  Trainer tr(m, to);
  tensor::Tensor pred = tr.predict(ds, ds.all_indices());
  EXPECT_EQ(pred.rows(), static_cast<std::int64_t>(ds.samples.size()));
  EXPECT_EQ(pred.cols(), 4);
  for (std::int64_t i = 0; i < pred.numel(); ++i)
    EXPECT_TRUE(std::isfinite(pred.at(i)));
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, AllVariantsForward,
    ::testing::Values(ModelKind::kM1MlpPragma, ModelKind::kM2MlpContext,
                      ModelKind::kM3Gcn, ModelKind::kM4Gat,
                      ModelKind::kM5Tconv, ModelKind::kM6TconvJkn,
                      ModelKind::kM7Full),
    [](const auto& info) {
      switch (info.param) {
        case ModelKind::kM1MlpPragma: return "M1";
        case ModelKind::kM2MlpContext: return "M2";
        case ModelKind::kM3Gcn: return "M3";
        case ModelKind::kM4Gat: return "M4";
        case ModelKind::kM5Tconv: return "M5";
        case ModelKind::kM6TconvJkn: return "M6";
        default: return "M7";
      }
    });

TEST(Training, RegressionLossDecreases) {
  auto kernels =
      std::vector<kir::Kernel>{kernels::Registry::global().get("gemm-ncubed")};
  db::Database database = small_db(kernels, 120);
  Normalizer norm = Normalizer::fit(database.points());
  SampleFactory f;
  Dataset ds = build_dataset(database, kernels, norm, f);

  ModelOptions mo;
  mo.hidden = 32;
  mo.gnn_layers = 3;
  mo.out_dim = 4;
  util::Rng rng(1);
  PredictiveModel m(mo, rng);
  TrainOptions to;
  to.epochs = 1;
  Trainer tr(m, to);
  const float first = tr.fit(ds, ds.valid_indices());
  TrainOptions to2 = to;
  to2.epochs = 10;
  Trainer tr2(m, to2);
  const float last = tr2.fit(ds, ds.valid_indices());
  EXPECT_LT(last, first * 0.7f);
}

TEST(Training, ClassifierLearnsValidity) {
  auto kernels =
      std::vector<kir::Kernel>{kernels::Registry::global().get("nw")};
  db::Database database = small_db(kernels, 150);
  Normalizer norm = Normalizer::fit(database.points());
  SampleFactory f;
  Dataset ds = build_dataset(database, kernels, norm, f);
  const auto c = database.counts_total();
  ASSERT_GT(c.total - c.valid, 10u);  // nw yields plenty of invalid points

  ModelOptions mo;
  mo.hidden = 32;
  mo.gnn_layers = 3;
  mo.out_dim = 1;
  util::Rng rng(1);
  PredictiveModel m(mo, rng);
  TrainOptions to;
  to.task = Task::kClassification;
  to.epochs = 30;
  to.lr = 3e-3f;  // imbalanced data: see PipelineOptions::cls_lr
  Trainer tr(m, to);
  tr.fit(ds, ds.all_indices());
  auto metrics = eval_classification(tr, ds, ds.all_indices());
  // Must beat the majority-class base rate (the DB is imbalanced) and
  // actually detect the minority valid class.
  const float base_rate =
      1.0f - static_cast<float>(c.valid) / static_cast<float>(c.total);
  EXPECT_GT(metrics.accuracy, std::max(base_rate + 0.03f, 0.8f));
  EXPECT_GT(metrics.f1, 0.4f);
}

TEST(Metrics, RegressionRmseHandComputed) {
  // Build a dataset of two samples and a trivially-predictable model? No:
  // check the metric arithmetic itself via a 1-sample dataset and a model
  // prediction read back from predict().
  auto kernels =
      std::vector<kir::Kernel>{kernels::Registry::global().get("aes")};
  db::Database database = small_db(kernels, 10);
  Normalizer norm = Normalizer::fit(database.points());
  SampleFactory f;
  Dataset ds = build_dataset(database, kernels, norm, f);
  ModelOptions mo;
  mo.hidden = 16;
  mo.gnn_layers = 2;
  mo.out_dim = 4;
  util::Rng rng(1);
  PredictiveModel m(mo, rng);
  TrainOptions to;
  Trainer tr(m, to);
  std::vector<std::size_t> one{0};
  tensor::Tensor pred = tr.predict(ds, one);
  auto metrics = eval_regression(tr, ds, one);
  const float expect_lat =
      std::abs(pred.at(0, 0) - ds.samples[0].target[kLatency]);
  EXPECT_NEAR(metrics.rmse[kLatency], expect_lat, 1e-4f);
  const float manual_sum = metrics.rmse[kLatency] + metrics.rmse[kDsp] +
                           metrics.rmse[kLut] + metrics.rmse[kFf];
  EXPECT_NEAR(metrics.rmse_sum, manual_sum, 1e-5f);
}

TEST(Metrics, ClassificationEdgeCases) {
  ClassificationMetrics m;
  EXPECT_EQ(m.accuracy, 0.0f);
  // combine() overlays the BRAM column and adds the sums.
  RegressionMetrics main;
  main.rmse[kLatency] = 1.0f;
  main.rmse_sum = 1.5f;
  RegressionMetrics bram;
  bram.rmse[kBram] = 0.25f;
  bram.rmse_sum = 0.25f;
  auto combined = combine(main, bram);
  EXPECT_FLOAT_EQ(combined.rmse[kBram], 0.25f);
  EXPECT_FLOAT_EQ(combined.rmse[kLatency], 1.0f);
  EXPECT_FLOAT_EQ(combined.rmse_sum, 1.75f);
}

TEST(Weights, SaveLoadRoundTrip) {
  ModelOptions mo;
  mo.hidden = 16;
  mo.gnn_layers = 2;
  mo.out_dim = 4;
  util::Rng rng(1);
  PredictiveModel a(mo, rng);
  const std::string path = ::testing::TempDir() + "weights_test.bin";
  save_params(a.params(), path);
  EXPECT_TRUE(weights_exist(path));

  util::Rng rng2(99);
  PredictiveModel b(mo, rng2);
  load_params(b.params(), path);
  auto pa = a.params();
  auto pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i)
    for (std::int64_t j = 0; j < pa[i]->numel(); ++j)
      EXPECT_FLOAT_EQ(pa[i]->value.at(j), pb[i]->value.at(j));
  std::remove(path.c_str());
}

TEST(Weights, LoadRejectsWrongArchitecture) {
  ModelOptions mo;
  mo.hidden = 16;
  mo.gnn_layers = 2;
  mo.out_dim = 4;
  util::Rng rng(1);
  PredictiveModel a(mo, rng);
  const std::string path = ::testing::TempDir() + "weights_mismatch.bin";
  save_params(a.params(), path);
  ModelOptions other = mo;
  other.hidden = 32;
  PredictiveModel b(other, rng);
  EXPECT_THROW(load_params(b.params(), path), std::runtime_error);
  EXPECT_FALSE(weights_exist(::testing::TempDir() + "nonexistent.bin"));
  std::remove(path.c_str());
}

TEST(TrainerGuards, MisconfiguredModelsRejected) {
  ModelOptions mo;
  mo.out_dim = 4;
  util::Rng rng(1);
  PredictiveModel m(mo, rng);
  TrainOptions to;
  to.objectives = {kLatency};  // 1 objective vs out_dim 4
  EXPECT_THROW(Trainer(m, to), std::invalid_argument);
  TrainOptions tc;
  tc.task = Task::kClassification;  // needs out_dim 1
  EXPECT_THROW(Trainer(m, tc), std::invalid_argument);
}

}  // namespace
}  // namespace gnndse::model
