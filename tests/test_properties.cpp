// Cross-module property tests: randomized sweeps over design spaces
// checking simulator invariants, and batching invariance of the GNN
// forward pass (batch prediction == per-graph prediction).
#include <gtest/gtest.h>

#include <cmath>

#include "db/explorer.hpp"
#include "hlssim/cost_model.hpp"
#include "kernels/registry.hpp"
#include "model/trainer.hpp"
#include "oracle/evaluator.hpp"

namespace gnndse {
namespace {

class RandomConfigProperties : public ::testing::TestWithParam<std::string> {};

TEST_P(RandomConfigProperties, SimulatorInvariantsHold) {
  kir::Kernel k = kernels::Registry::global().get(GetParam());
  dspace::DesignSpace space(k);
  hlssim::MerlinHls hls;
  util::Rng rng(101);
  for (int i = 0; i < 60; ++i) {
    auto cfg = space.sample(rng);
    auto r = hls.evaluate(k, cfg);
    // Determinism.
    auto r2 = hls.evaluate(k, cfg);
    EXPECT_DOUBLE_EQ(r.cycles, r2.cycles);
    EXPECT_EQ(r.valid, r2.valid);
    EXPECT_GT(r.synth_seconds, 0.0);
    if (!r.valid) {
      EXPECT_FALSE(r.invalid_reason.empty());
      continue;
    }
    // Valid results carry sane magnitudes and the platform baseline.
    EXPECT_GT(r.cycles, 0.0);
    EXPECT_GE(r.lut, hlssim::cost::kBaseLut);
    EXPECT_GE(r.ff, hlssim::cost::kBaseFf);
    EXPECT_GE(r.bram, hlssim::cost::kBaseBram);
    EXPECT_GE(r.dsp, hlssim::cost::kBaseDsp);
    EXPECT_LE(r.synth_seconds, hlssim::MerlinHls::kTimeoutSeconds);
  }
}

TEST_P(RandomConfigProperties, MoreParallelNeverReducesResources) {
  kir::Kernel k = kernels::Registry::global().get(GetParam());
  dspace::DesignSpace space(k);
  hlssim::MerlinHls hls;
  util::Rng rng(202);
  for (int trial = 0; trial < 25; ++trial) {
    auto cfg = space.sample(rng);
    // Find a parallel site and bump it one option up.
    for (const auto& site : space.sites()) {
      if (site.kind != dspace::SiteKind::kParallel) continue;
      auto& lc = cfg.loops[static_cast<std::size_t>(site.loop)];
      auto it = std::find(site.options.begin(), site.options.end(),
                          lc.parallel);
      if (it == site.options.end() || it + 1 == site.options.end()) continue;
      hlssim::DesignConfig bigger = cfg;
      bigger.loops[static_cast<std::size_t>(site.loop)].parallel = *(it + 1);
      if (space.is_pruned(bigger)) continue;
      auto ra = hls.evaluate(k, cfg);
      auto rb = hls.evaluate(k, bigger);
      if (!ra.valid || !rb.valid) continue;
      EXPECT_GE(rb.dsp, ra.dsp) << "site on loop " << site.loop;
      EXPECT_GE(rb.lut, ra.lut) << "site on loop " << site.loop;
      break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, RandomConfigProperties,
    ::testing::Values("atax", "gemm-blocked", "stencil", "nw", "2mm",
                      "gemver", "fdtd-2d", "md-knn"),
    [](const auto& info) {
      std::string n = info.param;
      for (auto& c : n)
        if (c == '-') c = '_';
      return n;
    });

TEST(BatchingInvariance, BatchedEqualsPerGraphPrediction) {
  // The disjoint-union batch must predict exactly what per-graph forward
  // passes predict (attention softmax and pooling are per-graph).
  oracle::SimEvaluator hls;
  auto kernels =
      std::vector<kir::Kernel>{kernels::Registry::global().get("spmv-crs"),
                               kernels::Registry::global().get("aes")};
  util::Rng rng(55);
  db::Database db = db::generate_initial_database(
      kernels, hls, rng, [](const std::string&) { return 30; });
  model::Normalizer norm = model::Normalizer::fit(db.points());
  model::SampleFactory factory;
  model::Dataset ds = model::build_dataset(db, kernels, norm, factory);

  model::ModelOptions mo;
  mo.hidden = 24;
  mo.gnn_layers = 3;
  mo.out_dim = 4;
  util::Rng mrng(1);
  model::PredictiveModel m(mo, mrng);
  model::TrainOptions to;
  to.epochs = 2;
  model::Trainer tr(m, to);
  tr.fit(ds, ds.valid_indices());

  auto idx = ds.all_indices();
  idx.resize(std::min<std::size_t>(idx.size(), 24));
  tensor::Tensor batched = tr.predict(ds, idx);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    tensor::Tensor single = tr.predict(ds, {idx[i]});
    for (std::int64_t c = 0; c < 4; ++c)
      EXPECT_NEAR(single.at(0, c),
                  batched.at(static_cast<std::int64_t>(i), c), 1e-3f)
          << "sample " << i << " col " << c;
  }
}

TEST(BatchingInvariance, EmbeddingsMatchAcrossChunkBoundaries) {
  // embed_graphs chunks at 256; mixing kernels across a chunk must not
  // leak state. Use 2 kernels alternating.
  hlssim::MerlinHls hls;
  auto k1 = kernels::Registry::global().get("aes");
  auto k2 = kernels::Registry::global().get("spmv-ellpack");
  model::SampleFactory factory;
  model::ModelOptions mo;
  mo.hidden = 16;
  mo.gnn_layers = 2;
  mo.out_dim = 4;
  util::Rng mrng(2);
  model::PredictiveModel m(mo, mrng);
  model::TrainOptions to;
  model::Trainer tr(m, to);

  gnn::GraphData a = factory.featurize(k1, hlssim::DesignConfig::neutral(k1));
  gnn::GraphData b = factory.featurize(k2, hlssim::DesignConfig::neutral(k2));
  tensor::Tensor together = tr.embed_graphs({&a, &b, &a});
  tensor::Tensor alone_a = tr.embed_graphs({&a});
  tensor::Tensor alone_b = tr.embed_graphs({&b});
  for (std::int64_t c = 0; c < together.cols(); ++c) {
    EXPECT_NEAR(together.at(0, c), alone_a.at(0, c), 1e-4f);
    EXPECT_NEAR(together.at(1, c), alone_b.at(0, c), 1e-4f);
    EXPECT_NEAR(together.at(2, c), alone_a.at(0, c), 1e-4f);
  }
}

TEST(ExplorerProperty, SinkSeesEveryUniqueEvaluation) {
  kir::Kernel k = kernels::Registry::global().get("doitgen");
  dspace::DesignSpace space(k);
  oracle::SimEvaluator hls;
  db::Explorer ex(k, space, hls);
  int sink_calls = 0;
  db::ExplorerOptions opts;
  opts.max_evals = 50;
  ex.run_bottleneck(opts, [&sink_calls](const db::DataPoint&) {
    ++sink_calls;
  });
  EXPECT_EQ(sink_calls, ex.evals_used());
}

TEST(NormalizerProperty, TargetsMonotoneInSpeed) {
  model::Normalizer n(1e7);
  double prev = -1.0;
  for (double cycles : {9e6, 1e6, 1e5, 1e4, 1e3}) {
    const double t = n.latency_target(cycles);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

}  // namespace
}  // namespace gnndse
