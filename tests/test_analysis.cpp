// Analysis utilities: exact t-SNE, Pareto filtering, attention extraction.
#include "analysis/attention.hpp"
#include "analysis/pareto.hpp"
#include "analysis/tsne.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "kernels/registry.hpp"

namespace gnndse::analysis {
namespace {

TEST(Tsne, OutputShape) {
  util::Rng rng(1);
  tensor::Tensor x({20, 8});
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x.at(i) = static_cast<float>(rng.normal());
  TsneOptions opts;
  opts.iterations = 50;
  tensor::Tensor y = tsne(x, opts);
  EXPECT_EQ(y.rows(), 20);
  EXPECT_EQ(y.cols(), 2);
  for (std::int64_t i = 0; i < y.numel(); ++i)
    EXPECT_TRUE(std::isfinite(y.at(i)));
}

TEST(Tsne, SeparatesTwoBlobs) {
  // Two well-separated 10-D gaussian blobs must stay separated in 2-D:
  // the neighborhood label spread must be far below the random-layout
  // expectation (~0.5 for a 50/50 binary label).
  util::Rng rng(7);
  const int per_blob = 30;
  tensor::Tensor x({2 * per_blob, 10});
  std::vector<float> labels;
  for (int i = 0; i < 2 * per_blob; ++i) {
    const float center = i < per_blob ? 0.0f : 25.0f;
    labels.push_back(i < per_blob ? 0.0f : 1.0f);
    for (int c = 0; c < 10; ++c)
      x.at(i, c) = center + static_cast<float>(rng.normal());
  }
  TsneOptions opts;
  opts.iterations = 250;
  tensor::Tensor y = tsne(x, opts);
  const double spread = neighborhood_label_spread(y, labels, 5);
  EXPECT_LT(spread, 0.1);
}

TEST(Tsne, DegenerateInputsHandled) {
  tensor::Tensor tiny({2, 3});
  tensor::Tensor y = tsne(tiny);
  EXPECT_EQ(y.rows(), 2);
  EXPECT_EQ(y.cols(), 2);
}

TEST(NeighborhoodSpread, PerfectVsShuffledLayout) {
  // Points on a line with labels equal to position: tight neighborhoods.
  const int n = 40;
  tensor::Tensor y({n, 2});
  std::vector<float> labels(n);
  for (int i = 0; i < n; ++i) {
    y.at(i, 0) = static_cast<float>(i);
    labels[static_cast<std::size_t>(i)] = static_cast<float>(i);
  }
  const double ordered = neighborhood_label_spread(y, labels, 4);
  // Shuffle labels: same layout, random labels -> much larger spread.
  util::Rng rng(3);
  std::vector<float> shuffled = labels;
  rng.shuffle(shuffled);
  const double random = neighborhood_label_spread(y, shuffled, 4);
  EXPECT_LT(ordered, random * 0.3);
}

TEST(Pareto, DominationLogic) {
  EXPECT_TRUE(dominates({1, 1}, {2, 2}));
  EXPECT_TRUE(dominates({1, 2}, {2, 2}));
  EXPECT_FALSE(dominates({2, 2}, {2, 2}));  // equal: no strict improvement
  EXPECT_FALSE(dominates({1, 3}, {2, 2}));  // trade-off
}

TEST(Pareto, FrontFiltersDominatedAndInvalid) {
  auto mk = [](bool valid, double cycles, double util) {
    db::DataPoint p;
    p.kernel = "k";
    p.result.valid = valid;
    p.result.cycles = cycles;
    p.result.util_dsp = p.result.util_bram = p.result.util_lut =
        p.result.util_ff = util;
    return p;
  };
  std::vector<db::DataPoint> pts{
      mk(true, 100, 0.9),   // fast, expensive -> front
      mk(true, 1000, 0.1),  // slow, cheap -> front
      mk(true, 1000, 0.9),  // dominated by both
      mk(false, 1, 0.01),   // invalid
  };
  auto front = pareto_front(pts);
  EXPECT_EQ(front, (std::vector<std::size_t>{0, 1}));
}

TEST(Attention, ScoresSortedAndNormalized) {
  kir::Kernel k = kernels::Registry::global().get("aes");
  model::SampleFactory factory;
  model::ModelOptions mo;
  mo.kind = model::ModelKind::kM7Full;
  mo.hidden = 16;
  mo.gnn_layers = 2;
  mo.out_dim = 4;
  util::Rng rng(1);
  model::PredictiveModel m(mo, rng);
  auto scores = attention_scores(m, factory, k,
                                 hlssim::DesignConfig::neutral(k));
  ASSERT_FALSE(scores.empty());
  double total = 0.0;
  for (std::size_t i = 1; i < scores.size(); ++i)
    EXPECT_GE(scores[i - 1].score, scores[i].score);
  for (const auto& s : scores) total += s.score;
  EXPECT_NEAR(total, 1.0, 1e-4);
  const double share = pragma_attention_share(scores);
  EXPECT_GE(share, 0.0);
  EXPECT_LE(share, 1.0);
}

TEST(Attention, NonM7ModelThrows) {
  model::ModelOptions mo;
  mo.kind = model::ModelKind::kM5Tconv;
  mo.hidden = 16;
  mo.gnn_layers = 2;
  mo.out_dim = 4;
  util::Rng rng(1);
  model::PredictiveModel m(mo, rng);
  EXPECT_THROW(m.last_attention(), std::logic_error);
}

}  // namespace
}  // namespace gnndse::analysis
