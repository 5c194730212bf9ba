// GNN library: batching invariants, pragma-delta row plans, layer shapes
// and gradient flow, and a learnability check — each conv kind must be
// able to separate two graph classes that differ only structurally.
#include "gnn/batch.hpp"
#include "gnn/conv.hpp"
#include "gnn/layers.hpp"
#include "gnn/pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "tensor/adam.hpp"

namespace gnndse::gnn {
namespace {

using tensor::Tape;
using tensor::Tensor;
using tensor::VarId;

GraphData triangle(float scale) {
  GraphData g;
  // Distinct per-node features (identity-like): attention-normalized
  // layers like GAT are degree-invariant on identical features, so graph
  // structure is only observable when node features differ.
  g.x = Tensor({3, 4});
  for (std::int64_t i = 0; i < 3; ++i) {
    g.x.at(i, i) = scale;
    g.x.at(i, 3) = 0.5f * scale;
  }
  g.src = {0, 1, 2};
  g.dst = {1, 2, 0};
  g.e = Tensor({3, 2}, {1, 0, 1, 0, 0, 1});
  return g;
}

// A path graph 0->1->2 (no cycle) with the same features as triangle.
GraphData path(float scale) {
  GraphData g = triangle(scale);
  g.src = {0, 1};
  g.dst = {1, 2};
  g.e = Tensor({2, 2}, {1, 0, 0, 1});
  return g;
}

TEST(Batch, DisjointUnionOffsets) {
  GraphData a = triangle(1.0f);
  GraphData b = path(2.0f);
  GraphBatch batch = make_batch({&a, &b});
  EXPECT_EQ(batch.num_nodes, 6);
  EXPECT_EQ(batch.num_graphs, 2);
  ASSERT_EQ(batch.src.size(), 5u);
  EXPECT_EQ(batch.src[3], 3);  // b's first edge shifted by 3
  EXPECT_EQ(batch.dst[4], 5);
  EXPECT_EQ(batch.node_graph[2], 0);
  EXPECT_EQ(batch.node_graph[3], 1);
  EXPECT_EQ(batch.node_offset, (std::vector<std::int64_t>{0, 3, 6}));
}

TEST(Batch, SelfLoopsAppended) {
  GraphData a = triangle(1.0f);
  const SelfLoopEdges sl = self_loop_edges(make_batch({&a}));
  EXPECT_EQ(sl.src.size(), a.src.size() + 3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(sl.src[a.src.size() + static_cast<std::size_t>(i)], i);
    EXPECT_EQ(sl.dst[a.src.size() + static_cast<std::size_t>(i)], i);
  }
}

TEST(Batch, GcnCoefficientsSymmetricNormalized) {
  GraphData a = triangle(1.0f);
  const SelfLoopEdges sl = self_loop_edges(make_batch({&a}));
  // Triangle + self loops: every node has in-degree 2.
  for (float c : sl.coeff) EXPECT_NEAR(c, 0.5f, 1e-6f);
}

TEST(Batch, MismatchedFeaturesThrow) {
  GraphData a = triangle(1.0f);
  GraphData b = triangle(1.0f);
  b.x = Tensor({3, 5});
  EXPECT_THROW(make_batch({&a, &b}), std::invalid_argument);
  EXPECT_THROW(make_batch({}), std::invalid_argument);
}

// ------------------------------------------------------------- row plans

/// Hand-built template: `n` nodes and the given (src, dst) edges in order.
GraphData graph_of(std::int64_t n,
                   const std::vector<std::pair<std::int32_t, std::int32_t>>& edges) {
  GraphData g;
  g.x = Tensor({n, 2});
  for (std::int64_t i = 0; i < n; ++i) g.x.at(i, 0) = static_cast<float>(i);
  g.e = Tensor({static_cast<std::int64_t>(edges.size()), 1});
  for (std::size_t k = 0; k < edges.size(); ++k) {
    g.src.push_back(edges[k].first);
    g.dst.push_back(edges[k].second);
    g.e.at(static_cast<std::int64_t>(k), 0) = static_cast<float>(k);
  }
  return g;
}

/// Row of `node` for copy b in a plan layer whose varying set is `set`:
/// per-copy rows first, then one shared row per other node.
std::int32_t row_of(const std::vector<std::int32_t>& set, std::int64_t copies,
                    std::int64_t b, std::int32_t node) {
  const auto it = std::lower_bound(set.begin(), set.end(), node);
  const auto below = static_cast<std::int32_t>(it - set.begin());
  const auto size = static_cast<std::int32_t>(set.size());
  if (it != set.end() && *it == node)
    return static_cast<std::int32_t>(b) * size + below;
  return static_cast<std::int32_t>(copies) * size + node - below;
}

/// Checks plan_rows on 3 copies of `tpl` against the expected sets C_0..C_K
/// (the plan saturates at layer K): monotone sets, and every output row's
/// in-edges complete and in template order.
void check_plan(const GraphData& tpl, const std::vector<std::int32_t>& varying,
                const std::vector<std::vector<std::int32_t>>& want) {
  const std::int64_t copies = 3;
  const GraphBatch batch = make_batch({&tpl, &tpl, &tpl});
  const auto plan = plan_rows(batch, varying);
  const std::int64_t n = tpl.x.rows();
  const auto ne = static_cast<std::int32_t>(tpl.src.size());
  EXPECT_EQ(plan->input_nodes, want[0]);
  ASSERT_EQ(plan->layers.size(), want.size() - 1);
  EXPECT_TRUE(plan->saturated);
  for (std::size_t k = 1; k < want.size(); ++k) {
    SCOPED_TRACE("layer " + std::to_string(k));
    const LayerRows& lr = plan->layers[k - 1];
    const auto& prev = want[k - 1];
    EXPECT_EQ(lr.nodes, want[k]);
    EXPECT_TRUE(std::includes(lr.nodes.begin(), lr.nodes.end(), prev.begin(),
                              prev.end()));
    EXPECT_EQ(lr.num_rows, copies * static_cast<std::int64_t>(want[k].size()) +
                               n - static_cast<std::int64_t>(want[k].size()));
    // Expected edge lists, row by row; shared rows are computed once (as
    // copy 0).
    std::vector<std::int32_t> src, dst, qrow, eid;
    std::vector<std::pair<std::int32_t, std::int32_t>> rows;  // (b, node)
    for (std::int64_t b = 0; b < copies; ++b)
      for (std::int32_t node : want[k]) rows.push_back({static_cast<std::int32_t>(b), node});
    for (std::int32_t node = 0; node < n; ++node)
      if (!std::binary_search(want[k].begin(), want[k].end(), node))
        rows.push_back({0, node});
    for (const auto& [b, node] : rows) {
      const std::int32_t out = row_of(want[k], copies, b, node);
      const std::int32_t self = row_of(prev, copies, b, node);
      EXPECT_EQ(lr.rrow[static_cast<std::size_t>(out)], self);
      for (std::int32_t e = 0; e < ne; ++e) {
        if (tpl.dst[static_cast<std::size_t>(e)] != node) continue;
        const std::int32_t from =
            row_of(prev, copies, b, tpl.src[static_cast<std::size_t>(e)]);
        src.push_back(from);
        dst.push_back(out);
        qrow.push_back(self);
        eid.push_back(e);
      }
    }
    EXPECT_EQ(lr.src, src);
    EXPECT_EQ(lr.dst, dst);
    EXPECT_EQ(lr.qrow, qrow);
    EXPECT_EQ(lr.eid, eid);
    for (std::int64_t b = 0; b < copies; ++b)
      for (std::int32_t node = 0; node < n; ++node)
        EXPECT_EQ(lr.node_row[static_cast<std::size_t>(b * n + node)],
                  row_of(want[k], copies, b, node));
  }
}

TEST(RowPlan, ChainGrowsOneHopPerLayer) {
  check_plan(graph_of(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}}), {0},
             {{0}, {0, 1}, {0, 1, 2}, {0, 1, 2, 3}, {0, 1, 2, 3, 4},
              {0, 1, 2, 3, 4}});
}

TEST(RowPlan, FanInKeepsEveryInEdgeInOrder) {
  // Node 0 has three in-edges, only one from the varying node: its row
  // must still aggregate all three, in edge order.
  check_plan(graph_of(5, {{1, 0}, {2, 0}, {0, 4}, {3, 0}}), {2},
             {{2}, {0, 2}, {0, 2, 4}, {0, 2, 4}});
}

TEST(RowPlan, CycleSaturates) {
  check_plan(graph_of(4, {{0, 1}, {1, 2}, {2, 0}, {3, 0}}), {1},
             {{1}, {1, 2}, {0, 1, 2}, {0, 1, 2}});
}

TEST(RowPlan, IsolatedPragmaNodeStaysAlone) {
  check_plan(graph_of(4, {{0, 1}, {1, 2}}), {3, 3}, {{3}, {3}});
}

TEST(RowPlan, DepthCapLeavesDeeperModelsUncovered) {
  std::vector<std::pair<std::int32_t, std::int32_t>> chain;
  for (std::int32_t i = 0; i + 1 < 12; ++i) chain.push_back({i, i + 1});
  const GraphData g = graph_of(12, chain);
  const auto plan = plan_rows(make_batch({&g, &g}), std::vector<std::int32_t>{0});
  EXPECT_EQ(plan->layers.size(), RowPlan::kMaxDepth);
  EXPECT_FALSE(plan->saturated);
  EXPECT_TRUE(plan->covers(RowPlan::kMaxDepth));
  EXPECT_FALSE(plan->covers(RowPlan::kMaxDepth + 1));
}

TEST(Linear, ShapeAndBias) {
  util::Rng rng(1);
  Linear lin(4, 3, rng);
  Tape t;
  VarId x = t.constant(Tensor({2, 4}, {1, 0, 0, 0, 0, 1, 0, 0}));
  VarId y = lin.forward(t, x);
  EXPECT_EQ(t.value(y).rows(), 2);
  EXPECT_EQ(t.value(y).cols(), 3);
  EXPECT_EQ(lin.params().size(), 2u);
}

TEST(Mlp, BuildsRequestedDepth) {
  util::Rng rng(1);
  Mlp mlp({8, 16, 8, 1}, rng);
  EXPECT_EQ(mlp.params().size(), 6u);  // 3 layers x (W, b)
  Tape t;
  VarId y = mlp.forward(t, t.constant(Tensor({5, 8})));
  EXPECT_EQ(t.value(y).rows(), 5);
  EXPECT_EQ(t.value(y).cols(), 1);
}

template <typename ConvT, typename... Args>
void check_conv_shapes(Args&&... args) {
  util::Rng rng(7);
  ConvT conv(4, 6, std::forward<Args>(args)..., rng);
  GraphData a = triangle(1.0f);
  GraphData b = path(1.5f);
  GraphBatch batch = make_batch({&a, &b});
  Tape t;
  VarId h = conv.forward(t, t.constant(batch.x), batch);
  EXPECT_EQ(t.value(h).rows(), 6);
  EXPECT_EQ(t.value(h).cols(), 6);
  EXPECT_FALSE(conv.params().empty());
}

TEST(Conv, GcnShapes) { check_conv_shapes<GCNConv>(); }
TEST(Conv, GatShapes) { check_conv_shapes<GATConv>(); }
TEST(Conv, TransformerShapes) { check_conv_shapes<TransformerConv>(2); }

TEST(AttentionPool, ScoresSumToOnePerGraph) {
  util::Rng rng(3);
  AttentionPool pool(4, rng);
  GraphData a = triangle(1.0f);
  GraphData b = path(0.5f);
  GraphBatch batch = make_batch({&a, &b});
  Tape t;
  VarId g = pool.forward(t, t.constant(batch.x), batch);
  EXPECT_EQ(t.value(g).rows(), 2);
  EXPECT_EQ(t.value(g).cols(), 4);
  const Tensor& alpha = t.value(pool.last_scores());
  float sum_a = 0, sum_b = 0;
  for (std::int64_t i = 0; i < 3; ++i) sum_a += alpha.at(i, 0);
  for (std::int64_t i = 3; i < 6; ++i) sum_b += alpha.at(i, 0);
  EXPECT_NEAR(sum_a, 1.0f, 1e-5f);
  EXPECT_NEAR(sum_b, 1.0f, 1e-5f);
}

TEST(SumPool, AddsNodeRows) {
  GraphData a = triangle(1.0f);
  GraphBatch batch = make_batch({&a});
  Tape t;
  VarId g = sum_pool(t, t.constant(batch.x), batch);
  for (std::int64_t c = 0; c < batch.x.cols(); ++c) {
    float expect = 0;
    for (std::int64_t i = 0; i < 3; ++i) expect += batch.x.at(i, c);
    EXPECT_NEAR(t.value(g).at(0, c), expect, 1e-5f);
  }
}

TEST(JumpingKnowledge, TakesElementwiseMax) {
  Tape t;
  VarId a = t.constant(Tensor({2, 2}, {1, 5, 3, 0}));
  VarId b = t.constant(Tensor({2, 2}, {2, 4, 1, 7}));
  VarId m = jumping_knowledge_max(t, {a, b});
  EXPECT_FLOAT_EQ(t.value(m).at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(t.value(m).at(0, 1), 5.0f);
  EXPECT_FLOAT_EQ(t.value(m).at(1, 1), 7.0f);
}

// Learnability: a single conv layer + pooling + linear head must separate
// a cyclic graph from an acyclic one with identical node features (pure
// structure signal). Parameterized over the three conv kinds.
enum class ConvKind { kGcn, kGat, kTransformer };

class ConvLearnability : public ::testing::TestWithParam<ConvKind> {};

TEST_P(ConvLearnability, SeparatesCycleFromPath) {
  util::Rng rng(11);
  std::unique_ptr<ConvLayer> conv;
  switch (GetParam()) {
    case ConvKind::kGcn:
      conv = std::make_unique<GCNConv>(4, 8, rng);
      break;
    case ConvKind::kGat:
      conv = std::make_unique<GATConv>(4, 8, rng);
      break;
    case ConvKind::kTransformer:
      conv = std::make_unique<TransformerConv>(4, 8, 2, rng);
      break;
  }
  Linear head(8, 1, rng);
  tensor::Adam opt(tensor::AdamConfig{.lr = 0.01f});
  opt.register_params(conv->params());
  opt.register_params(head.params());

  GraphData cyc = triangle(1.0f);
  GraphData lin = path(1.0f);
  GraphBatch batch = make_batch({&cyc, &lin});
  Tensor labels({2, 1}, {1.0f, 0.0f});

  float loss = 1e9f;
  for (int step = 0; step < 600; ++step) {
    opt.zero_grad();
    Tape t;
    VarId h = t.elu(conv->forward(t, t.constant(batch.x), batch));
    VarId pooled = sum_pool(t, h, batch);
    VarId logit = head.forward(t, pooled);
    VarId l = t.bce_with_logits(logit, labels);
    loss = t.value(l).at(0);
    t.backward(l);
    opt.step();
  }
  EXPECT_LT(loss, 0.1f);
}

INSTANTIATE_TEST_SUITE_P(Kinds, ConvLearnability,
                         ::testing::Values(ConvKind::kGcn, ConvKind::kGat,
                                           ConvKind::kTransformer),
                         [](const auto& info) {
                           switch (info.param) {
                             case ConvKind::kGcn: return "GCN";
                             case ConvKind::kGat: return "GAT";
                             default: return "TransformerConv";
                           }
                         });

TEST(TransformerConv, EdgeFeaturesInfluenceOutput) {
  util::Rng rng(5);
  TransformerConv conv(4, 8, 2, rng);
  GraphData a = triangle(1.0f);
  GraphBatch b1 = make_batch({&a});
  GraphData a2 = a;
  a2.e = Tensor({3, 2}, {0, 1, 0, 1, 1, 0});  // flip edge features
  GraphBatch b2 = make_batch({&a2});
  Tape t1, t2;
  const Tensor& o1 = t1.value(conv.forward(t1, t1.constant(b1.x), b1));
  const Tensor& o2 = t2.value(conv.forward(t2, t2.constant(b2.x), b2));
  float diff = 0;
  for (std::int64_t i = 0; i < o1.numel(); ++i)
    diff += std::abs(o1.at(i) - o2.at(i));
  EXPECT_GT(diff, 1e-4f);
}

TEST(GatConv, AttentionIgnoresEdgeFeatures) {
  // Documented contrast with TransformerConv (the paper's motivation for
  // switching): GAT's aggregation does not read edge embeddings.
  util::Rng rng(5);
  GATConv conv(4, 8, rng);
  GraphData a = triangle(1.0f);
  GraphBatch b1 = make_batch({&a});
  GraphData a2 = a;
  a2.e = Tensor({3, 2}, {0, 1, 0, 1, 1, 0});
  GraphBatch b2 = make_batch({&a2});
  Tape t1, t2;
  const Tensor& o1 = t1.value(conv.forward(t1, t1.constant(b1.x), b1));
  const Tensor& o2 = t2.value(conv.forward(t2, t2.constant(b2.x), b2));
  for (std::int64_t i = 0; i < o1.numel(); ++i)
    EXPECT_FLOAT_EQ(o1.at(i), o2.at(i));
}

}  // namespace
}  // namespace gnndse::gnn
