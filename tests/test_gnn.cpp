// GNN library: batching invariants, cone-keyed row plans, layer shapes
// and gradient flow, and a learnability check — each conv kind must be
// able to separate two graph classes that differ only structurally.
#include "gnn/batch.hpp"
#include "gnn/conv.hpp"
#include "gnn/layers.hpp"
#include "gnn/pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "dspace/design_space.hpp"
#include "graphgen/featurize.hpp"
#include "kernels/registry.hpp"
#include "model/dataset.hpp"
#include "tensor/adam.hpp"
#include "util/rng.hpp"

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

/// B copies of `tpl` whose varying nodes carry copy b's value
/// value(b, v) in column 1, the only column the plans below let vary.
template <typename Value>
GraphBatch copies_of(const GraphData& tpl, std::int64_t copies,
                     const std::vector<std::int32_t>& varying, Value value) {
  std::vector<const GraphData*> ptrs(static_cast<std::size_t>(copies), &tpl);
  GraphBatch batch = make_batch(ptrs);
  const std::int64_t n = tpl.x.rows();
  for (std::int64_t b = 0; b < copies; ++b)
    for (std::int32_t v : varying) batch.x.at(b * n + v, 1) = value(b, v);
  return batch;
}

/// P_k(v) by brute force: the varying nodes with a directed path of at
/// most k edges to v (v itself included).
std::vector<std::int32_t> brute_cone(const GraphData& tpl,
                                     const std::vector<std::int32_t>& inputs,
                                     std::size_t k, std::int32_t v) {
  std::vector<char> reach(static_cast<std::size_t>(tpl.x.rows()), 0);
  reach[static_cast<std::size_t>(v)] = 1;
  for (std::size_t step = 0; step < k; ++step) {
    std::vector<char> next = reach;
    for (std::size_t e = 0; e < tpl.src.size(); ++e)
      if (reach[static_cast<std::size_t>(tpl.dst[e])])
        next[static_cast<std::size_t>(tpl.src[e])] = 1;
    reach = std::move(next);
  }
  std::vector<std::int32_t> cone;
  for (std::size_t j = 0; j < inputs.size(); ++j)
    if (reach[static_cast<std::size_t>(inputs[j])])
      cone.push_back(static_cast<std::int32_t>(j));
  return cone;
}

/// Checks the plan of `batch` (copies of `tpl`) against brute force, layer
/// by layer: the cones; a row count equal to the number of groups of
/// copies that agree on the varying rows of each node's cone; copies of a
/// node sharing a row exactly when they agree on those rows; every row's
/// in-edges complete and in template order, read from rows of the same
/// copy, so copies sharing a row share its inputs; the layer-0 rows; and
/// the readouts. Returns the rows per layer, layer 1 first.
std::vector<std::int64_t> check_plan(const GraphData& tpl,
                                     const GraphBatch& batch, RowPlan& plan,
                                     std::int64_t col_begin,
                                     std::int64_t col_end) {
  const std::int64_t copies = batch.num_graphs, n = tpl.x.rows();
  const std::int64_t f = tpl.x.cols();
  plan.prepare(batch.x, RowPlan::kMaxDepth);
  const std::vector<std::int32_t>& inputs = plan.input_nodes();
  // Copy b's varying columns of input node j.
  auto varying = [&](std::int64_t b, std::int32_t j) {
    const float* row =
        batch.x.data() + (b * n + inputs[static_cast<std::size_t>(j)]) * f;
    return std::vector<float>(row + col_begin, row + col_end);
  };
  for (std::int64_t b = 0; b < copies; ++b)
    for (std::int32_t v = 0; v < n; ++v)
      EXPECT_EQ(std::memcmp(plan.x().data() + plan.row(0, b, v) * f,
                            batch.x.data() + (b * n + v) * f,
                            static_cast<std::size_t>(f) * sizeof(float)),
                0)
          << "layer-0 row of copy " << b << " node " << v;
  std::vector<std::int64_t> counts;
  for (std::size_t k = 0; k <= plan.depth(); ++k) {
    SCOPED_TRACE("layer " + std::to_string(k));
    std::int64_t groups = 0;
    for (std::int32_t v = 0; v < n; ++v) {
      const auto cone = brute_cone(tpl, inputs, k, v);
      EXPECT_EQ(plan.cone(k, v), cone) << "node " << v;
      std::map<std::vector<std::vector<float>>, std::int32_t> row_of_key;
      for (std::int64_t b = 0; b < copies; ++b) {
        std::vector<std::vector<float>> key;
        for (std::int32_t j : cone) key.push_back(varying(b, j));
        const auto [it, fresh] = row_of_key.emplace(key, plan.row(k, b, v));
        groups += fresh;
        // Same key, same row; a new key, a row no other key has.
        EXPECT_EQ(it->second, plan.row(k, b, v))
            << "copy " << b << " node " << v;
      }
      std::set<std::int32_t> distinct;
      for (const auto& kv : row_of_key) distinct.insert(kv.second);
      EXPECT_EQ(distinct.size(), row_of_key.size()) << "node " << v;
    }
    if (k == 0) {
      EXPECT_EQ(plan.x().rows(), groups);
      continue;
    }
    const LayerRows& lr = plan.layer(k - 1);
    EXPECT_EQ(lr.num_rows, groups);
    counts.push_back(lr.num_rows);
    // Each row's edges, collected in list order.
    std::vector<std::vector<std::array<std::int32_t, 3>>> edges(
        static_cast<std::size_t>(lr.num_rows));
    for (std::size_t i = 0; i < lr.src.size(); ++i)
      edges[static_cast<std::size_t>(lr.dst[i])].push_back(
          {lr.src[i], lr.qrow[i], lr.eid[i]});
    for (std::int64_t b = 0; b < copies; ++b)
      for (std::int32_t v = 0; v < n; ++v) {
        const std::int32_t out = plan.row(k, b, v);
        const std::int32_t self = plan.row(k - 1, b, v);
        EXPECT_EQ(lr.rrow[static_cast<std::size_t>(out)], self);
        std::vector<std::array<std::int32_t, 3>> want;
        for (std::size_t e = 0; e < tpl.src.size(); ++e)
          if (tpl.dst[e] == v)
            want.push_back({plan.row(k - 1, b, tpl.src[e]), self,
                            static_cast<std::int32_t>(e)});
        EXPECT_EQ(edges[static_cast<std::size_t>(out)], want)
            << "copy " << b << " node " << v;
      }
  }
  for (std::size_t d = 1; d <= plan.depth(); ++d) {
    const Readout& r = plan.prepare(batch.x, d);
    EXPECT_EQ(r.layer_rows.size(), d - 1);
    if (r.layer_rows.size() != d - 1) continue;
    for (std::int64_t b = 0; b < copies; ++b)
      for (std::int32_t v = 0; v < n; ++v) {
        const std::int32_t last = plan.row(d, b, v);
        EXPECT_EQ(r.node_row[static_cast<std::size_t>(b * n + v)], last);
        for (std::size_t k = 1; k < d; ++k)
          EXPECT_EQ(r.layer_rows[k - 1][static_cast<std::size_t>(last)],
                    plan.row(k, b, v));
      }
  }
  return counts;
}

/// Copies whose varying nodes repeat with different periods, so cones of
/// different nodes split the copies differently.
float mixed(std::int64_t b, std::int32_t v) {
  return static_cast<float>((b / (v % 3 + 1)) % 3);
}

TEST(RowPlan, ChainGrowsOneHopPerLayer) {
  const GraphData g = graph_of(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  // Copies 0 and 2 agree on node 0, copy 1 differs: two rows for each
  // node within k hops of node 0, one for the others.
  const GraphBatch batch =
      copies_of(g, 3, {0}, [](std::int64_t b, std::int32_t) {
        return static_cast<float>(b % 2);
      });
  const auto plan = plan_rows(batch, std::vector<std::int32_t>{0}, 1, 2);
  EXPECT_EQ(plan->depth(), 5u);
  EXPECT_TRUE(plan->saturated());
  EXPECT_EQ(check_plan(g, batch, *plan, 1, 2),
            (std::vector<std::int64_t>{7, 8, 9, 10, 10}));
}

TEST(RowPlan, FanInKeepsEveryInEdgeInOrder) {
  // Node 0 has three in-edges, two from varying nodes: its rows group
  // the copies by both, and each aggregates all three edges in order.
  const GraphData g = graph_of(5, {{1, 0}, {2, 0}, {0, 4}, {3, 0}});
  const GraphBatch batch = copies_of(g, 6, {2, 3}, mixed);
  const auto plan = plan_rows(batch, std::vector<std::int32_t>{2, 3}, 1, 2);
  EXPECT_TRUE(plan->saturated());
  check_plan(g, batch, *plan, 1, 2);
}

TEST(RowPlan, CycleSaturates) {
  const GraphData g = graph_of(4, {{0, 1}, {1, 2}, {2, 0}, {3, 0}});
  const GraphBatch batch = copies_of(g, 6, {1, 3}, mixed);
  const auto plan = plan_rows(batch, std::vector<std::int32_t>{1, 3}, 1, 2);
  EXPECT_TRUE(plan->saturated());
  EXPECT_EQ(plan->depth(), 4u);
  check_plan(g, batch, *plan, 1, 2);
}

TEST(RowPlan, IsolatedPragmaNodeStaysAlone) {
  const GraphData g = graph_of(4, {{0, 1}, {1, 2}});
  const GraphBatch batch =
      copies_of(g, 3, {3}, [](std::int64_t b, std::int32_t) {
        return static_cast<float>(b);
      });
  const auto plan = plan_rows(batch, std::vector<std::int32_t>{3, 3}, 1, 2);
  EXPECT_EQ(plan->input_nodes(), (std::vector<std::int32_t>{3}));
  EXPECT_EQ(plan->depth(), 1u);
  EXPECT_TRUE(plan->saturated());
  EXPECT_EQ(check_plan(g, batch, *plan, 1, 2), (std::vector<std::int64_t>{6}));
}

// A real kernel's skeleton: atax's pragma nodes, configs from its space.
TEST(RowPlan, KernelChunkMatchesBruteForceGroups) {
  const kir::Kernel kernel = kernels::Registry::global().get("atax");
  model::SampleFactory factory;
  dspace::DesignSpace space(kernel);
  util::Rng rng(3);
  std::vector<hlssim::DesignConfig> configs;
  for (int i = 0; i < 24; ++i) configs.push_back(space.sample(rng));
  configs.push_back(configs[5]);  // a duplicate config
  const GraphBatch& batch = factory.batch_for(kernel, configs);
  GraphData tpl = factory.featurize(kernel, configs[0]);
  check_plan(tpl, batch, *batch.plan, graphgen::kPragmaSlotBegin,
             graphgen::kPragmaSlotEnd);
}

// Identical configs share every row, and a single config has one row per
// node: both compute exactly N rows per layer.
TEST(RowPlan, IdenticalOrSingleConfigsComputeNRowsPerLayer) {
  const kir::Kernel kernel = kernels::Registry::global().get("doitgen");
  model::SampleFactory factory;
  dspace::DesignSpace space(kernel);
  util::Rng rng(5);
  const hlssim::DesignConfig cfg = space.sample(rng);
  for (std::size_t chunk : {256, 1}) {
    const std::vector<hlssim::DesignConfig> configs(chunk, cfg);
    const GraphBatch& batch = factory.batch_for(kernel, configs);
    RowPlan& plan = *batch.plan;
    plan.prepare(batch.x, RowPlan::kMaxDepth);
    const std::int64_t n = batch.num_nodes / static_cast<std::int64_t>(chunk);
    EXPECT_EQ(plan.x().rows(), n);
    for (std::size_t l = 0; l < plan.depth(); ++l)
      EXPECT_EQ(plan.layer(l).num_rows, n)
          << "chunk " << chunk << " layer " << l + 1;
  }
}

TEST(RowPlan, DepthCapLeavesDeeperModelsUncovered) {
  std::vector<std::pair<std::int32_t, std::int32_t>> chain;
  for (std::int32_t i = 0; i + 1 < 12; ++i) chain.push_back({i, i + 1});
  const GraphData g = graph_of(12, chain);
  const auto plan = plan_rows(make_batch({&g, &g}), std::vector<std::int32_t>{0});
  EXPECT_EQ(plan->depth(), RowPlan::kMaxDepth);
  EXPECT_FALSE(plan->saturated());
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
