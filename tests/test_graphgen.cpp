// Program-graph lowering and featurization (§4.2): node/edge taxonomy,
// pragma attachment, and the pragma-fill property that only pragma-node
// features differ between configurations of the same kernel.
#include "graphgen/featurize.hpp"
#include "graphgen/program_graph.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "kernels/kernels.hpp"
#include "kernels/registry.hpp"

namespace gnndse::graphgen {
namespace {

using hlssim::DesignConfig;
using hlssim::PipeMode;

class AllKernelsGraph : public ::testing::TestWithParam<std::string> {};

TEST_P(AllKernelsGraph, BuildsValidGraph) {
  kir::Kernel k = kernels::Registry::global().get(GetParam());
  dspace::DesignSpace space(k);
  ProgramGraph g = build_graph(k, space);
  EXPECT_NO_THROW(validate(g));
  EXPECT_EQ(g.kernel_name, k.name);
  EXPECT_GT(g.num_nodes(), 10);
  EXPECT_GT(g.num_edges(), g.num_nodes() / 2);
}

TEST_P(AllKernelsGraph, OnePragmaNodePerSite) {
  kir::Kernel k = kernels::Registry::global().get(GetParam());
  dspace::DesignSpace space(k);
  ProgramGraph g = build_graph(k, space);
  EXPECT_EQ(g.pragma_nodes.size(), space.sites().size());
  std::size_t pragma_nodes = 0;
  for (const auto& n : g.nodes)
    if (n.type == NodeType::kPragma) ++pragma_nodes;
  EXPECT_EQ(pragma_nodes, space.sites().size());
}

TEST_P(AllKernelsGraph, PragmaEdgesTargetLoopIcmp) {
  kir::Kernel k = kernels::Registry::global().get(GetParam());
  dspace::DesignSpace space(k);
  ProgramGraph g = build_graph(k, space);
  std::size_t pragma_edges = 0;
  for (const auto& e : g.edges) {
    if (e.flow != FlowType::kPragma) continue;
    ++pragma_edges;
    EXPECT_EQ(g.nodes[static_cast<std::size_t>(e.dst)].key, KeyText::kIcmp);
    // Position encodes the pragma kind: 0 tile, 1 pipeline, 2 parallel.
    EXPECT_GE(e.position, 0);
    EXPECT_LE(e.position, 2);
  }
  EXPECT_EQ(pragma_edges, space.sites().size());
}

TEST_P(AllKernelsGraph, HasAllFourFlows) {
  kir::Kernel k = kernels::Registry::global().get(GetParam());
  dspace::DesignSpace space(k);
  ProgramGraph g = build_graph(k, space);
  bool flows[4] = {false, false, false, false};
  for (const auto& e : g.edges) flows[static_cast<int>(e.flow)] = true;
  EXPECT_TRUE(flows[0]);  // control
  EXPECT_TRUE(flows[1]);  // data
  EXPECT_TRUE(flows[2]);  // call
  EXPECT_TRUE(flows[3]);  // pragma
}

std::vector<std::string> all_names() {
  auto names = kernels::training_kernel_names();
  for (const auto& n : kernels::unseen_kernel_names()) names.push_back(n);
  for (const auto& n :
       kernels::Registry::global().names(kernels::Provenance::kExtension))
    names.push_back(n);
  return names;
}

INSTANTIATE_TEST_SUITE_P(Suite, AllKernelsGraph,
                         ::testing::ValuesIn(all_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

TEST(GraphStructure, LoopSkeletonHasBackEdge) {
  kir::Kernel k = kernels::Registry::global().get("aes");
  dspace::DesignSpace space(k);
  ProgramGraph g = build_graph(k, space);
  // Every loop's br must have a control edge back to its icmp.
  for (std::int32_t icmp : g.loop_icmp_nodes) {
    bool has_back_edge = false;
    for (const auto& e : g.edges)
      if (e.dst == icmp && e.flow == FlowType::kControl &&
          g.nodes[static_cast<std::size_t>(e.src)].key == KeyText::kBr)
        has_back_edge = true;
    EXPECT_TRUE(has_back_edge);
  }
}

TEST(GraphStructure, RecurrenceFormsDataCycle) {
  kir::Kernel k = kernels::Registry::global().get("gemm-ncubed");
  dspace::DesignSpace space(k);
  ProgramGraph g = build_graph(k, space);
  bool found = false;
  for (const auto& e : g.edges) {
    if (e.flow != FlowType::kData) continue;
    if (g.nodes[static_cast<std::size_t>(e.src)].key == KeyText::kAccum) {
      // acc -> op edge must pair with an op -> acc edge.
      for (const auto& e2 : g.edges)
        if (e2.src == e.dst && e2.dst == e.src &&
            e2.flow == FlowType::kData)
          found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Featurize, ShapesMatchContract) {
  kir::Kernel k = kernels::Registry::global().get("stencil");
  dspace::DesignSpace space(k);
  ProgramGraph g = build_graph(k, space);
  tensor::Tensor x = node_features(g, space, DesignConfig::neutral(k));
  EXPECT_EQ(x.rows(), g.num_nodes());
  EXPECT_EQ(x.cols(), kNodeFeatureDim);
  tensor::Tensor e = edge_features(g);
  EXPECT_EQ(e.rows(), g.num_edges());
  EXPECT_EQ(e.cols(), kEdgeFeatureDim);
}

TEST(Featurize, OneHotBlocksSumCorrectly) {
  kir::Kernel k = kernels::Registry::global().get("mvt");
  dspace::DesignSpace space(k);
  ProgramGraph g = build_graph(k, space);
  tensor::Tensor x = node_features(g, space, DesignConfig::neutral(k));
  for (std::int64_t i = 0; i < x.rows(); ++i) {
    float type_sum = 0, key_sum = 0, block_sum = 0;
    for (int c = 0; c < 4; ++c) type_sum += x.at(i, c);
    for (int c = 4; c < 29; ++c) key_sum += x.at(i, c);
    for (int c = 29; c < 45; ++c) block_sum += x.at(i, c);
    EXPECT_FLOAT_EQ(type_sum, 1.0f);
    EXPECT_FLOAT_EQ(key_sum, 1.0f);
    EXPECT_FLOAT_EQ(block_sum, 1.0f);
  }
}

TEST(Featurize, OnlyPragmaRowsChangeAcrossConfigs) {
  // The paper's key property (§4.2): among graphs for different design
  // configurations, only the pragma-node attributes differ.
  kir::Kernel k = kernels::Registry::global().get("gemm-ncubed");
  dspace::DesignSpace space(k);
  ProgramGraph g = build_graph(k, space);
  DesignConfig a = DesignConfig::neutral(k);
  DesignConfig b = a;
  b.loops[0].pipeline = PipeMode::kCoarse;
  b.loops[1].parallel = 8;
  b.loops[0].tile = 4;
  tensor::Tensor xa = node_features(g, space, a);
  tensor::Tensor xb = node_features(g, space, b);
  std::set<std::int64_t> pragma_rows(g.pragma_nodes.begin(),
                                     g.pragma_nodes.end());
  int changed_pragma_rows = 0;
  for (std::int64_t i = 0; i < xa.rows(); ++i) {
    bool row_differs = false;
    for (std::int64_t c = 0; c < xa.cols(); ++c)
      if (xa.at(i, c) != xb.at(i, c)) row_differs = true;
    if (pragma_rows.count(i)) {
      changed_pragma_rows += row_differs;
    } else {
      EXPECT_FALSE(row_differs) << "non-pragma row " << i << " changed";
    }
  }
  EXPECT_EQ(changed_pragma_rows, 3);  // the three sites we touched
}

TEST(Featurize, PipelineOptionsAreOneHot) {
  kir::Kernel k = kernels::Registry::global().get("aes");
  dspace::DesignSpace space(k);
  ProgramGraph g = build_graph(k, space);
  DesignConfig cfg = DesignConfig::neutral(k);
  cfg.loops[0].pipeline = PipeMode::kFine;
  tensor::Tensor x = node_features(g, space, cfg);
  // Find the pipeline pragma node of loop 0 and check columns 58..60.
  for (std::size_t s = 0; s < space.sites().size(); ++s) {
    if (space.sites()[s].loop != 0 ||
        space.sites()[s].kind != dspace::SiteKind::kPipeline)
      continue;
    const std::int64_t row = g.pragma_nodes[s];
    EXPECT_FLOAT_EQ(x.at(row, 58), 0.0f);  // off
    EXPECT_FLOAT_EQ(x.at(row, 59), 0.0f);  // cg
    EXPECT_FLOAT_EQ(x.at(row, 60), 1.0f);  // fg
  }
}

TEST(Featurize, PragmaVectorLayout) {
  kir::Kernel k = kernels::Registry::global().get("gesummv");
  dspace::DesignSpace space(k);
  DesignConfig cfg = DesignConfig::neutral(k);
  cfg.loops[0].parallel = 4;
  tensor::Tensor v = pragma_vector(space, cfg, 16);
  EXPECT_EQ(v.numel(), 16 * kPragmaVectorPerSite);
  // Site 1 is loop 0's parallel (after its pipeline): log2(4)/8 = 0.25.
  bool found = false;
  for (std::size_t s = 0; s < space.sites().size(); ++s) {
    if (space.sites()[s].loop == 0 &&
        space.sites()[s].kind == dspace::SiteKind::kParallel) {
      EXPECT_FLOAT_EQ(
          v.at(static_cast<std::int64_t>(s) * kPragmaVectorPerSite + 3),
          0.25f);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Featurize, MultipleEdgesSameTypeAreNumbered) {
  // Paper: "when there are two or more edges of the same type connected to
  // a node, they are numbered to further distinguish them". Pragma edges
  // to the same icmp carry distinct positions.
  kir::Kernel k = kernels::Registry::global().get("stencil");
  dspace::DesignSpace space(k);
  ProgramGraph g = build_graph(k, space);
  std::map<std::int32_t, std::set<int>> positions;  // icmp -> positions
  for (const auto& e : g.edges)
    if (e.flow == FlowType::kPragma)
      EXPECT_TRUE(positions[e.dst].insert(e.position).second)
          << "duplicate pragma position on node " << e.dst;
}

}  // namespace
}  // namespace gnndse::graphgen
