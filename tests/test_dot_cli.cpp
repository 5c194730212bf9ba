// DOT/JSON export, Merlin config normalization, and CLI argument parsing.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "cli/args.hpp"
#include "graphgen/dot_export.hpp"
#include "graphgen/json_export.hpp"
#include "hlssim/hls_sim.hpp"
#include "kernels/registry.hpp"

namespace gnndse {
namespace {

TEST(DotExport, ContainsAllNodesAndColors) {
  kir::Kernel k = kernels::Registry::global().get("aes");
  dspace::DesignSpace space(k);
  graphgen::ProgramGraph g = graphgen::build_graph(k, space);
  const std::string dot = graphgen::to_dot(g);
  EXPECT_NE(dot.find("digraph \"aes\""), std::string::npos);
  for (std::int64_t i = 0; i < g.num_nodes(); ++i)
    EXPECT_NE(dot.find("n" + std::to_string(i) + " ["), std::string::npos);
  // Paper color scheme present: pragma purple, control blue, data red,
  // call green.
  EXPECT_NE(dot.find("#9b59b6"), std::string::npos);
  EXPECT_NE(dot.find("#4a90d9"), std::string::npos);
  EXPECT_NE(dot.find("#d9534f"), std::string::npos);
  EXPECT_NE(dot.find("#5cb85c"), std::string::npos);
}

TEST(DotExport, AnnotatesPragmaValues) {
  kir::Kernel k = kernels::Registry::global().get("aes");
  dspace::DesignSpace space(k);
  graphgen::ProgramGraph g = graphgen::build_graph(k, space);
  hlssim::DesignConfig cfg = hlssim::DesignConfig::neutral(k);
  cfg.loops[1].parallel = 16;
  cfg.loops[0].pipeline = hlssim::PipeMode::kCoarse;
  graphgen::DotOptions opts;
  opts.space = &space;
  opts.config = &cfg;
  const std::string dot = graphgen::to_dot(g, opts);
  EXPECT_NE(dot.find("PARALLEL=16"), std::string::npos);
  EXPECT_NE(dot.find("PIPELINE=cg"), std::string::npos);
  // Without a config, placeholders show instead.
  EXPECT_NE(graphgen::to_dot(g).find("auto{...}"), std::string::npos);
}

TEST(DotExport, AttentionScalesNodeSize) {
  kir::Kernel k = kernels::Registry::global().get("spmv-crs");
  dspace::DesignSpace space(k);
  graphgen::ProgramGraph g = graphgen::build_graph(k, space);
  graphgen::DotOptions opts;
  opts.attention.assign(static_cast<std::size_t>(g.num_nodes()), 0.01f);
  opts.attention[0] = 1.0f;
  const std::string dot = graphgen::to_dot(g, opts);
  EXPECT_NE(dot.find("fixedsize=true"), std::string::npos);
}

TEST(DotExport, WritesFile) {
  kir::Kernel k = kernels::Registry::global().get("md-knn");
  dspace::DesignSpace space(k);
  graphgen::ProgramGraph g = graphgen::build_graph(k, space);
  const std::string path = ::testing::TempDir() + "md_knn.dot";
  graphgen::write_dot(g, path);
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
  std::remove(path.c_str());
}

TEST(JsonExport, StructureAndCounts) {
  kir::Kernel k = kernels::Registry::global().get("spmv-crs");
  dspace::DesignSpace space(k);
  graphgen::ProgramGraph g = graphgen::build_graph(k, space);
  const std::string json = graphgen::to_json(g);
  EXPECT_NE(json.find("\"kernel\":\"spmv-crs\""), std::string::npos);
  EXPECT_NE(json.find("\"num_nodes\":" + std::to_string(g.num_nodes())),
            std::string::npos);
  // One "src": entry per edge.
  std::size_t count = 0, pos = 0;
  while ((pos = json.find("\"src\":", pos)) != std::string::npos) {
    ++count;
    pos += 6;
  }
  EXPECT_EQ(count, g.edges.size());
  // Balanced braces/brackets (cheap well-formedness check).
  long braces = 0, brackets = 0;
  for (char c : json) {
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(JsonExport, FeaturesRequireSpaceAndConfig) {
  kir::Kernel k = kernels::Registry::global().get("aes");
  dspace::DesignSpace space(k);
  graphgen::ProgramGraph g = graphgen::build_graph(k, space);
  graphgen::JsonOptions opts;
  opts.include_features = true;
  EXPECT_THROW(graphgen::to_json(g, opts), std::invalid_argument);
  hlssim::DesignConfig cfg = hlssim::DesignConfig::neutral(k);
  opts.space = &space;
  opts.config = &cfg;
  const std::string json = graphgen::to_json(g, opts);
  EXPECT_NE(json.find("\"node_features\":"), std::string::npos);
  EXPECT_NE(json.find("\"edge_features\":"), std::string::npos);
}

TEST(JsonExport, WritesFile) {
  kir::Kernel k = kernels::Registry::global().get("doitgen");
  dspace::DesignSpace space(k);
  graphgen::ProgramGraph g = graphgen::build_graph(k, space);
  const std::string path = ::testing::TempDir() + "doitgen.json";
  graphgen::write_json(g, path);
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
  std::remove(path.c_str());
}

TEST(NormalizeConfig, FgUnrollsDescendantsAndDiscardsTheirPragmas) {
  kir::Kernel k = kernels::Registry::global().get("gemm-ncubed");
  hlssim::DesignConfig cfg = hlssim::DesignConfig::neutral(k);
  cfg.loops[0].pipeline = hlssim::PipeMode::kFine;  // i
  cfg.loops[1].parallel = 8;                        // j: discarded
  cfg.loops[2].tile = 4;                            // k: discarded
  auto eff = hlssim::normalize_config(k, cfg);
  EXPECT_EQ(eff[1].pipeline, hlssim::PipeMode::kOff);
  EXPECT_EQ(eff[1].parallel, k.loops[1].trip_count);  // fully unrolled
  EXPECT_EQ(eff[2].parallel, k.loops[2].trip_count);
  EXPECT_EQ(eff[2].tile, 1);
}

TEST(NormalizeConfig, ClampsAndCoercesCg) {
  kir::Kernel k = kernels::Registry::global().get("gemm-ncubed");
  hlssim::DesignConfig cfg = hlssim::DesignConfig::neutral(k);
  cfg.loops[2].pipeline = hlssim::PipeMode::kCoarse;  // childless k loop
  cfg.loops[2].parallel = 100000;                     // above trip count
  auto eff = hlssim::normalize_config(k, cfg);
  EXPECT_EQ(eff[2].pipeline, hlssim::PipeMode::kFine);
  EXPECT_EQ(eff[2].parallel, k.loops[2].trip_count);
  EXPECT_THROW(hlssim::normalize_config(k, hlssim::DesignConfig{}),
               std::invalid_argument);
}

TEST(CliArgs, ParsesPositionalAndOptions) {
  const char* argv[] = {"gnndse", "dse",        "mvt",  "--time",
                        "30",     "--verbose",  "--top", "5"};
  cli::Args args(8, const_cast<char**>(argv));
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "dse");
  EXPECT_EQ(args.positional()[1], "mvt");
  EXPECT_EQ(args.get_double("time", 0), 30.0);
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_EQ(args.get_int("top", 0), 5);
  EXPECT_EQ(args.get_int("missing", 7), 7);
  EXPECT_EQ(args.get("missing", "x"), "x");
}

TEST(CliArgs, FlagFollowedByFlag) {
  const char* argv[] = {"gnndse", "train", "--verbose", "--extension"};
  cli::Args args(4, const_cast<char**>(argv));
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_TRUE(args.has("extension"));
}

}  // namespace
}  // namespace gnndse
