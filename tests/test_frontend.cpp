// Text frontend and seeded generator: round-trip digest identity for every
// compiled-in kernel, strict kir::validate() rejection cases, parser error
// reporting, generator determinism, and the generator smoke gate
// (validate + featurize + simulate) that tests/CMakeLists.txt exposes as
// the `gen_kernels_smoke` ctest.
#include "frontend/kernel_json.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <stdexcept>

#include "dspace/design_space.hpp"
#include "graphgen/featurize.hpp"
#include "graphgen/program_graph.hpp"
#include "hlssim/hls_sim.hpp"
#include "kernels/generator.hpp"
#include "kernels/registry.hpp"
#include "oracle/evaluator.hpp"

namespace gnndse {
namespace {

std::vector<std::string> all_compiled_names() {
  auto& reg = kernels::Registry::global();
  auto names = reg.names(kernels::Provenance::kBuiltin);
  for (const auto& n : reg.names(kernels::Provenance::kExtension))
    names.push_back(n);
  return names;
}

// --- round-trip identity ----------------------------------------------------

class RoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(RoundTrip, SerializeParsePreservesDigest) {
  kir::Kernel k = kernels::Registry::global().get(GetParam());
  const std::string text = frontend::serialize_kernel(k);
  kir::Kernel back = frontend::parse_kernel(text);
  EXPECT_EQ(oracle::kernel_digest(k), oracle::kernel_digest(back))
      << "kernel " << GetParam() << " changed digest across the text format";
  // And the text itself is a fixed point: serializing the parsed kernel
  // reproduces the same bytes.
  EXPECT_EQ(text, frontend::serialize_kernel(back));
}

TEST_P(RoundTrip, FileSaveLoadPreservesDigest) {
  kir::Kernel k = kernels::Registry::global().get(GetParam());
  const std::string path =
      ::testing::TempDir() + "rt_" + GetParam() + ".json";
  frontend::save_kernel_file(k, path);
  kir::Kernel back = frontend::load_kernel_file(path);
  EXPECT_EQ(oracle::kernel_digest(k), oracle::kernel_digest(back));
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllCompiledKernels, RoundTrip,
                         ::testing::ValuesIn(all_compiled_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

TEST(RoundTripSuite, CoversAllNineteenKernels) {
  EXPECT_EQ(all_compiled_names().size(), 19u);
}

// --- strict validation ------------------------------------------------------

kir::Kernel tiny_valid_kernel() {
  kir::KernelBuilder b("tiny");
  const int a = b.add_array("a", 64);
  const int i = b.begin_loop("i", 16);
  b.add_stmt(i, "s", kir::OpMix{.adds = 1},
             {kir::ArrayAccess{a, false, kir::AccessKind::kSequential, i}});
  b.loop(i).can_pipeline = true;
  return b.build();
}

TEST(ValidateRejects, ChildBeforeParent) {
  kir::Kernel k = tiny_valid_kernel();
  k.loops.push_back(k.loops[0]);
  k.loops[0].parent = 1;  // loop 0 claims the later loop as parent
  k.loops[1].children = {0};
  k.loops[1].stmts.clear();
  k.top_loops = {1};
  EXPECT_THROW(kir::validate(k), std::invalid_argument);
}

TEST(ValidateRejects, ChildListedUnderWrongParent) {
  kir::Kernel k = tiny_valid_kernel();
  kir::Loop extra;
  extra.name = "j";
  extra.trip_count = 8;
  extra.parent = -1;
  k.loops.push_back(extra);
  k.top_loops.push_back(1);
  k.loops[0].children.push_back(1);  // claims a top-level loop as child
  EXPECT_THROW(kir::validate(k), std::invalid_argument);
}

TEST(ValidateRejects, ParallelOptionsWithoutOne) {
  kir::Kernel k = tiny_valid_kernel();
  k.loops[0].can_parallel = true;
  k.loops[0].parallel_options = {2, 4};
  EXPECT_THROW(kir::validate(k), std::invalid_argument);
}

TEST(ValidateRejects, FactorAboveTripCount) {
  kir::Kernel k = tiny_valid_kernel();
  k.loops[0].can_parallel = true;
  k.loops[0].parallel_options = {1, 32};
  EXPECT_THROW(kir::validate(k), std::invalid_argument);
}

TEST(ValidateRejects, OutOfRangeArrayAccess) {
  kir::Kernel k = tiny_valid_kernel();
  k.stmts[0].accesses[0].array = 7;
  EXPECT_THROW(kir::validate(k), std::invalid_argument);
}

TEST(ValidateRejects, DrivingLoopNotEnclosing) {
  kir::Kernel k = tiny_valid_kernel();
  kir::Loop extra;
  extra.name = "j";
  extra.trip_count = 8;
  extra.parent = -1;
  k.loops.push_back(extra);
  k.top_loops.push_back(1);
  k.stmts[0].accesses[0].driving_loop = 1;  // sibling loop, not an ancestor
  EXPECT_THROW(kir::validate(k), std::invalid_argument);
}

TEST(ValidateRejects, DepFieldsWithoutDepLoop) {
  kir::Kernel k = tiny_valid_kernel();
  k.stmts[0].dep_loop = -1;
  k.stmts[0].dep_distance = 1;
  k.stmts[0].dep_latency = 4;
  EXPECT_THROW(kir::validate(k), std::invalid_argument);
}

TEST(ValidateRejects, DepLoopNotEnclosing) {
  kir::Kernel k = tiny_valid_kernel();
  kir::Loop extra;
  extra.name = "j";
  extra.trip_count = 8;
  extra.parent = -1;
  k.loops.push_back(extra);
  k.top_loops.push_back(1);
  k.stmts[0].dep_loop = 1;
  k.stmts[0].dep_distance = 1;
  k.stmts[0].dep_latency = 4;
  EXPECT_THROW(kir::validate(k), std::invalid_argument);
}

TEST(ValidateRejects, NonPositiveArrayExtent) {
  kir::Kernel k = tiny_valid_kernel();
  k.arrays[0].num_elems = 0;
  EXPECT_THROW(kir::validate(k), std::invalid_argument);
}

TEST(ValidateRejects, DuplicateTopLoop) {
  kir::Kernel k = tiny_valid_kernel();
  k.top_loops.push_back(0);
  EXPECT_THROW(kir::validate(k), std::invalid_argument);
}

// --- parser errors ----------------------------------------------------------

TEST(ParserRejects, MalformedSyntax) {
  EXPECT_THROW(frontend::parse_kernel("{\"name\": "), std::invalid_argument);
  EXPECT_THROW(frontend::parse_kernel("[1,2"), std::invalid_argument);
  EXPECT_THROW(frontend::parse_kernel("{} trailing"), std::invalid_argument);
}

TEST(ParserRejects, UnknownKeysAndKinds) {
  const std::string base =
      "{\"name\":\"k\",\"arrays\":[],"
      "\"loops\":[{\"name\":\"i\",\"trip_count\":4,\"parent\":-1,"
      "\"parallel\":[1,2]}],\"stmts\":[]}";
  EXPECT_NO_THROW(frontend::parse_kernel(base));
  EXPECT_THROW(
      frontend::parse_kernel(
          "{\"name\":\"k\",\"bogus\":1,\"arrays\":[],\"loops\":[],"
          "\"stmts\":[]}"),
      std::invalid_argument);
  EXPECT_THROW(
      frontend::parse_kernel(
          "{\"name\":\"k\",\"arrays\":[{\"name\":\"a\",\"num_elems\":4}],"
          "\"loops\":[{\"name\":\"i\",\"trip_count\":4,\"parent\":-1}],"
          "\"stmts\":[{\"name\":\"s\",\"loop\":0,\"ops\":{\"adds\":1},"
          "\"accesses\":[{\"array\":0,\"kind\":\"zigzag\","
          "\"driving_loop\":0}]}]}"),
      std::invalid_argument);
}

TEST(ParserRejects, FloatsAndDuplicateKeys) {
  EXPECT_THROW(
      frontend::parse_kernel("{\"name\":\"k\",\"num_functions\":1.5,"
                             "\"arrays\":[],\"loops\":[],\"stmts\":[]}"),
      std::invalid_argument);
  EXPECT_THROW(
      frontend::parse_kernel("{\"name\":\"k\",\"name\":\"k2\","
                             "\"arrays\":[],\"loops\":[],\"stmts\":[]}"),
      std::invalid_argument);
}

TEST(ParserRejects, ValidJsonInvalidKernel) {
  // Parses fine, but the parallel list is missing factor 1 — the strict
  // validate() pass must catch it.
  EXPECT_THROW(
      frontend::parse_kernel(
          "{\"name\":\"k\",\"arrays\":[],"
          "\"loops\":[{\"name\":\"i\",\"trip_count\":4,\"parent\":-1,"
          "\"parallel\":[2,4]}],\"stmts\":[]}"),
      std::invalid_argument);
}

TEST(ParserErrors, CarryLineNumbers) {
  try {
    frontend::parse_kernel("{\n  \"name\": \"k\",\n  \"bogus\": 1\n}");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

// --- generator --------------------------------------------------------------

TEST(Generator, SameSeedSameBytes) {
  kernels::GeneratorConfig cfg;
  kir::Kernel a = kernels::generate(cfg, 7);
  kir::Kernel b = kernels::generate(cfg, 7);
  EXPECT_EQ(oracle::kernel_digest(a), oracle::kernel_digest(b));
  EXPECT_EQ(frontend::serialize_kernel(a), frontend::serialize_kernel(b));
}

TEST(Generator, DistinctSeedsDistinctDigests) {
  kernels::GeneratorConfig cfg;
  std::set<std::uint64_t> digests;
  for (std::uint64_t seed = 0; seed < 50; ++seed)
    digests.insert(oracle::kernel_digest(kernels::generate(cfg, seed)));
  EXPECT_EQ(digests.size(), 50u);
}

TEST(Generator, BatchMatchesSingleCalls) {
  kernels::GeneratorConfig cfg;
  auto batch = kernels::generate_batch(cfg, 100, 5);
  ASSERT_EQ(batch.size(), 5u);
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(oracle::kernel_digest(batch[static_cast<std::size_t>(i)]),
              oracle::kernel_digest(
                  kernels::generate(cfg, 100 + static_cast<std::uint64_t>(i))));
}

TEST(Generator, RespectsStructureKnobs) {
  kernels::GeneratorConfig cfg;
  cfg.min_loops = 4;
  cfg.max_loops = 4;
  cfg.max_depth = 2;
  cfg.max_trip = 64;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    kir::Kernel k = kernels::generate(cfg, seed);
    EXPECT_EQ(k.loops.size(), 4u);
    for (std::size_t l = 0; l < k.loops.size(); ++l) {
      EXPECT_LT(k.loop_depth(static_cast<int>(l)), 2);
      EXPECT_LE(k.loops[l].trip_count, 64);
    }
    EXPECT_GE(k.num_pragma_sites(), 1);
  }
}

TEST(Generator, RoundTripsThroughTextFormat) {
  kernels::GeneratorConfig cfg;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    kir::Kernel k = kernels::generate(cfg, seed);
    kir::Kernel back = frontend::parse_kernel(frontend::serialize_kernel(k));
    EXPECT_EQ(oracle::kernel_digest(k), oracle::kernel_digest(back));
  }
}

// --- smoke gate: generated kernels work end to end --------------------------

TEST(GeneratorSmoke, TwentyFiveKernelsValidateFeaturizeSimulate) {
  kernels::GeneratorConfig cfg;
  hlssim::MerlinHls hls;
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    kir::Kernel k = kernels::generate(cfg, seed);
    ASSERT_NO_THROW(kir::validate(k));

    dspace::DesignSpace space(k);
    EXPECT_GE(space.pruned_size(), 2u);

    graphgen::ProgramGraph g = graphgen::build_graph(k, space);
    ASSERT_NO_THROW(graphgen::validate(g));
    hlssim::DesignConfig cfg0 = hlssim::DesignConfig::neutral(k);
    tensor::Tensor x = graphgen::node_features(g, space, cfg0);
    EXPECT_EQ(x.shape()[0], g.num_nodes());
    EXPECT_EQ(x.shape()[1], graphgen::kNodeFeatureDim);

    hlssim::HlsResult r = hls.evaluate(k, cfg0);
    EXPECT_TRUE(r.valid);
    EXPECT_GT(r.cycles, 0.0);
  }
}

}  // namespace
}  // namespace gnndse
