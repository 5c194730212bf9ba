// The 13 benchmark kernels: structural invariants and the paper's
// pragma-site counts (Tables 1 and 3), parameterized across the suite.
#include "kernels/kernels.hpp"

#include <gtest/gtest.h>

#include <map>

#include "dspace/design_space.hpp"
#include "kernels/registry.hpp"

namespace gnndse::kernels {
namespace {

class AllKernels : public ::testing::TestWithParam<std::string> {};

TEST_P(AllKernels, ValidatesStructurally) {
  kir::Kernel k = Registry::global().get(GetParam());
  EXPECT_NO_THROW(kir::validate(k));
  EXPECT_FALSE(k.loops.empty());
  EXPECT_FALSE(k.stmts.empty());
  EXPECT_FALSE(k.arrays.empty());
}

TEST_P(AllKernels, PragmaCountMatchesPaper) {
  // Core suite: Table 1/3 counts. Extension kernels (future-work set):
  // our own documented counts.
  static const std::map<std::string, int> expected{
      {"aes", 3},      {"atax", 5},         {"gemm-blocked", 9},
      {"gemm-ncubed", 7}, {"mvt", 8},       {"spmv-crs", 3},
      {"spmv-ellpack", 3}, {"stencil", 7},  {"nw", 6},
      {"bicg", 5},     {"doitgen", 6},      {"gesummv", 4},
      {"2mm", 14},
      {"gemver", 9},   {"jacobi-2d", 6},    {"fdtd-2d", 9},
      {"trmm", 5},     {"syrk", 6},         {"md-knn", 3}};
  kir::Kernel k = Registry::global().get(GetParam());
  EXPECT_EQ(k.num_pragma_sites(), expected.at(GetParam()));
}

TEST_P(AllKernels, HasNonTrivialDesignSpace) {
  kir::Kernel k = Registry::global().get(GetParam());
  dspace::DesignSpace space(k);
  EXPECT_GT(space.pruned_size(), 1u);
  EXPECT_GE(space.raw_size(), space.pruned_size());
}

TEST_P(AllKernels, EveryLoopReachableFromTop) {
  kir::Kernel k = Registry::global().get(GetParam());
  std::size_t reached = 0;
  for (int top : k.top_loops) reached += k.subtree(top).size();
  EXPECT_EQ(reached, k.loops.size());
}

TEST_P(AllKernels, AccessesReferenceExistingArrays) {
  kir::Kernel k = Registry::global().get(GetParam());
  for (const auto& s : k.stmts)
    for (const auto& a : s.accesses) {
      ASSERT_GE(a.array, 0);
      ASSERT_LT(static_cast<std::size_t>(a.array), k.arrays.size());
    }
}

std::vector<std::string> all_names() {
  std::vector<std::string> names = training_kernel_names();
  for (const auto& n : unseen_kernel_names()) names.push_back(n);
  for (const auto& n : Registry::global().names(Provenance::kExtension))
    names.push_back(n);
  return names;
}

INSTANTIATE_TEST_SUITE_P(Suite, AllKernels, ::testing::ValuesIn(all_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

TEST(KernelRegistry, UnknownNameThrows) {
  EXPECT_THROW(Registry::global().get("definitely-not-a-kernel"),
               std::invalid_argument);
}

TEST(KernelRegistry, TrainingAndUnseenDisjoint) {
  for (const auto& t : training_kernel_names())
    for (const auto& u : unseen_kernel_names()) EXPECT_NE(t, u);
  EXPECT_EQ(training_kernel_names().size(), 9u);
  EXPECT_EQ(unseen_kernel_names().size(), 4u);
}

TEST(KernelRegistry, MakersProduceAll) {
  EXPECT_EQ(make_training_kernels().size(), 9u);
  EXPECT_EQ(make_unseen_kernels().size(), 4u);
}

TEST(KernelStructure, NwCarriesNonAssociativeDeps) {
  kir::Kernel k = Registry::global().get("nw");
  bool found = false;
  for (const auto& s : k.stmts)
    if (s.dep_loop != -1 && !s.dep_associative) found = true;
  EXPECT_TRUE(found);
}

TEST(KernelStructure, GemmCarriesAssociativeReduction) {
  kir::Kernel k = Registry::global().get("gemm-ncubed");
  bool found = false;
  for (const auto& s : k.stmts)
    if (s.dep_loop != -1 && s.dep_associative) found = true;
  EXPECT_TRUE(found);
}

TEST(KernelStructure, SpmvUsesIndirectAccess) {
  for (const char* name : {"spmv-crs", "spmv-ellpack"}) {
    kir::Kernel k = Registry::global().get(name);
    bool found = false;
    for (const auto& s : k.stmts)
      for (const auto& a : s.accesses)
        if (a.kind == kir::AccessKind::kIndirect) found = true;
    EXPECT_TRUE(found) << name;
  }
}

TEST(KernelStructure, MvtHasLargestTrainingSpace) {
  std::uint64_t mvt_size = 0, max_other = 0;
  for (const auto& name : training_kernel_names()) {
    dspace::DesignSpace space{Registry::global().get(name)};
    if (name == "mvt")
      mvt_size = space.pruned_size();
    else
      max_other = std::max(max_other, space.pruned_size());
  }
  EXPECT_GT(mvt_size, max_other);  // Table 1: mvt dominates the suite
}

}  // namespace
}  // namespace gnndse::kernels
