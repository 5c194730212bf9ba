// Design-space generator: encode/decode, pruning rules, exact counting and
// the §4.4 priority ordering.
#include "dspace/design_space.hpp"

#include <gtest/gtest.h>

#include <set>

#include "kernels/registry.hpp"

namespace gnndse::dspace {
namespace {

using hlssim::DesignConfig;
using hlssim::PipeMode;

TEST(DesignSpace, SiteOrderFollowsPositionIds) {
  // Sites of a loop appear as tile(0), pipeline(1), parallel(2).
  kir::Kernel k = kernels::Registry::global().get("gemm-ncubed");
  DesignSpace space(k);
  int last_loop = -1;
  int last_kind = -1;
  for (const auto& s : space.sites()) {
    if (s.loop != last_loop) {
      last_loop = s.loop;
      last_kind = -1;
    }
    EXPECT_GT(static_cast<int>(s.kind), last_kind);
    last_kind = static_cast<int>(s.kind);
  }
}

TEST(DesignSpace, DecodeEncodeRoundTrip) {
  kir::Kernel k = kernels::Registry::global().get("stencil");
  DesignSpace space(k);
  util::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t idx = rng.uniform_int(space.raw_size());
    DesignConfig cfg = space.decode(idx);
    EXPECT_EQ(space.encode(cfg), idx);
  }
}

TEST(DesignSpace, DecodeOutOfRangeThrows) {
  kir::Kernel k = kernels::Registry::global().get("aes");
  DesignSpace space(k);
  EXPECT_THROW(space.decode(space.raw_size()), std::out_of_range);
}

TEST(DesignSpace, PrunedCountMatchesEnumeration) {
  // The closed-form DP count must equal brute-force enumeration.
  for (const char* name : {"aes", "spmv-crs", "gesummv", "doitgen"}) {
    kir::Kernel k = kernels::Registry::global().get(name);
    DesignSpace space(k);
    std::uint64_t counted = 0;
    space.for_each([&](DesignConfig&&) {
      ++counted;
      return true;
    });
    EXPECT_EQ(counted, space.pruned_size()) << name;
  }
}

TEST(DesignSpace, PrunedConfigsAreDuplicatesUnderFg) {
  // A pruned config differs from its canonical form only under an
  // fg-pipelined ancestor, so the space never loses distinct designs.
  kir::Kernel k = kernels::Registry::global().get("gemm-ncubed");
  DesignSpace space(k);
  DesignConfig cfg = DesignConfig::neutral(k);
  cfg.loops[0].pipeline = PipeMode::kFine;
  EXPECT_FALSE(space.is_pruned(cfg));
  cfg.loops[1].parallel = 4;  // non-neutral under an fg ancestor
  EXPECT_TRUE(space.is_pruned(cfg));
  cfg.loops[1].parallel = 1;
  cfg.loops[2].pipeline = PipeMode::kCoarse;
  EXPECT_TRUE(space.is_pruned(cfg));
}

TEST(DesignSpace, ForEachRespectsLimit) {
  kir::Kernel k = kernels::Registry::global().get("stencil");
  DesignSpace space(k);
  std::uint64_t n = 0;
  space.for_each(
      [&](DesignConfig&&) {
        ++n;
        return true;
      },
      50);
  EXPECT_EQ(n, 50u);
}

TEST(DesignSpace, ForEachVisitorCanStopEnumeration) {
  // Returning false must stop the sweep immediately — cancelled DSE runs
  // rely on this to avoid decoding the rest of a large space.
  kir::Kernel k = kernels::Registry::global().get("stencil");
  DesignSpace space(k);
  std::uint64_t n = 0;
  space.for_each([&](DesignConfig&&) { return ++n < 7; });
  EXPECT_EQ(n, 7u);
}

TEST(DesignSpace, SampleNeverPruned) {
  kir::Kernel k = kernels::Registry::global().get("nw");
  DesignSpace space(k);
  util::Rng rng(5);
  for (int i = 0; i < 300; ++i)
    EXPECT_FALSE(space.is_pruned(space.sample(rng)));
}

TEST(DesignSpace, SampleCoversSpace) {
  kir::Kernel k = kernels::Registry::global().get("aes");
  DesignSpace space(k);
  util::Rng rng(5);
  std::set<std::string> seen;
  for (int i = 0; i < 500; ++i) seen.insert(space.sample(rng).key());
  // aes has 31 pruned configs; random sampling should find most of them.
  EXPECT_GE(seen.size(), 25u);
}

TEST(DesignSpace, NeighborsDifferInExactlyOneSite) {
  kir::Kernel k = kernels::Registry::global().get("gemm-blocked");
  DesignSpace space(k);
  util::Rng rng(9);
  DesignConfig base = space.sample(rng);
  for (const auto& n : space.neighbors(base)) {
    int diffs = 0;
    for (std::size_t l = 0; l < base.loops.size(); ++l) {
      if (n.loops[l].pipeline != base.loops[l].pipeline) ++diffs;
      if (n.loops[l].parallel != base.loops[l].parallel) ++diffs;
      if (n.loops[l].tile != base.loops[l].tile) ++diffs;
    }
    EXPECT_EQ(diffs, 1);
  }
}

TEST(DesignSpace, RawSizeIsProductOfOptions) {
  kir::Kernel k = kernels::Registry::global().get("aes");
  DesignSpace space(k);
  std::uint64_t prod = 1;
  for (const auto& s : space.sites()) prod *= s.options.size();
  EXPECT_EQ(space.raw_size(), prod);
  EXPECT_EQ(space.raw_size(), 45u);  // matches the paper's aes count
}

// --- priority ordering (§4.4) -------------------------------------------------

TEST(PriorityOrder, InnermostLoopsComeFirst) {
  kir::Kernel k = kernels::Registry::global().get("gemm-ncubed");
  DesignSpace space(k);
  auto order = priority_ordered_sites(space);
  ASSERT_EQ(order.size(), space.sites().size());
  // The first site must belong to the deepest loop (k, depth 2) — unless
  // the dependence rule pulled its parent's pipeline up, which can only
  // put a *pipeline* site of the one-shallower loop in front.
  const auto& first = space.sites()[static_cast<std::size_t>(order[0])];
  const int depth = k.loop_depth(first.loop);
  EXPECT_TRUE(depth == 2 ||
              (depth == 1 && first.kind == SiteKind::kPipeline));
}

TEST(PriorityOrder, IsAPermutation) {
  for (const char* name : {"2mm", "stencil", "nw"}) {
    kir::Kernel k = kernels::Registry::global().get(name);
    DesignSpace space(k);
    auto order = priority_ordered_sites(space);
    std::set<int> unique(order.begin(), order.end());
    EXPECT_EQ(unique.size(), space.sites().size()) << name;
  }
}

TEST(PriorityOrder, ParentPipelinePrecedesChildParallel) {
  // Dependence rule: the pipeline pragma of a loop must be evaluated
  // before (or adjacent to) the parallel pragma of its child.
  kir::Kernel k = kernels::Registry::global().get("gemm-ncubed");
  DesignSpace space(k);
  auto order = priority_ordered_sites(space);
  auto pos_of = [&](int loop, SiteKind kind) {
    for (std::size_t p = 0; p < order.size(); ++p) {
      const auto& s = space.sites()[static_cast<std::size_t>(order[p])];
      if (s.loop == loop && s.kind == kind) return static_cast<int>(p);
    }
    return -1;
  };
  // k (loop 2) parallel depends on j (loop 1) pipeline.
  const int j_pipe = pos_of(1, SiteKind::kPipeline);
  const int k_par = pos_of(2, SiteKind::kParallel);
  ASSERT_NE(j_pipe, -1);
  ASSERT_NE(k_par, -1);
  EXPECT_LT(j_pipe, k_par);
}

}  // namespace
}  // namespace gnndse::dspace
