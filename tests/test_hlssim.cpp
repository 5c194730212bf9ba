// HLS-substrate semantics: Merlin pragma behavior, II limits, resource
// scaling, validity rules and the synthetic synthesis clock. Properties are
// checked across the whole kernel suite with parameterized tests.
#include "hlssim/hls_sim.hpp"

#include <gtest/gtest.h>

#include "kernels/kernels.hpp"
#include "kernels/registry.hpp"

namespace gnndse::hlssim {
namespace {

const MerlinHls& hls() {
  static MerlinHls h;
  return h;
}

// --- config plumbing --------------------------------------------------------

TEST(DesignConfig, KeyRoundTrip) {
  kir::Kernel k = kernels::Registry::global().get("gemm-ncubed");
  DesignConfig cfg = DesignConfig::neutral(k);
  cfg.loops[0].pipeline = PipeMode::kCoarse;
  cfg.loops[1].parallel = 8;
  cfg.loops[2].tile = 4;
  DesignConfig parsed = parse_config_key(cfg.key());
  EXPECT_EQ(parsed, cfg);
}

TEST(DesignConfig, ParseRejectsGarbage) {
  EXPECT_THROW(parse_config_key("L0:frobnicate/1/1"), std::invalid_argument);
  EXPECT_THROW(parse_config_key("nonsense"), std::invalid_argument);
  // Segment i must be labelled L<i>: a reordered key would otherwise set
  // the wrong loop's pragmas.
  EXPECT_THROW(parse_config_key("L1:fg/1/1;L0:off/1/1"), std::invalid_argument);
  EXPECT_THROW(parse_config_key("L3:fg/1/1;L2:off/1/1;L1:off/1/1;L0:off/1/1"),
               std::invalid_argument);
  EXPECT_THROW(parse_config_key("Lx:off/1/1"), std::invalid_argument);
  // Factors are whole integers >= 1.
  EXPECT_THROW(parse_config_key("L0:off/-8/0;L1:off/1/1x"),
               std::invalid_argument);
  EXPECT_THROW(parse_config_key("L0:off/1/1x"), std::invalid_argument);
  EXPECT_THROW(parse_config_key("L0:off/0/1"), std::invalid_argument);
  EXPECT_THROW(parse_config_key("L0:off//1"), std::invalid_argument);
  EXPECT_THROW(parse_config_key("L0:off/ 2/1"), std::invalid_argument);
  EXPECT_THROW(parse_config_key("L0:off/99999999999999999999/1"),
               std::invalid_argument);
  EXPECT_THROW(parse_config_key("L0:off/1"), std::invalid_argument);
  EXPECT_THROW(parse_config_key("L0:off/1/1;"), std::invalid_argument);
}

TEST(PipeModeNames, Stable) {
  EXPECT_STREQ(to_string(PipeMode::kOff), "off");
  EXPECT_STREQ(to_string(PipeMode::kCoarse), "cg");
  EXPECT_STREQ(to_string(PipeMode::kFine), "fg");
}

// --- per-kernel invariants ---------------------------------------------------

class AllKernelsSim : public ::testing::TestWithParam<std::string> {};

TEST_P(AllKernelsSim, NeutralDesignIsValid) {
  kir::Kernel k = kernels::Registry::global().get(GetParam());
  HlsResult r = hls().evaluate(k, DesignConfig::neutral(k));
  EXPECT_TRUE(r.valid) << r.invalid_reason;
  EXPECT_GT(r.cycles, 0.0);
  EXPECT_GT(r.lut, 0);
  EXPECT_GT(r.synth_seconds, 0.0);
}

TEST_P(AllKernelsSim, Deterministic) {
  kir::Kernel k = kernels::Registry::global().get(GetParam());
  DesignConfig cfg = DesignConfig::neutral(k);
  cfg.loops.back().pipeline = PipeMode::kFine;
  HlsResult a = hls().evaluate(k, cfg);
  HlsResult b = hls().evaluate(k, cfg);
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_DOUBLE_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.lut, b.lut);
  EXPECT_DOUBLE_EQ(a.synth_seconds, b.synth_seconds);
}

TEST_P(AllKernelsSim, UtilizationsConsistentWithCounts) {
  kir::Kernel k = kernels::Registry::global().get(GetParam());
  HlsResult r = hls().evaluate(k, DesignConfig::neutral(k));
  FpgaResources dev;
  EXPECT_NEAR(r.util_dsp, static_cast<double>(r.dsp) / dev.dsp, 1e-9);
  EXPECT_NEAR(r.util_lut, static_cast<double>(r.lut) / dev.lut, 1e-9);
  EXPECT_NEAR(r.util_bram, static_cast<double>(r.bram) / dev.bram18, 1e-9);
  EXPECT_NEAR(r.util_ff, static_cast<double>(r.ff) / dev.ff, 1e-9);
}

TEST_P(AllKernelsSim, InnermostFinePipeliningHelps) {
  kir::Kernel k = kernels::Registry::global().get(GetParam());
  const HlsResult base = hls().evaluate(k, DesignConfig::neutral(k));
  // fg-pipeline every innermost loop: never worse than fully sequential.
  DesignConfig cfg = DesignConfig::neutral(k);
  for (int l : k.innermost_loops())
    if (k.loops[static_cast<std::size_t>(l)].can_pipeline)
      cfg.loops[static_cast<std::size_t>(l)].pipeline = PipeMode::kFine;
  HlsResult piped = hls().evaluate(k, cfg);
  if (piped.valid) EXPECT_LE(piped.cycles, base.cycles * 1.01);
}

std::vector<std::string> all_names() {
  auto names = kernels::training_kernel_names();
  for (const auto& n : kernels::unseen_kernel_names()) names.push_back(n);
  for (const auto& n :
       kernels::Registry::global().names(kernels::Provenance::kExtension))
    names.push_back(n);
  return names;
}

INSTANTIATE_TEST_SUITE_P(Suite, AllKernelsSim,
                         ::testing::ValuesIn(all_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

// --- pragma semantics ---------------------------------------------------------

TEST(MerlinSemantics, ParallelReducesLatencyOnParallelLoop) {
  kir::Kernel k = kernels::Registry::global().get("stencil");
  DesignConfig base = DesignConfig::neutral(k);
  HlsResult r1 = hls().evaluate(k, base);
  DesignConfig par = base;
  par.loops[0].parallel = 2;  // loop r: no carried dependence
  HlsResult r2 = hls().evaluate(k, par);
  ASSERT_TRUE(r1.valid && r2.valid);
  EXPECT_LT(r2.cycles, r1.cycles);
}

TEST(MerlinSemantics, ParallelScalesResources) {
  kir::Kernel k = kernels::Registry::global().get("gemm-ncubed");
  DesignConfig a = DesignConfig::neutral(k);
  DesignConfig b = a;
  b.loops[2].parallel = 8;  // unroll the k loop
  HlsResult ra = hls().evaluate(k, a);
  HlsResult rb = hls().evaluate(k, b);
  ASSERT_TRUE(ra.valid && rb.valid);
  EXPECT_GT(rb.dsp, ra.dsp);
  EXPECT_GT(rb.lut, ra.lut);
}

TEST(MerlinSemantics, FgPipelineSubsumesInnerPragmas) {
  // With fg pipelining on j, inner-loop pragmas are discarded: the two
  // configurations must evaluate identically (Merlin's rule in §2.3).
  kir::Kernel k = kernels::Registry::global().get("gemm-ncubed");
  DesignConfig a = DesignConfig::neutral(k);
  a.loops[1].pipeline = PipeMode::kFine;
  DesignConfig b = a;
  b.loops[2].parallel = 4;
  b.loops[2].pipeline = PipeMode::kCoarse;
  HlsResult ra = hls().evaluate(k, a);
  HlsResult rb = hls().evaluate(k, b);
  EXPECT_DOUBLE_EQ(ra.cycles, rb.cycles);
  EXPECT_EQ(ra.lut, rb.lut);
}

TEST(MerlinSemantics, RecurrenceLimitsPipelineII) {
  // atax j1 carries a floating-point accumulation (latency 4): pipelining
  // cannot reach II=1, so latency stays above trip_count * 4.
  kir::Kernel k = kernels::Registry::global().get("atax");
  DesignConfig cfg = DesignConfig::neutral(k);
  cfg.loops[1].pipeline = PipeMode::kFine;  // j1
  HlsResult r = hls().evaluate(k, cfg);
  ASSERT_TRUE(r.valid);
  // 410 iterations of i1, each pipelining 390 iterations at II >= 4.
  EXPECT_GE(r.cycles, 410.0 * 390.0 * 4.0 * 0.9);
}

TEST(MerlinSemantics, TileImprovesStridedOffChipAccess) {
  kir::Kernel k = kernels::Registry::global().get("stencil");
  DesignConfig a = DesignConfig::neutral(k);
  DesignConfig b = a;
  b.loops[0].tile = 8;  // tile site on loop r
  HlsResult ra = hls().evaluate(k, a);
  HlsResult rb = hls().evaluate(k, b);
  ASSERT_TRUE(ra.valid && rb.valid);
  EXPECT_LT(rb.cycles, ra.cycles);
  EXPECT_GE(rb.bram, ra.bram);  // tile buffers cost BRAM
}

TEST(MerlinSemantics, CoarseGrainPipelineOverlapsStages) {
  // atax i1 has child loop j1 -> cg creates a dataflow pipeline; since i1
  // itself carries no dependence the stages overlap. One stage dominates
  // here, so the win is bounded — but cg must never cost more than the
  // stage overhead over sequential execution.
  kir::Kernel k = kernels::Registry::global().get("atax");
  DesignConfig a = DesignConfig::neutral(k);
  DesignConfig b = a;
  b.loops[0].pipeline = PipeMode::kCoarse;
  HlsResult ra = hls().evaluate(k, a);
  HlsResult rb = hls().evaluate(k, b);
  ASSERT_TRUE(ra.valid && rb.valid);
  EXPECT_LE(rb.cycles, ra.cycles * 1.01);
}

TEST(MerlinSemantics, CoarseGrainPipelineWinsWithBalancedStages) {
  // mvt's two top-level nests are balanced; wrapping them in a synthetic
  // outer cg region is not expressible here, but gemm-blocked's kk loop
  // has a dominant child too — instead check cg on stencil's r loop whose
  // body (c/k1/k2 nest) plus store statement form two stages: overlap must
  // not lose more than the fixed stage overhead.
  kir::Kernel k = kernels::Registry::global().get("stencil");
  DesignConfig a = DesignConfig::neutral(k);
  DesignConfig b = a;
  b.loops[0].pipeline = PipeMode::kCoarse;
  HlsResult ra = hls().evaluate(k, a);
  HlsResult rb = hls().evaluate(k, b);
  ASSERT_TRUE(ra.valid && rb.valid);
  EXPECT_LE(rb.cycles, ra.cycles * 1.01);
}

TEST(MerlinSemantics, PaddedParallelFactorCostsExtraChunk) {
  // Non-divisor factor: 126 % 4 != 0 -> ceil(126/4) = 32 chunks vs 63 for
  // factor 2; latency should not scale better than the divisor case.
  kir::Kernel k = kernels::Registry::global().get("stencil");
  DesignConfig d2 = DesignConfig::neutral(k);
  d2.loops[0].parallel = 2;  // divides 126
  DesignConfig d4 = DesignConfig::neutral(k);
  d4.loops[0].parallel = 4;  // pads
  HlsResult r2 = hls().evaluate(k, d2);
  HlsResult r4 = hls().evaluate(k, d4);
  ASSERT_TRUE(r2.valid && r4.valid);
  // Factor 4 still helps, but less than the ideal 2x over factor 2.
  EXPECT_LT(r4.cycles, r2.cycles);
  EXPECT_GT(r4.cycles, r2.cycles / 2.0 * 0.95);
}

// --- validity rules -------------------------------------------------------------

TEST(ValidityRules, ExcessiveUnrollRefused) {
  // fg pipelining gemm's outer loop fully unrolls j*k = 4096 and the
  // parallel factor pushes past the tool limit.
  kir::Kernel k = kernels::Registry::global().get("gemm-ncubed");
  DesignConfig cfg = DesignConfig::neutral(k);
  cfg.loops[0].pipeline = PipeMode::kFine;
  cfg.loops[0].parallel = 8;
  HlsResult r = hls().evaluate(k, cfg);
  EXPECT_FALSE(r.valid);
  EXPECT_NE(r.invalid_reason.find("refused"), std::string::npos);
}

TEST(ValidityRules, WideOffChipParallelRefused) {
  kir::Kernel k = kernels::Registry::global().get("mvt");
  DesignConfig cfg = DesignConfig::neutral(k);
  cfg.loops[0].parallel = 400;  // wider than the off-chip interface limit
  HlsResult r = hls().evaluate(k, cfg);
  EXPECT_FALSE(r.valid);
}

TEST(ValidityRules, NonAssociativeParallelTimesOut) {
  // nw's DP recurrence: parallelizing the j loop by 8 forces wavefront
  // rewrites whose synthesis effort explodes past the 4h budget.
  kir::Kernel k = kernels::Registry::global().get("nw");
  DesignConfig cfg = DesignConfig::neutral(k);
  cfg.loops[1].parallel = 8;
  HlsResult r = hls().evaluate(k, cfg);
  EXPECT_FALSE(r.valid);
  EXPECT_NE(r.invalid_reason.find("timeout"), std::string::npos);
  EXPECT_DOUBLE_EQ(r.synth_seconds, MerlinHls::kTimeoutSeconds);
}

TEST(ValidityRules, MildNonAssociativeParallelSurvives) {
  kir::Kernel k = kernels::Registry::global().get("nw");
  DesignConfig cfg = DesignConfig::neutral(k);
  cfg.loops[1].parallel = 2;
  HlsResult r = hls().evaluate(k, cfg);
  EXPECT_TRUE(r.valid) << r.invalid_reason;
}

TEST(ValidityRules, SynthesisTimeGrowsWithUnroll) {
  kir::Kernel k = kernels::Registry::global().get("gemm-ncubed");
  DesignConfig small = DesignConfig::neutral(k);
  DesignConfig big = small;
  big.loops[1].parallel = 16;
  big.loops[2].parallel = 16;
  HlsResult rs = hls().evaluate(k, small);
  HlsResult rb = hls().evaluate(k, big);
  EXPECT_GT(rb.synth_seconds, rs.synth_seconds);
}

// --- global behavior ---------------------------------------------------------

TEST(BandwidthFloor, LatencyNeverBeatsOffChipBytes) {
  kir::Kernel k = kernels::Registry::global().get("mvt");
  // Even an absurdly parallel valid design cannot beat bytes/bus_width:
  // mvt touches 2 * 400*400 * 4B of matrix data.
  DesignConfig cfg = DesignConfig::neutral(k);
  cfg.loops[1].pipeline = PipeMode::kFine;
  cfg.loops[1].parallel = 64;
  cfg.loops[3].pipeline = PipeMode::kFine;
  cfg.loops[3].parallel = 64;
  HlsResult r = hls().evaluate(k, cfg);
  ASSERT_TRUE(r.valid) << r.invalid_reason;
  const double floor = 2.0 * 400.0 * 400.0 * 4.0 / 64.0;
  EXPECT_GE(r.cycles, floor * 0.99);
}

TEST(DesignConfigErrors, WrongSizeRejected) {
  kir::Kernel k = kernels::Registry::global().get("aes");
  DesignConfig cfg;  // empty
  EXPECT_THROW(hls().evaluate(k, cfg), std::invalid_argument);
}

TEST(LatencyRange, SuiteSpansPaperMagnitudes) {
  // The paper's database spans 660 .. 12.5M cycles; our substrate should
  // cover a comparable dynamic range across kernels and configs.
  double min_lat = 1e30, max_lat = 0.0;
  for (const auto& name : kernels::training_kernel_names()) {
    kir::Kernel k = kernels::Registry::global().get(name);
    HlsResult neutral = hls().evaluate(k, DesignConfig::neutral(k));
    max_lat = std::max(max_lat, neutral.cycles);
    DesignConfig tuned = DesignConfig::neutral(k);
    for (int l : k.innermost_loops())
      if (k.loops[static_cast<std::size_t>(l)].can_pipeline)
        tuned.loops[static_cast<std::size_t>(l)].pipeline = PipeMode::kFine;
    HlsResult opt = hls().evaluate(k, tuned);
    if (opt.valid) min_lat = std::min(min_lat, opt.cycles);
  }
  EXPECT_LT(min_lat, 10000.0);
  EXPECT_GT(max_lat, 1e6);
}

}  // namespace
}  // namespace gnndse::hlssim
