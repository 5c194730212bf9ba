// DSE workloads: each job is what `gnndse dse <kernel>` does after loading
// its weights — ModelDse::run on a cold sample factory, then evaluate_top
// through a fresh oracle stack.
//
//   dse_exhaustive  spaces of at most 8000 configs, swept whole: full
//                   256-config chunks stream through the sweep engine.
//   dse_heuristic   larger spaces, §4.4 beam plus random search under a
//                   fixed config budget: every beam site ends in a
//                   top_configs barrier and most chunks are partial.
#include <cmath>
#include <cstring>

#include "e2e.hpp"
#include "kernels/registry.hpp"
#include "obs/trace.hpp"
#include "oracle/stack.hpp"
#include "serve/batcher.hpp"
#include "util/timer.hpp"

namespace gnndse::bench_e2e {

namespace {

struct DseMix {
  int generated = 0;               // seed-generated kernels, run first
  KernelBand band;                 // ... drawn from this size band
  std::vector<std::string> fixed;  // registry kernels, run after them
  std::uint64_t max_configs = 0;   // per-job budget; 0 = exhaustive
};

DseMix dse_mix(bool heuristic, bool smoke) {
  DseMix m;
  if (heuristic) {
    m.fixed = {"mvt", "stencil", "gemm-blocked", "fdtd-2d", "gemver", "2mm"};
    m.generated = 2;
    m.band = {55, 67, 20'000, ~std::uint64_t{0}};  // fdtd-2d, gemver, 2mm
    m.max_configs = 800;
  } else {
    // Table 3's exhaustive kernels plus atax; bicg, the largest, runs last
    // so the jobs that fit after the first pass are shorter ones.
    m.fixed = {"doitgen", "gesummv", "atax", "bicg"};
    m.generated = 2;
    m.band = {35, 40, 850, 950};  // doitgen and gesummv
  }
  if (smoke) {
    m.fixed.resize(1);
    m.generated = 1;
    if (heuristic) m.max_configs = 300;
  }
  return m;
}

std::vector<kir::Kernel> dse_kernels(const DseMix& mix, std::uint64_t seed) {
  std::vector<kir::Kernel> ks = generate_kernels(seed, mix.generated, mix.band);
  for (const auto& name : mix.fixed)
    ks.push_back(kernels::Registry::global().get(name));
  return ks;
}

bool same_bits(const dse::RankedDesign& d, const serve::PredictResult& p) {
  return p.ok &&
         std::memcmp(d.predicted.data(), p.predicted.data(),
                     sizeof d.predicted) == 0 &&
         std::memcmp(&d.p_valid, &p.p_valid, sizeof d.p_valid) == 0;
}

struct Sweep {
  std::vector<double> job_ms;     // run + evaluate_top, per job
  std::vector<double> pass_rate;  // configs per ModelDse::run second
  std::uint64_t configs = 0;
  StageTotals stages;

  /// Median over passes: every pass runs the same jobs, and a burst of
  /// load on the host slows one pass, not the median.
  double configs_per_s() const { return median(pass_rate); }
  std::size_t passes() const { return pass_rate.size(); }
};

class DseRunner {
 public:
  DseRunner(const Options& opts, const BundleSpec& spec, bool heuristic)
      : opts_(opts), spec_(spec), mix_(dse_mix(heuristic, opts.smoke)) {}

  /// Loads the bundle, builds the job kernels, and warms up with a short
  /// job per kernel: inference workspaces reach their largest shapes and
  /// the allocator its steady state (the first full pass otherwise runs
  /// about 20% slower than later ones). Returns seconds taken.
  double setup() {
    util::Timer t;
    bundle_ = load_bundle(spec_, opts_.cache_dir);
    instance_ = std::make_unique<serve::ModelInstance>();
    instance_->ensure(bundle_.snapshot);
    kernels_ = dse_kernels(mix_, opts_.seed);
    dse::DseOptions warm = options();
    warm.max_configs = static_cast<std::uint64_t>(warm.chunk);
    for (const kir::Kernel& k : kernels_) {
      model::SampleFactory factory;
      dse::ModelDse dse(instance_->bundle(), instance_->normalizer(), factory);
      util::Rng rng(opts_.seed);
      dse.run(k, warm, rng);
    }
    return t.seconds();
  }

  /// Runs whole passes, one job per kernel in order, while the next pass
  /// is expected to end within `seconds`, at least `min_passes` and at
  /// most `max_passes` of them. Whole passes keep the job mix, and so the
  /// latency percentiles, the same in every run. The first pass of the
  /// first call also scores the surrogate on the designs evaluate_top
  /// measured (registry kernels only, so the score does not depend on the
  /// seed) and records each kernel's design speedup.
  Sweep measure(double seconds, std::size_t min_passes, std::size_t max_passes,
                Result& result) {
    Sweep sw;
    util::Timer t;
    double pass_s = 0.0;
    while (sw.passes() < max_passes &&
           (sw.passes() < min_passes || t.seconds() + pass_s <= seconds)) {
      util::Timer pt;
      double run_s = 0.0;
      const std::uint64_t before = sw.configs;
      for (std::size_t idx = 0; idx < kernels_.size(); ++idx)
        run_s += run_job(idx, !scored_, sw, result);
      sw.pass_rate.push_back(static_cast<double>(sw.configs - before) / run_s);
      pass_s = pt.seconds();
      scored_ = true;
    }
    return sw;
  }

  const std::vector<kir::Kernel>& kernels() const { return kernels_; }
  const Bundle& bundle() const { return bundle_; }
  const QualityScore& quality() const { return quality_; }
  const std::vector<double>& speedups() const { return speedups_; }
  const DseMix& mix() const { return mix_; }

 private:
  dse::DseOptions options() const {
    dse::DseOptions o;
    o.time_limit_seconds = 1e9;  // bounded by the space or the budget
    o.max_configs = mix_.max_configs;
    return o;
  }

  /// One DSE job; returns its ModelDse::run seconds.
  double run_job(std::size_t idx, bool score, Sweep& sw, Result& result) {
    const kir::Kernel& k = kernels_[idx];
    obs::ScopedSpan job_span("bench.dse_job");
    model::SampleFactory factory;  // cold, like a fresh `gnndse dse`
    dse::ModelDse dse(instance_->bundle(), instance_->normalizer(), factory);
    // Registry kernels search with a fixed seed, so their designs (and the
    // quality score) are the same in every run.
    const bool generated = idx < static_cast<std::size_t>(mix_.generated);
    util::Rng rng(generated ? opts_.seed + idx : idx);
    const dse::DseOptions o = options();

    util::Timer t;
    dse::DseResult r;
    {
      obs::ScopedSpan span("bench.dse.run");
      r = dse.run(k, o, rng);
    }
    const double run_s = t.seconds();
    oracle::OracleStack oracle{oracle::OracleOptions{}};
    util::Timer te;
    dse::ModelDse::TopEvaluation ev;
    {
      obs::ScopedSpan span("bench.dse.evaluate_top");
      ev = dse.evaluate_top(k, r, oracle, o.util_threshold);
    }
    const double eval_ms = te.millis();
    sw.job_ms.push_back(run_s * 1e3 + eval_ms);
    sw.configs += r.num_explored;
    sw.stages.add(r, eval_ms);
    result.op(r.num_explored > 0 && !r.top.empty(),
              "dse job on " + k.name + " scored nothing");

    // Every top design must carry the bits a single-config predict gives.
    bool match = true;
    for (const dse::RankedDesign& d : r.top)
      match = match && same_bits(d, serve::predict_single(*instance_, factory,
                                                           k, d.config));
    result.op(match, "dse top-M of " + k.name +
                         " differs from serve::predict_single");
    if (!score) return run_s;

    const hlssim::HlsResult neutral =
        oracle.evaluate(k, hlssim::DesignConfig::neutral(k));
    const double best = ev.best ? ev.best->result.cycles : neutral.cycles;
    speedups_.push_back(neutral.valid && best > 0 ? neutral.cycles / best : 1.0);
    if (generated) return run_s;
    for (const db::DataPoint& p : ev.evaluated)
      if (const dse::RankedDesign* d = ranked(r, p.config))
        quality_.add(d->predicted, d->p_valid, p.result,
                     instance_->normalizer());
    return run_s;
  }

  /// The ranked design evaluate_top took `cfg` from.
  static const dse::RankedDesign* ranked(const dse::DseResult& r,
                                         const hlssim::DesignConfig& cfg) {
    for (const auto* list : {&r.top, &r.reserve})
      for (const dse::RankedDesign& d : *list)
        if (d.config == cfg) return &d;
    return nullptr;
  }

  const Options& opts_;
  const BundleSpec& spec_;
  DseMix mix_;
  Bundle bundle_;
  std::unique_ptr<serve::ModelInstance> instance_;
  std::vector<kir::Kernel> kernels_;
  bool scored_ = false;
  QualityScore quality_;
  std::vector<double> speedups_;
};

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

}  // namespace

void StageTotals::add(const dse::DseResult& r, double eval_ms) {
  featurize_ms += r.stages.featurize_ms;
  predict_ms += r.stages.predict_ms;
  rank_ms += r.stages.rank_ms;
  wall_ms += r.stages.wall_ms;
  evaluate_top_ms += eval_ms;
  chunks += r.stages.chunks;
  configs += r.num_explored;
  ++jobs;
}

void StageTotals::emit(Result& result) const {
  const double c = static_cast<double>(std::max<std::uint64_t>(chunks, 1));
  result.metric("dse.stage.featurize_ms", featurize_ms / c, "ms");
  result.metric("dse.stage.predict_ms", predict_ms / c, "ms");
  result.metric("dse.stage.rank_ms", rank_ms / c, "ms");
  result.metric("dse.stage.overlap_ratio",
                wall_ms > 0 ? (featurize_ms + predict_ms + rank_ms) / wall_ms
                            : 0.0,
                "ratio");
  result.metric("dse.predict_share", wall_ms > 0 ? predict_ms / wall_ms : 0.0,
                "ratio");
  result.metric("dse.chunk_fill",
                static_cast<double>(configs) / (c * 256.0), "ratio");
  result.metric("dse.evaluate_top_ms",
                evaluate_top_ms / static_cast<double>(std::max<std::uint64_t>(jobs, 1)),
                "ms");
}

void run_dse(const Options& opts, const BundleSpec& spec, bool heuristic,
             Result& result) {
  DseRunner runner(opts, spec, heuristic);
  std::vector<double> setups;
  for (int i = 0; i < kSetupReps; ++i) setups.push_back(runner.setup());
  result.inputs["kernels"] = std::to_string(runner.kernels().size());
  std::string names;
  for (const auto& k : runner.kernels()) {
    if (!names.empty()) names += ' ';
    names += k.name;
  }
  result.inputs["kernel_names"] = names;
  result.inputs["max_configs"] = std::to_string(runner.mix().max_configs);

  constexpr std::size_t kAll = ~std::size_t{0};
  if (!opts.trace) {
    const Sweep sw = runner.measure(opts.seconds, 1, kAll, result);
    result.metric("setup_s", median(setups), "s");
    result.metric("throughput", sw.configs_per_s(), "1/s");
    result.metric("latency_p50_ms", percentile(sw.job_ms, 0.5), "ms");
    result.metric("latency_p90_ms", percentile(sw.job_ms, 0.9), "ms");
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
    result.metric("model_rmse", runner.quality().rmse_all(), "norm");
    result.metric("model_f1", runner.quality().f1(), "ratio");
    result.note("dse_best_speedup", geomean(runner.speedups()), "x");
    result.note("passes", static_cast<double>(sw.passes()), "count");
    result.note("configs", static_cast<double>(sw.configs), "count");
    result.note("quality_designs",
                static_cast<double>(runner.quality().designs()), "count");
    return;
  }
  // The traced half runs as many passes as the untraced half, so the two
  // rates compare the same work.
  const Sweep plain = runner.measure(opts.seconds / 2, 1, kAll, result);
  TracedPhase traced(opts);
  const Sweep sw =
      runner.measure(0.0, plain.passes(), plain.passes(), result);
  result.metric("trace_overhead_ratio",
                sw.configs_per_s() / plain.configs_per_s(), "ratio");
  probe_layers(opts, runner.bundle(), runner.kernels(), sw.stages, result);
  traced.finish(result);
}

}  // namespace gnndse::bench_e2e
