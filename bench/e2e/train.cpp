// train: Trainer::fit throughput on a database generated with the
// workload seed. One round trains each of the three heads for one epoch
// on 96 samples spread evenly over the nine training kernels (valid
// samples for the regression heads, all for the classifier), so every
// round does the same work whatever the seed. Model quality is the pinned
// bundle's on its fixed held-out split, which does not depend on the seed.
#include <cmath>
#include <cstring>

#include "db/explorer.hpp"
#include "e2e.hpp"
#include "kernels/kernels.hpp"
#include "obs/trace.hpp"
#include "oracle/stack.hpp"
#include "serve/batcher.hpp"
#include "util/timer.hpp"

namespace gnndse::bench_e2e {

namespace {

constexpr std::size_t kRoundSamples = 96;  // three minibatches of 32

struct Rounds {
  std::vector<double> round_ms;    // wall time per round
  std::vector<double> round_rate;  // samples trained per fit second, per round

  /// Median over rounds: a burst of load on the host slows a few rounds,
  /// not the median.
  double samples_per_s() const { return median(round_rate); }
};

class TrainRunner {
 public:
  TrainRunner(const Options& opts, const BundleSpec& spec)
      : opts_(opts), spec_(spec), rng_(opts.seed) {}

  /// Builds the seed's database and dataset and fresh models to train,
  /// then warms up with one round (the first epoch of a fresh model pays
  /// for its allocations). Returns seconds taken.
  double setup() {
    util::Timer t;
    factory_ = std::make_unique<model::SampleFactory>();
    kernels_ = kernels::make_training_kernels();
    oracle::OracleStack oracle{oracle::OracleOptions{}};
    util::Rng rng(opts_.seed);
    const db::Database database =
        db::generate_initial_database(kernels_, oracle, rng);
    norm_ = model::Normalizer::fit(database.points());
    ds_ = model::build_dataset(database, kernels_, norm_, *factory_);
    all_.assign(kernels_.size(), {});
    valid_.assign(kernels_.size(), {});
    for (std::size_t i = 0; i < ds_.samples.size(); ++i)
      for (std::size_t k = 0; k < kernels_.size(); ++k)
        if (ds_.samples[i].kernel == kernels_[k].name) {
          all_[k].push_back(i);
          if (ds_.samples[i].valid) valid_[k].push_back(i);
        }

    heads_ = make_heads(spec_.model(), 1, 1, 1, opts_.seed);
    const auto regress = draw(valid_);
    heads_.main_t->fit(ds_, regress);
    heads_.bram_t->fit(ds_, regress);
    heads_.cls_t->fit(ds_, draw(all_));
    return t.seconds();
  }

  Rounds measure(double seconds, Result& result) {
    Rounds rs;
    util::Timer t;
    do {
      obs::ScopedSpan span("bench.train_round");
      const auto regress = draw(valid_);
      const auto classify = draw(all_);
      util::Timer round;
      const double fit_s = fit(*heads_.main_t, regress, "main", result) +
                           fit(*heads_.bram_t, regress, "bram", result) +
                           fit(*heads_.cls_t, classify, "cls", result);
      rs.round_ms.push_back(round.millis());
      rs.round_rate.push_back(
          static_cast<double>(2 * regress.size() + classify.size()) / fit_s);
      ++round_;
    } while (t.seconds() < seconds);
    return rs;
  }

  const std::vector<kir::Kernel>& kernels() const { return kernels_; }

 private:
  /// kRoundSamples indices dealt round-robin over the kernels (the start
  /// kernel rotates per round), each drawn uniformly from that kernel's
  /// pool; kernels with an empty pool are skipped.
  std::vector<std::size_t> draw(
      const std::vector<std::vector<std::size_t>>& pools) {
    std::vector<std::size_t> out;
    for (std::size_t j = 0; out.size() < kRoundSamples; ++j) {
      const auto& pool = pools[(j + round_) % pools.size()];
      if (!pool.empty()) out.push_back(pool[rng_.uniform_int(pool.size())]);
      if (j > 16 * kRoundSamples) break;  // no kernel has samples
    }
    return out;
  }

  /// One epoch of `trainer` on `idx`; returns the seconds it took.
  double fit(model::Trainer& trainer, const std::vector<std::size_t>& idx,
             const char* head, Result& result) {
    obs::ScopedSpan span(std::string("bench.train.fit.") + head);
    util::Timer t;
    const float loss = trainer.fit(ds_, idx);
    const double secs = t.seconds();
    result.op(!idx.empty() && std::isfinite(loss),
              std::string("train: ") + head + " epoch loss is not finite");
    return secs;
  }

  const Options& opts_;
  const BundleSpec& spec_;
  util::Rng rng_;
  std::size_t round_ = 0;
  std::unique_ptr<model::SampleFactory> factory_;
  std::vector<kir::Kernel> kernels_;
  model::Normalizer norm_;
  model::Dataset ds_;
  std::vector<std::vector<std::size_t>> all_, valid_;
  Heads heads_;
};

/// Scores the pinned bundle on its held-out split and checks that the
/// trainer's batched predictions carry the bits serve::predict_single
/// gives for the same designs.
void score_bundle(const BundleSpec& spec, const Bundle& bundle,
                  Result& result) {
  model::SampleFactory factory;
  const HeldOut h = make_heldout(spec, factory);
  serve::ModelInstance instance;
  instance.ensure(bundle.snapshot);
  dse::ModelBundle heads = instance.bundle();
  std::vector<std::size_t> test_valid;
  for (std::size_t i : h.test)
    if (h.dataset.samples[i].valid) test_valid.push_back(i);
  const model::RegressionMetrics reg =
      model::combine(model::eval_regression(*heads.regression_main, h.dataset,
                                            test_valid),
                     model::eval_regression(*heads.regression_bram, h.dataset,
                                            test_valid));
  const model::ClassificationMetrics cls =
      model::eval_classification(*heads.classifier, h.dataset, h.test);
  result.metric("model_rmse", reg.rmse_sum, "norm");
  result.metric("model_f1", cls.f1, "ratio");
  result.note("model_accuracy", cls.accuracy, "ratio");
  result.note("heldout_samples", static_cast<double>(h.test.size()), "count");

  const std::vector<std::size_t> probe(
      test_valid.begin(),
      test_valid.begin() + static_cast<long>(std::min<std::size_t>(16, test_valid.size())));
  const tensor::Tensor main = heads.regression_main->predict(h.dataset, probe);
  for (std::size_t i = 0; i < probe.size(); ++i) {
    const db::DataPoint& p = h.database.points()[probe[i]];
    const kir::Kernel* k = nullptr;
    for (const auto& kk : h.kernels)
      if (kk.name == p.kernel) k = &kk;
    const serve::PredictResult ref =
        serve::predict_single(instance, factory, *k, p.config);
    bool same = ref.ok;
    for (int o = 0; o < 4 && same; ++o) {
      const float v = main.at(static_cast<std::int64_t>(i), o);
      same = std::memcmp(&v, &ref.predicted[static_cast<std::size_t>(o)],
                         sizeof v) == 0;
    }
    result.op(same, "train: batched prediction of " + p.kernel +
                        " differs from serve::predict_single");
  }
}

}  // namespace

void run_train(const Options& opts, const BundleSpec& spec, Result& result) {
  TrainRunner runner(opts, spec);
  std::vector<double> setups;
  for (int i = 0; i < kSetupReps; ++i) setups.push_back(runner.setup());
  result.inputs["round_samples"] = std::to_string(kRoundSamples);
  const Bundle bundle = load_bundle(spec, opts.cache_dir);

  if (!opts.trace) {
    const Rounds rs = runner.measure(opts.seconds, result);
    result.metric("setup_s", median(setups), "s");
    result.metric("throughput", rs.samples_per_s(), "1/s");
    result.metric("latency_p50_ms", percentile(rs.round_ms, 0.5), "ms");
    result.metric("latency_p90_ms", percentile(rs.round_ms, 0.9), "ms");
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
    score_bundle(spec, bundle, result);
    result.note("rounds", static_cast<double>(rs.round_ms.size()), "count");
    return;
  }
  const Rounds plain = runner.measure(opts.seconds / 2, result);
  TracedPhase traced(opts);
  const Rounds rs = runner.measure(opts.seconds / 2, result);
  result.metric("trace_overhead_ratio",
                rs.samples_per_s() / plain.samples_per_s(), "ratio");
  probe_layers(opts, bundle, runner.kernels(), StageTotals{}, result);
  traced.finish(result);
}

}  // namespace gnndse::bench_e2e
