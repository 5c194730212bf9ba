// Ablations of the design decisions DESIGN.md §5 calls out (beyond the
// M1-M7 ladder of Table 2, which bench_table2 reproduces):
//
//   A1  separate BRAM regression model (§5.2.1) vs one joint 5-objective
//       model — the paper splits because BRAM correlates weakly with the
//       other objectives;
//   A2  TransformerConv's gated residual vs a plain skip connection
//       (§4.3.1 credits the gate with preventing over-smoothing);
//   A3  the §4.4 innermost-first pragma ordering vs naive declaration
//       order in the large-space heuristic DSE (equal time budget on mvt).
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "dse/dse.hpp"
#include "model/trainer.hpp"
#include "util/table.hpp"

using namespace gnndse;

namespace {

model::RegressionMetrics train_and_eval(
    const model::ModelOptions& mo, const std::vector<int>& objectives,
    int epochs, const model::Dataset& ds,
    const std::vector<std::size_t>& train_idx,
    const std::vector<std::size_t>& test_idx) {
  util::Rng rng(19);
  model::ModelOptions opts = mo;
  opts.out_dim = static_cast<std::int64_t>(objectives.size());
  model::PredictiveModel m(opts, rng);
  model::TrainOptions to;
  to.objectives = objectives;
  to.epochs = epochs;
  model::Trainer tr(m, to);
  tr.fit(ds, train_idx);
  return model::eval_regression(tr, ds, test_idx);
}

}  // namespace

int main() {
  auto session = bench::make_report_session("bench_ablation");
  oracle::OracleStack oracle;
  auto kernels = kernels::make_training_kernels();
  db::Database database = bench::make_initial_database(oracle);
  model::Normalizer norm = model::Normalizer::fit(database.points());
  model::SampleFactory factory;
  model::Dataset ds = model::build_dataset(database, kernels, norm, factory);
  util::Rng split_rng(7);
  auto [train_idx, test_idx] =
      model::Dataset::split(ds.valid_indices(), 0.8, split_rng);

  const int epochs = util::by_scale(5, 8, 40);
  model::ModelOptions mo;
  mo.hidden = util::by_scale<std::int64_t>(32, 64, 64);

  // ---- A1: joint 5-objective vs split 4+1 ---------------------------------
  auto joint = train_and_eval(
      mo, {model::kLatency, model::kDsp, model::kLut, model::kFf, model::kBram},
      epochs, ds, train_idx, test_idx);
  auto main4 = train_and_eval(
      mo, {model::kLatency, model::kDsp, model::kLut, model::kFf}, epochs, ds,
      train_idx, test_idx);
  auto bram1 = train_and_eval(mo, {model::kBram}, std::max(2, epochs / 2), ds,
                              train_idx, test_idx);
  auto split = model::combine(main4, bram1);

  util::Table a1{"A1: separate BRAM model (paper, §5.2.1) vs joint "
                 "5-objective regression (test RMSE)"};
  a1.header({"Variant", "Latency", "DSP", "LUT", "FF", "BRAM", "All"});
  auto row = [&](const char* name, const model::RegressionMetrics& m) {
    a1.row({name, util::Table::fmt(m.rmse[model::kLatency]),
            util::Table::fmt(m.rmse[model::kDsp]),
            util::Table::fmt(m.rmse[model::kLut]),
            util::Table::fmt(m.rmse[model::kFf]),
            util::Table::fmt(m.rmse[model::kBram]),
            util::Table::fmt(m.rmse_sum)});
  };
  row("joint 5-objective", joint);
  row("split 4 + BRAM (paper)", split);
  a1.print(std::cout);
  std::fflush(stdout);

  // ---- A2: gated residual vs plain skip -----------------------------------
  model::ModelOptions plain = mo;
  plain.tconv_gated_residual = false;
  auto gated = train_and_eval(
      mo, {model::kLatency, model::kDsp, model::kLut, model::kFf}, epochs, ds,
      train_idx, test_idx);
  auto ungated = train_and_eval(
      plain, {model::kLatency, model::kDsp, model::kLut, model::kFf}, epochs,
      ds, train_idx, test_idx);
  util::Table a2{"A2: TransformerConv gated residual (paper, §4.3.1) vs "
                 "plain skip (test RMSE)"};
  a2.header({"Variant", "Latency", "All"});
  a2.row({"gated residual (paper)",
          util::Table::fmt(gated.rmse[model::kLatency]),
          util::Table::fmt(gated.rmse_sum)});
  a2.row({"plain skip", util::Table::fmt(ungated.rmse[model::kLatency]),
          util::Table::fmt(ungated.rmse_sum)});
  a2.print(std::cout);
  std::fflush(stdout);

  // ---- A3: §4.4 pragma ordering vs naive order on mvt ----------------------
  dse::PipelineOptions po = bench::scaled_pipeline_options();
  dse::TrainedModels models(database, kernels, factory, po,
                            bench::bundle_cache_prefix());
  dse::ModelDse model_dse(models.bundle(), models.normalizer(), factory);
  kir::Kernel mvt = kernels::Registry::global().get("mvt");
  dse::DseOptions dopts;
  dopts.max_exhaustive = 1000;  // force the heuristic path
  dopts.time_limit_seconds = util::by_scale(3.0, 15.0, 60.0);

  util::Table a3{"A3: heuristic DSE site ordering on mvt (equal time "
                 "budget; best design after HLS verification)"};
  a3.header({"Ordering", "#Explored", "Best cycles", "vs neutral"});
  const double neutral =
      oracle.evaluate(mvt, hlssim::DesignConfig::neutral(mvt)).cycles;
  for (bool priority : {true, false}) {
    dopts.use_priority_order = priority;
    util::Rng rng(23);
    dse::DseResult r = model_dse.run(mvt, dopts, rng);
    auto ev = model_dse.evaluate_top(mvt, r, oracle);
    const double best =
        ev.best ? ev.best->result.cycles
                : std::numeric_limits<double>::infinity();
    a3.row({priority ? "innermost-first (paper §4.4)" : "declaration order",
            util::Table::fmt_commas(static_cast<long long>(r.num_explored)),
            util::Table::fmt(best, 0),
            util::Table::fmt(neutral / best, 1) + "x"});
  }
  a3.print(std::cout);

  std::printf("\n[bench_ablation] completed in %.1fs (scale: %s)\n",
              session.seconds(), bench::scale_tag());
  return 0;
}
