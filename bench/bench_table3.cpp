// Table 3: GNN-DSE performance on unseen kernels (bicg, doitgen, gesummv,
// 2mm) — kernels absent from the training database.
//
// For each kernel: #pragmas, #design configs, the DSE + HLS runtime of
// GNN-DSE (model-driven search wall-clock plus the simulated synthesis time
// of evaluating the top-10 designs in parallel), #explored configurations,
// and the runtime speedup over the AutoDSE baseline (bottleneck explorer
// against the HLS substrate, capped at a simulated 21 h as in §5.4).
// The quality check of §5.4 — GNN-DSE reaching AutoDSE's design quality —
// is reported as the cycle ratio of the two best designs.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "dse/dse.hpp"
#include "util/table.hpp"

using namespace gnndse;

int main() {
  auto session = bench::make_report_session("bench_table3");
  oracle::OracleStack oracle;
  auto train_kernels = kernels::make_training_kernels();
  auto unseen = kernels::make_unseen_kernels();

  db::Database database = bench::make_initial_database(oracle);
  model::SampleFactory factory;
  dse::PipelineOptions po = bench::scaled_pipeline_options();
  dse::TrainedModels models(database, train_kernels, factory, po,
                            bench::bundle_cache_prefix());
  dse::ModelDse model_dse(models.bundle(), models.normalizer(), factory);

  dse::DseOptions dopts;
  // §5.4: exhaustive for the small spaces (< 2 minutes), one hour cap for
  // 2mm; scaled down for this machine.
  dopts.time_limit_seconds = util::by_scale(5.0, 60.0, 600.0);
  dopts.max_exhaustive = util::by_scale<std::uint64_t>(6'000, 8'000, 200'000);
  util::Rng rng(13);

  const double autodse_budget = 21.0 * 3600.0;  // simulated seconds

  util::Table t{"Table 3: GNN-DSE on unseen kernels vs the AutoDSE baseline"};
  t.header({"Kernel", "#pragma", "#configs", "DSE+HLS runtime (m)",
            "#Explored", "Runtime speedup", "AutoDSE (m, sim)",
            "AutoDSE evals", "cycles ratio (ours/AutoDSE)"});
  double speedup_sum = 0.0;
  for (const auto& k : unseen) {
    dspace::DesignSpace space(k);
    dse::DseResult r = model_dse.run(k, dopts, rng);
    auto ev = model_dse.evaluate_top(k, r, oracle, dopts.util_threshold);
    const double gnn_dse_seconds = r.search_seconds + ev.hls_seconds;

    dse::AutoDseOutcome base =
        dse::run_autodse_baseline(k, oracle, autodse_budget);
    const double speedup = base.simulated_seconds / gnn_dse_seconds;
    speedup_sum += speedup;
    const double ours =
        ev.best ? ev.best->result.cycles
                : std::numeric_limits<double>::infinity();
    const double ratio = ours / base.best_cycles;

    t.row({k.name, util::Table::fmt_int(k.num_pragma_sites()),
           util::Table::fmt_commas(static_cast<long long>(space.pruned_size())),
           util::Table::fmt(gnn_dse_seconds / 60.0, 1),
           util::Table::fmt_commas(static_cast<long long>(r.num_explored)),
           util::Table::fmt(speedup, 0) + "x",
           util::Table::fmt(base.simulated_seconds / 60.0, 0),
           util::Table::fmt_int(base.evals), util::Table::fmt(ratio, 3)});
    std::fflush(stdout);
  }
  t.print(std::cout);
  t.write_csv("table3.csv");
  std::printf("\naverage runtime speedup: %.0fx (paper: avg 48x, max 79x)\n",
              speedup_sum / static_cast<double>(unseen.size()));
  std::printf("[bench_table3] completed in %.1fs (scale: %s)\n",
              session.seconds(), bench::scale_tag());
  return 0;
}
