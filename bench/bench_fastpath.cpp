// Tape vs tape-free inference: one chunk-shaped batched predict of the
// main regression head through the autodiff tape forward
// (Trainer::predict_graphs_tape) and through the tape-free fast path
// (Trainer::predict_graphs), same inputs. Then, per kernel (mvt, doitgen),
// the same 256-config chunk through the full forward (make_batch, every
// row) and the pragma-delta forward (SampleFactory::batch_for's row plan),
// with the share of conv rows the plan computes. Writes
// BENCH_fastpath.json with the host block (bench_common.hpp).
#include <algorithm>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dse/pipeline.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace gnndse;

namespace {

/// Medians a few repetitions to keep the JSON stable on noisy machines.
template <typename Fn>
double median_seconds(int reps, Fn&& fn) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    util::Timer t;
    fn();
    times.push_back(t.seconds());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

}  // namespace

int main() {
  auto session = bench::make_report_session("bench_fastpath");
  oracle::OracleStack oracle;
  auto kernels = kernels::make_training_kernels();
  db::Database database = bench::make_initial_database(oracle);
  model::SampleFactory factory;
  dse::PipelineOptions po = bench::scaled_pipeline_options();
  dse::TrainedModels models(database, kernels, factory, po,
                            bench::bundle_cache_prefix());
  model::Trainer* trainer = models.bundle().regression_main;

  // One chunk-shaped batch of featurized mvt configs.
  const kir::Kernel mvt = kernels::Registry::global().get("mvt");
  const int batch = util::by_scale(256, 1024, 4096);
  const int reps = util::by_scale(3, 5, 7);
  util::Rng rng(17);
  const auto& space = factory.space(mvt);
  std::vector<gnn::GraphData> graphs;
  graphs.reserve(static_cast<std::size_t>(batch));
  for (int i = 0; i < batch; ++i)
    graphs.push_back(factory.featurize(mvt, space.sample(rng)));
  std::vector<const gnn::GraphData*> ptrs;
  for (const auto& g : graphs) ptrs.push_back(&g);

  trainer->predict_graphs(ptrs);  // warm-up (pool, template, workspace)
  const double fast_seconds =
      median_seconds(reps, [&] { trainer->predict_graphs(ptrs); });
  trainer->predict_graphs_tape(ptrs);
  const double tape_seconds =
      median_seconds(reps, [&] { trainer->predict_graphs_tape(ptrs); });
  const double tape_per_sec = batch / tape_seconds;
  const double fast_per_sec = batch / fast_seconds;
  const double speedup = tape_seconds / fast_seconds;

  // Full vs pragma-delta forward on one 256-config chunk per kernel.
  struct DeltaRow {
    std::string kernel;
    double full_per_sec, delta_per_sec, row_share;
  };
  std::vector<DeltaRow> delta_rows;
  const std::size_t chunk = 256;
  const auto layers = static_cast<std::size_t>(po.gnn_layers);
  for (const char* name : {"mvt", "doitgen"}) {
    const kir::Kernel k = kernels::Registry::global().get(name);
    std::vector<hlssim::DesignConfig> configs;
    std::vector<gnn::GraphData> chunk_graphs;
    for (std::size_t i = 0; i < chunk; ++i) {
      configs.push_back(factory.space(k).sample(rng));
      chunk_graphs.push_back(factory.featurize(k, configs.back()));
    }
    const gnn::GraphBatch full = gnn::make_batch(
        std::span<const gnn::GraphData>(chunk_graphs));
    const gnn::GraphBatch& delta = factory.batch_for(k, configs);
    trainer->predict_batch(full);
    const double full_s =
        median_seconds(reps, [&] { trainer->predict_batch(full); });
    trainer->predict_batch(delta);
    const double delta_s =
        median_seconds(reps, [&] { trainer->predict_batch(delta); });
    std::int64_t rows = 0;
    for (std::size_t l = 0; l < layers; ++l)
      rows += delta.plan->layer(l).num_rows;
    delta_rows.push_back(
        {name, chunk / full_s, chunk / delta_s,
         static_cast<double>(rows) /
             static_cast<double>(delta.num_nodes * static_cast<std::int64_t>(layers))});
  }

  std::ofstream out("BENCH_fastpath.json");
  out << "{\n"
      << "  \"host\": " << bench::host_json() << ",\n"
      << "  \"inference\": {\n"
      << "    \"batch\": " << batch << ",\n"
      << "    \"tape_seconds\": " << tape_seconds << ",\n"
      << "    \"fast_seconds\": " << fast_seconds << ",\n"
      << "    \"tape_configs_per_sec\": " << tape_per_sec << ",\n"
      << "    \"fast_configs_per_sec\": " << fast_per_sec << ",\n"
      << "    \"speedup\": " << speedup << "\n"
      << "  },\n"
      << "  \"delta_forward\": [\n";
  for (std::size_t i = 0; i < delta_rows.size(); ++i) {
    const DeltaRow& r = delta_rows[i];
    out << "    {\"kernel\": \"" << r.kernel << "\", \"batch\": " << chunk
        << ", \"full_configs_per_sec\": " << r.full_per_sec
        << ", \"delta_configs_per_sec\": " << r.delta_per_sec
        << ", \"speedup\": " << r.delta_per_sec / r.full_per_sec
        << ", \"row_share\": " << r.row_share << "}"
        << (i + 1 < delta_rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n"
      << "}\n";

  util::Table table("Tape vs fast-path inference");
  table.header({"tape s", "fast s", "tape cfg/s", "fast cfg/s", "speedup"});
  table.row({util::Table::fmt(tape_seconds, 4),
             util::Table::fmt(fast_seconds, 4),
             util::Table::fmt(tape_per_sec, 1),
             util::Table::fmt(fast_per_sec, 1),
             util::Table::fmt(speedup, 2)});
  table.print(std::cout);
  util::Table dtable("Full vs pragma-delta forward (256-config chunk)");
  dtable.header({"kernel", "full cfg/s", "delta cfg/s", "speedup", "row share"});
  for (const DeltaRow& r : delta_rows)
    dtable.row({r.kernel, util::Table::fmt(r.full_per_sec, 1),
                util::Table::fmt(r.delta_per_sec, 1),
                util::Table::fmt(r.delta_per_sec / r.full_per_sec, 2),
                util::Table::fmt(r.row_share, 3)});
  dtable.print(std::cout);
  std::cout << "wrote BENCH_fastpath.json\n";
  return 0;
}
