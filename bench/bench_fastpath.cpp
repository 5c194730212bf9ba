// Tape vs tape-free inference: one chunk-shaped batched predict of the
// main regression head through the autodiff tape forward
// (Trainer::predict_graphs_tape) and through the tape-free fast path
// (Trainer::predict_graphs), same inputs. Then, per kernel (mvt, doitgen)
// and chunk shape (uniform draws, for_each order, a beam expansion), the
// same chunk through the full forward (make_batch, every row) and the
// row-plan forward (SampleFactory::batch_for's cone-keyed plan, its
// per-chunk build included), with the share of conv rows the plan
// computes. Writes
// BENCH_fastpath.json with the host block (bench_common.hpp).
#include <algorithm>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <utility>
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

  // Full vs row-plan forward per kernel on three chunk shapes: uniform
  // draws, the first 256 configs in for_each order (an exhaustive sweep's
  // chunk) and a beam chunk (32 base designs times one site's options, as
  // the §4.4 heuristic expands them; at most 256 configs). Each timed
  // row-plan forward first marks the plan stale, so it pays the per-chunk
  // row build (RowPlan::prepare) like a sweep does.
  struct DeltaRow {
    std::string kernel, chunk;
    std::size_t batch;
    double full_per_sec, delta_per_sec, row_share;
  };
  std::vector<DeltaRow> delta_rows;
  const std::size_t chunk = 256;
  const auto layers = static_cast<std::size_t>(po.gnn_layers);
  for (const char* name : {"mvt", "doitgen"}) {
    const kir::Kernel k = kernels::Registry::global().get(name);
    const dspace::DesignSpace& ks = factory.space(k);
    std::vector<std::pair<std::string, std::vector<hlssim::DesignConfig>>>
        shapes(3);
    shapes[0].first = "random";
    for (std::size_t i = 0; i < chunk; ++i)
      shapes[0].second.push_back(ks.sample(rng));
    shapes[1].first = "for_each";
    ks.for_each(
        [&](hlssim::DesignConfig&& c) {
          shapes[1].second.push_back(std::move(c));
          return true;
        },
        chunk);
    shapes[2].first = "beam";
    const dspace::PragmaSite& site = ks.sites()[ks.sites().size() / 2];
    for (int b = 0; b < 32; ++b) {
      const hlssim::DesignConfig base = ks.sample(rng);
      for (std::int64_t opt : site.options) {
        hlssim::DesignConfig c = base;
        dspace::apply_site(site, opt, c);
        if (!ks.is_pruned(c) && shapes[2].second.size() < chunk)
          shapes[2].second.push_back(std::move(c));
      }
    }
    for (const auto& [shape, configs] : shapes) {
      std::vector<gnn::GraphData> chunk_graphs;
      for (const auto& c : configs)
        chunk_graphs.push_back(factory.featurize(k, c));
      const gnn::GraphBatch full = gnn::make_batch(
          std::span<const gnn::GraphData>(chunk_graphs));
      const gnn::GraphBatch& delta = factory.batch_for(k, configs);
      trainer->predict_batch(full);
      const double full_s =
          median_seconds(reps, [&] { trainer->predict_batch(full); });
      trainer->predict_batch(delta);
      const double delta_s = median_seconds(reps, [&] {
        delta.plan->refresh();
        trainer->predict_batch(delta);
      });
      std::int64_t rows = 0;
      for (std::size_t l = 0; l < layers; ++l)
        rows += delta.plan->layer(l).num_rows;
      const auto n = static_cast<double>(configs.size());
      delta_rows.push_back(
          {name, shape, configs.size(), n / full_s, n / delta_s,
           static_cast<double>(rows) /
               static_cast<double>(delta.num_nodes *
                                   static_cast<std::int64_t>(layers))});
    }
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
    out << "    {\"kernel\": \"" << r.kernel << "\", \"chunk\": \""
        << r.chunk << "\", \"batch\": " << r.batch
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
  util::Table dtable("Full vs row-plan forward (one chunk)");
  dtable.header({"kernel", "chunk", "configs", "full cfg/s", "delta cfg/s",
                 "speedup", "row share"});
  for (const DeltaRow& r : delta_rows)
    dtable.row({r.kernel, r.chunk, std::to_string(r.batch),
                util::Table::fmt(r.full_per_sec, 1),
                util::Table::fmt(r.delta_per_sec, 1),
                util::Table::fmt(r.delta_per_sec / r.full_per_sec, 2),
                util::Table::fmt(r.row_share, 3)});
  dtable.print(std::cout);
  std::cout << "wrote BENCH_fastpath.json\n";
  return 0;
}
