// Tape vs tape-free inference: one chunk-shaped batched predict of the
// main regression head through the autodiff tape forward
// (Trainer::predict_graphs_tape) and through the tape-free fast path
// (Trainer::predict_graphs), same inputs. Writes BENCH_fastpath.json with
// the host's core count, SIMD level and run scale.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "dse/pipeline.hpp"
#include "util/cpu.hpp"
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
  const kir::Kernel mvt = kernels::make_kernel("mvt");
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

  std::ofstream out("BENCH_fastpath.json");
  out << "{\n"
      << "  \"host\": {\"cores\": " << std::thread::hardware_concurrency()
      << ", \"simd\": \""
      << util::simd_level_name(util::active_simd_level())
      << "\", \"scale\": \"" << bench::scale_tag() << "\"},\n"
      << "  \"inference\": {\n"
      << "    \"batch\": " << batch << ",\n"
      << "    \"tape_seconds\": " << tape_seconds << ",\n"
      << "    \"fast_seconds\": " << fast_seconds << ",\n"
      << "    \"tape_configs_per_sec\": " << tape_per_sec << ",\n"
      << "    \"fast_configs_per_sec\": " << fast_per_sec << ",\n"
      << "    \"speedup\": " << speedup << "\n"
      << "  }\n"
      << "}\n";

  util::Table table("Tape vs fast-path inference");
  table.header({"tape s", "fast s", "tape cfg/s", "fast cfg/s", "speedup"});
  table.row({util::Table::fmt(tape_seconds, 4),
             util::Table::fmt(fast_seconds, 4),
             util::Table::fmt(tape_per_sec, 1),
             util::Table::fmt(fast_per_sec, 1),
             util::Table::fmt(speedup, 2)});
  table.print(std::cout);
  std::cout << "wrote BENCH_fastpath.json\n";
  return 0;
}
