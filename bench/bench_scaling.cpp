// Thread-scaling sweep of the parallel execution layer: batched model
// inference (predict_graphs over a DSE-sized batch) and a full model-driven
// DSE sweep, each at GNNDSE_THREADS in {1, 2, 4, 8}. Writes
// BENCH_parallel.json (host block, per-point throughput + speedup vs 1
// thread) to seed the perf trajectory; run on a multi-core machine for
// meaningful speedups.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "dse/dse.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace gnndse;

namespace {

constexpr int kThreadPoints[] = {1, 2, 4, 8};

struct ScalePoint {
  int threads = 0;
  double seconds = 0.0;
  double throughput = 0.0;  // units per second (configs or sweeps)
  double speedup = 1.0;     // vs the 1-thread point
};

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

void finish(std::vector<ScalePoint>& points) {
  for (auto& p : points)
    if (points.front().seconds > 0.0 && p.seconds > 0.0)
      p.speedup = points.front().seconds / p.seconds;
}

void write_json(const std::string& path, const std::vector<ScalePoint>& inf,
                double batch, const std::vector<ScalePoint>& dse,
                std::uint64_t dse_configs) {
  std::ofstream out(path);
  out << "{\n  \"host\": " << bench::host_json() << ",\n";
  auto emit = [&out](const char* name, const std::vector<ScalePoint>& pts,
                     const char* unit) {
    out << "  \"" << name << "\": [\n";
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const ScalePoint& p = pts[i];
      out << "    {\"threads\": " << p.threads << ", \"seconds\": " << p.seconds
          << ", \"" << unit << "\": " << p.throughput
          << ", \"speedup_vs_1t\": " << p.speedup << "}"
          << (i + 1 < pts.size() ? "," : "") << "\n";
    }
    out << "  ]";
  };
  out << "  \"inference_batch\": " << batch << ",\n";
  out << "  \"dse_configs_per_sweep\": " << dse_configs << ",\n";
  emit("inference", inf, "configs_per_sec");
  out << ",\n";
  emit("dse_sweep", dse, "configs_per_sec");
  out << "\n}\n";
}

}  // namespace

int main() {
  auto session = bench::make_report_session("bench_scaling");
  oracle::OracleStack oracle;
  auto kernels = kernels::make_training_kernels();
  db::Database database = bench::make_initial_database(oracle);
  model::SampleFactory factory;
  dse::PipelineOptions po = bench::scaled_pipeline_options();
  dse::TrainedModels models(database, kernels, factory, po,
                            bench::bundle_cache_prefix());
  model::Trainer* trainer = models.bundle().regression_main;

  // Batched inference: one predict_graphs call over a DSE-chunk-sized
  // multiple (the dse.cpp inner loop drives exactly this shape).
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

  std::vector<ScalePoint> inference;
  for (int threads : kThreadPoints) {
    util::set_parallel_threads(threads);
    trainer->predict_graphs(ptrs);  // warm-up (pool spin-up, caches)
    ScalePoint p;
    p.threads = threads;
    p.seconds = median_seconds(reps, [&] { trainer->predict_graphs(ptrs); });
    p.throughput = p.seconds > 0.0 ? batch / p.seconds : 0.0;
    inference.push_back(p);
    util::log_info("inference threads=", threads, " sec=", p.seconds);
  }
  finish(inference);

  // DSE sweep: featurize + predict + rank, exhaustively over atax's
  // 2,100-config pruned space so every thread count does identical,
  // bounded work.
  dse::ModelDse dse(models.bundle(), models.normalizer(), factory);
  dse::DseOptions dopts;
  dopts.max_exhaustive = 8'000;
  dopts.time_limit_seconds = 1e9;  // sweep-bound, not time-bound
  const kir::Kernel sweep_kernel = kernels::Registry::global().get("atax");
  std::vector<ScalePoint> dse_points;
  std::uint64_t dse_configs = 0;
  for (int threads : kThreadPoints) {
    util::set_parallel_threads(threads);
    ScalePoint p;
    p.threads = threads;
    p.seconds = median_seconds(std::max(1, reps / 2), [&] {
      util::Rng drng(23);
      dse_configs = dse.run(sweep_kernel, dopts, drng).num_explored;
    });
    p.throughput =
        p.seconds > 0.0 ? static_cast<double>(dse_configs) / p.seconds : 0.0;
    dse_points.push_back(p);
    util::log_info("dse threads=", threads, " sec=", p.seconds,
                   " configs=", dse_configs);
  }
  finish(dse_points);
  util::set_parallel_threads(0);  // back to the GNNDSE_THREADS default

  write_json("BENCH_parallel.json", inference, batch, dse_points, dse_configs);

  util::Table table("Thread scaling (GNNDSE_THREADS sweep)");
  table.header({"stage", "threads", "seconds", "units/sec", "speedup"});
  for (const auto& p : inference)
    table.row({"inference", std::to_string(p.threads),
               util::Table::fmt(p.seconds, 4), util::Table::fmt(p.throughput, 1),
               util::Table::fmt(p.speedup, 2)});
  for (const auto& p : dse_points)
    table.row({"dse_sweep", std::to_string(p.threads),
               util::Table::fmt(p.seconds, 4), util::Table::fmt(p.throughput, 1),
               util::Table::fmt(p.speedup, 2)});
  table.print(std::cout);
  std::cout << "wrote BENCH_parallel.json\n";
  return 0;
}
