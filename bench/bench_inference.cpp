// §5.3 microbenchmarks (google-benchmark): the claims behind GNN-DSE's
// speed — model inference in milliseconds ("22 inferences per second" on
// the paper's machine) versus minutes-to-hours per HLS evaluation, plus the
// cost of graph featurization and batching.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "dse/dse.hpp"

using namespace gnndse;

namespace {

struct Fixture {
  // Deliberately a bare SimEvaluator: BM_HlsEvaluation times the substrate
  // itself, not the caching layer the end-to-end benches stack on top.
  oracle::SimEvaluator hls;
  std::vector<kir::Kernel> kernels = kernels::make_training_kernels();
  db::Database database;
  model::SampleFactory factory;
  std::unique_ptr<dse::TrainedModels> models;
  kir::Kernel mvt = kernels::Registry::global().get("mvt");
  hlssim::DesignConfig cfg = hlssim::DesignConfig::neutral(mvt);

  Fixture() {
    database = bench::make_initial_database(hls);
    dse::PipelineOptions po = bench::scaled_pipeline_options();
    models = std::make_unique<dse::TrainedModels>(
        database, kernels, factory, po, bench::bundle_cache_prefix());
  }

  static Fixture& get() {
    static Fixture f;
    return f;
  }
};

void BM_HlsEvaluation(benchmark::State& state) {
  Fixture& f = Fixture::get();
  double sim_seconds = 0.0;
  for (auto _ : state) {
    auto r = f.hls.evaluate(f.mvt, f.cfg);
    benchmark::DoNotOptimize(r.cycles);
    sim_seconds += r.synth_seconds;
  }
  state.counters["simulated_synthesis_s_per_eval"] =
      benchmark::Counter(sim_seconds / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_HlsEvaluation);

void BM_GraphFeaturization(benchmark::State& state) {
  Fixture& f = Fixture::get();
  for (auto _ : state) {
    auto g = f.factory.featurize(f.mvt, f.cfg);
    benchmark::DoNotOptimize(g.x.data());
  }
}
BENCHMARK(BM_GraphFeaturization);

void BM_ModelInferenceSingle(benchmark::State& state) {
  Fixture& f = Fixture::get();
  auto g = f.factory.featurize(f.mvt, f.cfg);
  auto trainer = f.models->bundle().regression_main;
  for (auto _ : state) {
    auto pred = trainer->predict_graphs({&g});
    benchmark::DoNotOptimize(pred.data());
  }
  state.counters["inferences_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ModelInferenceSingle);

void BM_ModelInferenceBatched(benchmark::State& state) {
  Fixture& f = Fixture::get();
  const int batch = static_cast<int>(state.range(0));
  std::vector<gnn::GraphData> graphs;
  dspace::DesignSpace space(f.mvt);
  util::Rng rng(3);
  for (int i = 0; i < batch; ++i)
    graphs.push_back(f.factory.featurize(f.mvt, space.sample(rng)));
  std::vector<const gnn::GraphData*> ptrs;
  for (auto& g : graphs) ptrs.push_back(&g);
  auto trainer = f.models->bundle().regression_main;
  for (auto _ : state) {
    auto pred = trainer->predict_graphs(ptrs);
    benchmark::DoNotOptimize(pred.data());
  }
  state.counters["inferences_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * batch,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ModelInferenceBatched)->Arg(16)->Arg(64)->Arg(256);

void BM_FullPrediction(benchmark::State& state) {
  // The DSE inner loop: featurize + all three models on one design.
  Fixture& f = Fixture::get();
  auto bundle = f.models->bundle();
  for (auto _ : state) {
    auto g = f.factory.featurize(f.mvt, f.cfg);
    auto m = bundle.regression_main->predict_graphs({&g});
    auto b = bundle.regression_bram->predict_graphs({&g});
    auto c = bundle.classifier->predict_graphs({&g});
    benchmark::DoNotOptimize(m.data());
    benchmark::DoNotOptimize(b.data());
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_FullPrediction);

}  // namespace

// Expanded BENCHMARK_MAIN() so the run is wrapped in the shared telemetry
// session: GNNDSE_REPORT=<path> emits a JSON run report like every other
// bench binary (bench_common.hpp).
int main(int argc, char** argv) {
  auto session = bench::make_report_session("bench_inference");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
