// Per-layer side of a traced run: the layer probe, the telemetry session,
// and the per-layer table (layers.md).
//
// The probe times each layer's public entry point on the workload's own
// kernels, so the same metric exists in every workload: kernel parsing
// (frontend), config sampling and enumeration (dspace), featurization and
// batch assembly (model, gnn), per-head and concurrent prediction on a
// full 256-config chunk (model), the projection-shape matmul (tensor),
// single and coalesced serving (serve), oracle batches and database
// generation (oracle, db), and one training epoch per head (model).
#include <algorithm>
#include <fstream>
#include <future>
#include <map>

#include "db/explorer.hpp"
#include "dspace/design_space.hpp"
#include "e2e.hpp"
#include "frontend/kernel_json.hpp"
#include "kernels/kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "oracle/stack.hpp"
#include "serve/batcher.hpp"
#include "tensor/init.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace gnndse::bench_e2e {

namespace {

/// Calls `fn` until it ran `min_reps` times and `min_ms` passed; returns
/// milliseconds per call.
template <typename Fn>
double time_ms(Fn&& fn, int min_reps = 3, double min_ms = 30.0) {
  util::Timer t;
  int reps = 0;
  do {
    fn();
    ++reps;
  } while (reps < min_reps || t.millis() < min_ms);
  return t.millis() / reps;
}

/// Milliseconds of [lo, hi) covered by the union of `iv`.
double covered(std::vector<std::pair<double, double>> iv, double lo, double hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0, end = lo;
  for (auto [a, b] : iv) {
    a = std::max(a, end);
    b = std::min(b, hi);
    if (b > a) {
      total += b - a;
      end = b;
    }
  }
  return total;
}

}  // namespace

void probe_layers(const Options& opts, const Bundle& bundle,
                  const std::vector<kir::Kernel>& kernels, StageTotals stages,
                  Result& result) {
  obs::ScopedSpan probe_span("bench.probe");
  // Skeleton reuse counts the workload's own sweeps, not the probe's
  // repeated batch_for calls.
  auto skeletons = [] {
    return std::pair{obs::counter("gnn.batch_skeleton_hits").value(),
                     obs::counter("gnn.batch_skeleton_misses").value()};
  };
  auto [hits, misses] = skeletons();
  serve::ModelInstance inst;
  inst.ensure(bundle.snapshot);
  model::SampleFactory factory;
  util::Rng rng(opts.seed ^ 0x9e3779b97f4a7c15ull);
  const auto n = static_cast<double>(kernels.size());

  std::vector<std::string> texts;
  for (const auto& k : kernels) texts.push_back(frontend::serialize_kernel(k));
  result.metric("frontend.parse_kernel_us", time_ms([&] {
                  for (const auto& t : texts) frontend::parse_kernel(t);
                }) * 1e3 / n,
                "us");

  std::vector<std::unique_ptr<dspace::DesignSpace>> spaces;
  for (const auto& k : kernels)
    spaces.push_back(std::make_unique<dspace::DesignSpace>(k));
  result.metric("dspace.sample_us", time_ms([&] {
                  for (const auto& s : spaces)
                    for (int i = 0; i < 20; ++i) s->sample(rng);
                }) * 1e3 / (20 * n),
                "us");
  std::int64_t enumerated = 0;
  util::Timer et;
  do {
    for (const auto& s : spaces)
      s->for_each([&](hlssim::DesignConfig&&) { return ++enumerated > 0; },
                  1024);
  } while (et.millis() < 30.0);
  result.metric("dspace.enumerate_us_per_config",
                et.millis() * 1e3 / static_cast<double>(enumerated), "us");

  std::vector<hlssim::DesignConfig> one;
  for (const auto& s : spaces) one.push_back(s->sample(rng));
  for (std::size_t i = 0; i < kernels.size(); ++i)
    factory.featurize(kernels[i], one[i]);  // builds the templates
  result.metric("model.featurize_us", time_ms([&] {
                  for (std::size_t i = 0; i < kernels.size(); ++i)
                    factory.featurize(kernels[i], one[i]);
                }) * 1e3 / n,
                "us");
  std::vector<gnn::GraphData> graphs;
  for (std::size_t i = 0; i < 16; ++i)
    graphs.push_back(factory.featurize(kernels[i % kernels.size()],
                                       one[i % kernels.size()]));
  result.metric("gnn.make_batch_ms", time_ms([&] {
                  gnn::make_batch(std::span<const gnn::GraphData>(graphs));
                }),
                "ms");
  result.metric("serve.predict_single_ms", time_ms([&] {
                  for (std::size_t i = 0; i < kernels.size(); ++i)
                    serve::predict_single(inst, factory, kernels[i], one[i]);
                }) / n,
                "ms");

  // One full chunk of the first kernel, as the sweep engine scores it.
  const kir::Kernel& ck = kernels.front();
  std::vector<hlssim::DesignConfig> chunk;
  for (int i = 0; i < 256; ++i) chunk.push_back(spaces.front()->sample(rng));
  factory.batch_for(ck, chunk);
  result.metric("model.batch_for_ms",
                time_ms([&] { factory.batch_for(ck, chunk); }), "ms");
  const gnn::GraphBatch& batch = factory.batch_for(ck, chunk);
  dse::ModelBundle heads = inst.bundle();
  const std::pair<const char*, model::Trainer*> each[] = {
      {"main", heads.regression_main},
      {"bram", heads.regression_bram},
      {"cls", heads.classifier}};
  for (const auto& [name, head] : each)
    result.metric(std::string("model.predict_ms_per_config.") + name,
                  time_ms([&] { head->predict_batch(batch); }) / 256.0, "ms");
  model::Trainer* const list[] = {heads.regression_main, heads.regression_bram,
                                  heads.classifier};
  std::array<const tensor::Tensor*, 3> outs{};
  result.metric("model.predict_concurrent_ms", time_ms([&] {
                  model::predict_batch_concurrent(list, batch, outs);
                }),
                "ms");

  // The conv projection matmul at this chunk's shape: [nodes, H] x [H, H].
  const std::int64_t rows = batch.num_nodes, h = bundle.snapshot->base.hidden;
  const tensor::Tensor a = tensor::uniform_init({rows, h}, 1.0f, rng);
  const tensor::Tensor w = tensor::uniform_init({h, h}, 1.0f, rng);
  tensor::Tensor out({rows, h});
  const double mm_ms =
      time_ms([&] { tensor::matmul_bias(a, w, nullptr, out); }, 5, 30.0);
  const double flops = 2.0 * static_cast<double>(rows * h * h);
  result.metric("tensor.matmul_gflops", flops / (mm_ms * 1e6), "GFLOP/s");
  result.note("tensor.matmul_mb", 4.0 * static_cast<double>(rows * h + h * h + rows * h) / 1e6,
              "MB");
  result.inputs["matmul_shape"] =
      std::to_string(rows) + "x" + std::to_string(h) + "x" + std::to_string(h);

  if (!result.metrics.count("serve.batch_size_mean")) {
    // Coalescing in process: 64 predicts submitted at once.
    serve::ModelSlot slot;
    slot.install(std::make_shared<serve::ModelSnapshot>(*bundle.snapshot));
    serve::Batcher batcher(slot, factory, serve::BatcherOptions{});
    std::vector<std::future<serve::PredictResult>> futs;
    for (std::size_t i = 0; i < 64; ++i)
      futs.push_back(batcher.submit(kernels[i % kernels.size()],
                                    one[i % kernels.size()]));
    double sum = 0.0;
    for (auto& f : futs) sum += f.get().batch_size;
    result.metric("serve.batch_size_mean", sum / 64.0, "count");
  }

  // Oracle batches, database generation, dataset assembly, one epoch; on
  // at most 8 kernels, so the epoch stays short.
  const std::vector<kir::Kernel> few(
      kernels.begin(), kernels.begin() + std::min<std::ptrdiff_t>(
                                             8, static_cast<std::ptrdiff_t>(kernels.size())));
  oracle::OracleStack oracle{oracle::OracleOptions{}};
  db::Database pdb;
  util::Timer ot;
  for (std::size_t i = 0; i < few.size(); ++i) {
    std::vector<hlssim::DesignConfig> cfgs;
    for (int j = 0; j < 8; ++j) cfgs.push_back(spaces[i]->sample(rng));
    const auto res = oracle.evaluate_batch(kernels[i], cfgs);
    for (std::size_t j = 0; j < cfgs.size(); ++j)
      pdb.add({kernels[i].name, cfgs[j], res[j]});
  }
  result.metric("oracle.evaluate_batch_ms",
                ot.millis() / static_cast<double>(few.size()), "ms");
  {
    oracle::OracleStack fresh{oracle::OracleOptions{}};
    util::Timer t;
    util::Rng dbrng(opts.seed);
    db::generate_initial_database(kernels::make_training_kernels(), fresh,
                                  dbrng);
    result.metric("db.generate_initial_database_ms", t.millis(), "ms");
  }
  const model::Normalizer norm = model::Normalizer::fit(pdb.points());
  util::Timer bt;
  const model::Dataset ds = model::build_dataset(pdb, few, norm, factory);
  result.metric("model.build_dataset_us_per_sample",
                bt.millis() * 1e3 / static_cast<double>(ds.samples.size()), "us");
  const Heads fresh = make_heads(bundle.snapshot->base, 1, 1, 1, opts.seed);
  const std::pair<const char*, model::Trainer*> fit_heads[] = {
      {"main", fresh.main_t.get()},
      {"bram", fresh.bram_t.get()},
      {"cls", fresh.cls_t.get()}};
  for (const auto& [name, trainer] : fit_heads) {
    util::Timer ft;
    trainer->fit(ds, ds.all_indices());
    result.metric(std::string("model.fit_ms_per_sample.") + name,
                  ft.millis() / static_cast<double>(ds.samples.size()), "ms");
  }

  if (stages.jobs == 0) {
    // Workloads without DSE jobs of their own run one short sweep, on the
    // kernel with the largest space so it spans several chunks.
    std::size_t big = 0;
    for (std::size_t i = 1; i < spaces.size(); ++i)
      if (spaces[i]->pruned_size() > spaces[big]->pruned_size()) big = i;
    model::SampleFactory f;
    dse::ModelDse dse(inst.bundle(), inst.normalizer(), f);
    dse::DseOptions o;
    o.time_limit_seconds = 1e9;
    o.max_configs = 600;
    util::Rng drng(opts.seed);
    const auto [h0, m0] = skeletons();
    const dse::DseResult r = dse.run(kernels[big], o, drng);
    const auto [h1, m1] = skeletons();
    hits += h1 - h0;
    misses += m1 - m0;
    util::Timer et;
    dse.evaluate_top(kernels[big], r, oracle, o.util_threshold);
    stages.add(r, et.millis());
  }
  stages.emit(result);
  result.metric("model.skeleton_hit_ratio",
                hits + misses > 0 ? static_cast<double>(hits) /
                                        static_cast<double>(hits + misses)
                                  : 0.0,
                "ratio");
}

TracedPhase::TracedPhase(const Options& opts)
    : table_path_(opts.out_dir + "/layers.md") {
  obs::reset_all();
  session_ = std::make_unique<obs::ReportSession>(
      "bench_e2e." + opts.workload, opts.out_dir + "/report.json",
      opts.out_dir + "/trace.json");
}

TracedPhase::~TracedPhase() {
  session_.reset();  // writes report.json and trace.json
  obs::set_enabled(false);
}

void TracedPhase::finish(Result& result) const {
  // Pool workers' busy share over the traced phase (workloads whose work
  // runs in another process set this from that process's report).
  if (!result.metrics.count("parallel.worker_utilization")) {
    const double workers = std::max(1, util::parallel_threads() - 1);
    result.metric("parallel.worker_utilization",
                  obs::histogram("parallel.task_ms").sum() /
                      (session_->seconds() * 1e3 * workers),
                  "ratio");
  }

  // Self time per span name: duration minus the part of it that child
  // spans cover.
  const std::vector<obs::SpanRecord> spans = obs::trace_snapshot();
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const auto& s : spans)
    if (s.parent >= 0 && !s.open)
      kids[static_cast<std::size_t>(s.parent)].push_back(
          {s.start_ms, s.start_ms + s.duration_ms});
  struct Row {
    std::int64_t count = 0;
    double total = 0.0, self = 0.0;
  };
  std::map<std::string, Row> rows;
  for (const auto& s : spans) {
    if (s.open) continue;
    Row& r = rows[s.name];
    ++r.count;
    r.total += s.duration_ms;
    r.self += s.duration_ms -
              covered(kids[static_cast<std::size_t>(s.id)], s.start_ms,
                      s.start_ms + s.duration_ms);
  }
  const double wall = session_->seconds() * 1e3;
  std::ofstream out(table_path_);
  out << "# Per-layer table\n\nTraced phase: " << wall
      << " ms wall. Self time is a span's duration minus the part its child "
         "spans cover; spans on pool threads overlap the main thread, so "
         "shares can sum past 1.\n\n"
      << "| span | count | total ms | self ms | self share |\n"
      << "|---|---|---|---|---|\n";
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self > b.second.self;
  });
  for (const auto& [name, r] : sorted)
    out << "| " << name << " | " << r.count << " | " << r.total << " | "
        << r.self << " | " << r.self / wall << " |\n";
  out << "\n| metric | value | unit |\n|---|---|---|\n";
  for (const auto& [name, v] : result.metrics)
    out << "| " << name << " | " << v.value << " | " << v.unit << " |\n";
  for (const auto& [name, v] : result.detail)
    out << "| " << name << " (detail) | " << v.value << " | " << v.unit
        << " |\n";
}

}  // namespace gnndse::bench_e2e
