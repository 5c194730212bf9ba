// Tape-free inference fast path: bit-identity against the autodiff tape
// across model variants, heads, and thread counts; the cone-keyed
// row-plan forward against the whole-batch forward; template/skeleton cache
// behaviour; and workspace reuse (no steady-state allocation).
#include "gnn/infer.hpp"
#include "model/dataset.hpp"
#include "model/predictive_model.hpp"
#include "model/trainer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dspace/design_space.hpp"
#include "gnn/batch.hpp"
#include "kernels/generator.hpp"
#include "kernels/registry.hpp"
#include "obs/metrics.hpp"
#include "oracle/evaluator.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace gnndse::model {
namespace {

ModelOptions tiny_options(ModelKind kind, std::int64_t out_dim) {
  ModelOptions mo;
  mo.kind = kind;
  mo.gnn_layers = 3;
  mo.hidden = 16;
  mo.out_dim = out_dim;
  return mo;
}

std::vector<hlssim::DesignConfig> sample_configs(const kir::Kernel& kernel,
                                                 std::size_t n,
                                                 std::uint64_t seed) {
  dspace::DesignSpace space(kernel);
  util::Rng rng(seed);
  std::vector<hlssim::DesignConfig> configs;
  configs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) configs.push_back(space.sample(rng));
  return configs;
}

std::vector<gnn::GraphData> featurize_all(
    SampleFactory& factory, const kir::Kernel& kernel,
    const std::vector<hlssim::DesignConfig>& configs) {
  std::vector<gnn::GraphData> graphs;
  graphs.reserve(configs.size());
  for (const auto& c : configs) graphs.push_back(factory.featurize(kernel, c));
  return graphs;
}

std::vector<const gnn::GraphData*> pointers(
    const std::vector<gnn::GraphData>& graphs) {
  std::vector<const gnn::GraphData*> ptrs;
  ptrs.reserve(graphs.size());
  for (const auto& g : graphs) ptrs.push_back(&g);
  return ptrs;
}

/// Exact float comparison: the fast path's contract is bit-identity with
/// the tape, not tolerance-level agreement.
void expect_bitwise(const tensor::Tensor& a, const tensor::Tensor& b,
                    const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (std::int64_t i = 0; i < a.numel(); ++i)
    ASSERT_EQ(a.data()[i], b.data()[i]) << what << " element " << i;
}

/// Restores the default pool size even when an assertion fails mid-test.
struct ThreadGuard {
  ~ThreadGuard() { util::set_parallel_threads(0); }
};

TEST(FastPath, BitIdenticalToTapeAcrossKindsAndThreads) {
  ThreadGuard guard;
  kir::Kernel kernel = kernels::Registry::global().get("spmv-crs");
  SampleFactory factory;
  const auto configs = sample_configs(kernel, 12, 7);
  const auto graphs = featurize_all(factory, kernel, configs);
  const auto ptrs = pointers(graphs);

  const ModelKind kinds[] = {
      ModelKind::kM1MlpPragma, ModelKind::kM2MlpContext, ModelKind::kM3Gcn,
      ModelKind::kM4Gat,       ModelKind::kM5Tconv,      ModelKind::kM6TconvJkn,
      ModelKind::kM7Full};
  for (ModelKind kind : kinds) {
    util::Rng rng(11);
    PredictiveModel model(tiny_options(kind, 4), rng);
    Trainer trainer(model, TrainOptions{});
    for (int threads : {1, 2, 4}) {
      util::set_parallel_threads(threads);
      tensor::Tensor tape = trainer.predict_graphs_tape(ptrs);
      tensor::Tensor fast = trainer.predict_graphs(ptrs);
      expect_bitwise(tape, fast, to_string(kind));
    }
  }
}

TEST(FastPath, UngatedResidualAndSingleObjectiveHeadsBitIdentical) {
  ThreadGuard guard;
  kir::Kernel kernel = kernels::Registry::global().get("gemm-ncubed");
  SampleFactory factory;
  const auto configs = sample_configs(kernel, 10, 3);
  const auto graphs = featurize_all(factory, kernel, configs);
  const auto ptrs = pointers(graphs);

  // BRAM regressor (out_dim 1) and the ablation without the beta gate.
  for (bool gated : {true, false}) {
    ModelOptions mo = tiny_options(ModelKind::kM7Full, 1);
    mo.tconv_gated_residual = gated;
    util::Rng rng(5);
    PredictiveModel model(mo, rng);
    TrainOptions to;
    to.objectives = {kBram};
    Trainer trainer(model, to);
    for (int threads : {1, 2, 4}) {
      util::set_parallel_threads(threads);
      expect_bitwise(trainer.predict_graphs_tape(ptrs),
                     trainer.predict_graphs(ptrs),
                     gated ? "bram gated" : "bram ungated");
    }
  }

  // Validity classifier (logits).
  util::Rng rng(9);
  PredictiveModel clf(tiny_options(ModelKind::kM7Full, 1), rng);
  TrainOptions to;
  to.task = Task::kClassification;
  Trainer trainer(clf, to);
  for (int threads : {1, 2, 4}) {
    util::set_parallel_threads(threads);
    expect_bitwise(trainer.predict_graphs_tape(ptrs),
                   trainer.predict_graphs(ptrs), "classifier");
  }
}

TEST(FastPath, BatchForMatchesPerConfigAssembly) {
  obs::set_enabled(true);
  obs::Counter& hits = obs::counter("gnn.batch_skeleton_hits");
  obs::Counter& misses = obs::counter("gnn.batch_skeleton_misses");
  kir::Kernel kernel = kernels::Registry::global().get("gemm-ncubed");
  SampleFactory factory;

  // Alternating chunk sizes, as a heuristic sweep's full and partial chunks
  // produce: the first visit of each size assembles a skeleton, every
  // revisit reuses it. Fresh configs per call also prove per-config pragma
  // slots never leak between calls on one skeleton.
  const std::size_t sizes[] = {8, 3, 8, 3};
  for (std::size_t call = 0; call < std::size(sizes); ++call) {
    SCOPED_TRACE("call " + std::to_string(call));
    const auto configs = sample_configs(kernel, sizes[call], call + 1);
    const auto graphs = featurize_all(factory, kernel, configs);
    gnn::GraphBatch ref = gnn::make_batch(pointers(graphs));
    const std::int64_t hits0 = hits.value();
    const std::int64_t misses0 = misses.value();
    const gnn::GraphBatch& b = factory.batch_for(kernel, configs);
    const bool revisit = call >= 2;
    EXPECT_EQ(hits.value() - hits0, revisit ? 1 : 0);
    EXPECT_EQ(misses.value() - misses0, revisit ? 0 : 1);

    expect_bitwise(ref.x, b.x, "batch x");
    expect_bitwise(ref.e, b.e, "batch e");
    expect_bitwise(ref.aux, b.aux, "batch aux");
    EXPECT_EQ(ref.node_graph, b.node_graph);
    EXPECT_EQ(ref.node_offset, b.node_offset);
    EXPECT_EQ(ref.num_nodes, b.num_nodes);
    EXPECT_EQ(ref.num_graphs, b.num_graphs);
  }
  obs::set_enabled(false);
}

/// Byte-for-byte equality (memcmp): no tolerance, and -0.0f != 0.0f.
void expect_same_bytes(const tensor::Tensor& a, const tensor::Tensor& b,
                       const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<std::size_t>(a.numel()) * sizeof(float)),
            0)
      << what;
}

/// Every builtin and extension kernel plus three generated ones.
std::vector<kir::Kernel> delta_kernels() {
  const auto& reg = kernels::Registry::global();
  std::vector<kir::Kernel> out;
  for (auto p : {kernels::Provenance::kBuiltin, kernels::Provenance::kExtension})
    for (const auto& name : reg.names(p)) out.push_back(reg.get(name));
  for (std::uint64_t seed : {1, 2, 3})
    out.push_back(kernels::generate(kernels::GeneratorConfig{}, seed));
  return out;
}

/// Chunks shaped like the sweeps that feed batch_for, beyond uniform
/// draws: the first configs in for_each order (an exhaustive sweep), a
/// chunk of duplicates (5 configs repeated), and a beam-style chunk (four
/// base designs times every option of one site, as the §4.4 heuristic
/// expands them).
std::vector<std::pair<std::string, std::vector<hlssim::DesignConfig>>>
sweep_chunks(const kir::Kernel& kernel, std::size_t for_each_size) {
  dspace::DesignSpace space(kernel);
  std::vector<std::pair<std::string, std::vector<hlssim::DesignConfig>>> out;
  std::vector<hlssim::DesignConfig> ordered;
  space.for_each(
      [&](hlssim::DesignConfig&& c) {
        ordered.push_back(std::move(c));
        return ordered.size() < for_each_size;
      },
      for_each_size);
  out.emplace_back("for_each", std::move(ordered));
  const auto distinct = sample_configs(kernel, 5, 61);
  std::vector<hlssim::DesignConfig> dups;
  for (std::size_t i = 0; i < 32; ++i) dups.push_back(distinct[(i * 7) % 5]);
  out.emplace_back("duplicates", std::move(dups));
  const auto bases = sample_configs(kernel, 4, 67);
  const auto& site = space.sites()[space.sites().size() / 2];
  std::vector<hlssim::DesignConfig> beam;
  for (const auto& base : bases)
    for (std::int64_t opt : site.options) {
      hlssim::DesignConfig c = base;
      dspace::apply_site(site, opt, c);
      if (!space.is_pruned(c)) beam.push_back(std::move(c));
    }
  out.emplace_back("beam", std::move(beam));
  return out;
}

// The row plan batch_for attaches must not change a single bit: the
// cone-keyed forward's predictions and pooled embeddings equal the forward
// over the same configs assembled by make_batch (no plan), for every
// kernel, every GNN variant, tail and full chunk sizes, and 1 or 4
// threads. Every kernel runs every variant at the tail sizes; the full
// 256-config chunk runs M7 on every kernel and every variant on three,
// which keeps the test affordable under the sanitizers. Sweep-shaped
// chunks (sweep_chunks) run M7 on every kernel and every variant on the
// same three, with for_each chunks of 256 configs there and 64 elsewhere.
TEST(FastPath, DeltaForwardBitIdenticalToFullForward) {
  ThreadGuard guard;
  struct Variant {
    ModelKind kind;
    bool gated;
  };
  const Variant variants[] = {
      {ModelKind::kM3Gcn, true},       {ModelKind::kM4Gat, true},
      {ModelKind::kM5Tconv, true},     {ModelKind::kM6TconvJkn, true},
      {ModelKind::kM7Full, true},      {ModelKind::kM7Full, false}};
  const std::size_t kM7 = 4;
  const std::string every_variant[] = {"doitgen", "mvt", "gen-s1"};
  std::vector<std::unique_ptr<PredictiveModel>> models;
  for (const Variant& v : variants) {
    ModelOptions mo = tiny_options(v.kind, 4);
    mo.gnn_layers = 6;
    mo.tconv_gated_residual = v.gated;
    util::Rng rng(41);
    models.push_back(std::make_unique<PredictiveModel>(mo, rng));
  }
  SampleFactory factory;
  gnn::InferenceSession full_s, delta_s;
  auto check = [&](const kir::Kernel& kernel,
                   const std::vector<hlssim::DesignConfig>& configs,
                   const std::string& what, bool all_variants) {
    const auto graphs = featurize_all(factory, kernel, configs);
    const gnn::GraphBatch full = gnn::make_batch(pointers(graphs));
    const gnn::GraphBatch& delta = factory.batch_for(kernel, configs);
    ASSERT_FALSE(full.plan);
    ASSERT_TRUE(delta.plan && delta.plan->covers(6)) << kernel.name;
    for (std::size_t m = 0; m < models.size(); ++m) {
      if (!all_variants && m != kM7) continue;
      // The full forward is thread-count invariant (tested above).
      util::set_parallel_threads(1);
      const tensor::Tensor& want = models[m]->forward_infer(full_s, full);
      const tensor::Tensor& want_emb = models[m]->last_graph_embedding_infer();
      for (int threads : {1, 4}) {
        util::set_parallel_threads(threads);
        const std::string tag = kernel.name + " " +
                                to_string(variants[m].kind) +
                                (variants[m].gated ? "" : " ungated") + " " +
                                what + " threads=" + std::to_string(threads);
        const tensor::Tensor& got = models[m]->forward_infer(delta_s, delta);
        expect_same_bytes(want, got, tag);
        expect_same_bytes(want_emb, models[m]->last_graph_embedding_infer(),
                          tag + " embedding");
      }
    }
  };
  for (const kir::Kernel& kernel : delta_kernels()) {
    const bool all = std::find(std::begin(every_variant),
                               std::end(every_variant),
                               kernel.name) != std::end(every_variant);
    for (std::size_t chunk : {1, 7, 256})
      check(kernel, sample_configs(kernel, chunk, chunk + 5),
            "chunk=" + std::to_string(chunk), chunk != 256 || all);
    for (const auto& [what, configs] : sweep_chunks(kernel, all ? 256 : 64))
      check(kernel, configs, what, all);
  }
}

// The premise behind the plan: in the whole-batch forward, copies of a
// node whose plan rows coincide (they agree on every pragma row of the
// node's cone) have the same row at that layer. Six TransformerConv
// layers over a chunk with repeated and single-site-apart configs, rows
// compared bit for bit at every layer.
TEST(FastPath, RowsWithEqualIdsAgreeOnFullForward) {
  for (const char* name : {"doitgen", "gesummv", "2mm"}) {
    kir::Kernel kernel = kernels::Registry::global().get(name);
    SampleFactory factory;
    auto configs = sweep_chunks(kernel, 8)[2].second;  // beam-style
    configs.push_back(configs.front());
    const auto graphs = featurize_all(factory, kernel, configs);
    const gnn::GraphBatch full = gnn::make_batch(pointers(graphs));
    const gnn::GraphBatch& batch = factory.batch_for(kernel, configs);
    gnn::RowPlan& plan = *batch.plan;
    plan.prepare(batch.x, 6);
    const std::int64_t n = full.node_offset[1];
    const auto copies = static_cast<std::int64_t>(configs.size());

    util::Rng rng(3);
    std::vector<std::unique_ptr<gnn::TransformerConv>> convs;
    for (int l = 0; l < 6; ++l)
      convs.push_back(std::make_unique<gnn::TransformerConv>(
          l == 0 ? full.x.cols() : 16, 16, full.e.cols(), rng));
    gnn::InferenceSession s;
    s.begin();
    const tensor::Tensor* h = &full.x;
    std::int64_t shared = 0;
    for (std::size_t l = 0; l < convs.size(); ++l) {
      h = &s.elu(convs[l]->forward_infer(s, *h, full.conv_rows()));
      for (std::int64_t i = 0; i < n; ++i) {
        // The first copy with each row of node i at layer l + 1.
        std::map<std::int32_t, std::int64_t> first;
        for (std::int64_t b = 0; b < copies; ++b) {
          const auto [it, fresh] = first.emplace(
              plan.row(l + 1, b, static_cast<std::int32_t>(i)), b);
          if (fresh) continue;
          ++shared;
          EXPECT_EQ(std::memcmp(h->data() + (it->second * n + i) * 16,
                                h->data() + (b * n + i) * 16,
                                16 * sizeof(float)),
                    0)
              << name << " layer " << l + 1 << " node " << i << " copy " << b;
        }
      }
    }
    EXPECT_GT(shared, 0) << name;
  }
}

TEST(FastPath, TemplateInvalidatedOnKernelEdit) {
  obs::set_enabled(true);
  obs::Counter& hits = obs::counter("gnn.template_hits");
  obs::Counter& misses = obs::counter("gnn.template_misses");

  kir::Kernel kernel = kernels::Registry::global().get("spmv-crs");
  SampleFactory factory;
  const auto configs = sample_configs(kernel, 2, 4);

  const std::int64_t m0 = misses.value();
  factory.featurize(kernel, configs[0]);  // first touch: one miss
  EXPECT_EQ(misses.value(), m0 + 1);

  const std::int64_t h0 = hits.value();
  factory.featurize(kernel, configs[1]);  // warm template: hit, no rebuild
  EXPECT_EQ(hits.value(), h0 + 1);
  EXPECT_EQ(misses.value(), m0 + 1);

  // Edit the kernel in place: same name, different digest -> the stale
  // template must be rebuilt, not served.
  const std::uint64_t before = oracle::kernel_digest(kernel);
  kernel.loops[0].trip_count *= 2;
  ASSERT_NE(oracle::kernel_digest(kernel), before);
  factory.featurize(kernel, configs[0]);
  EXPECT_EQ(misses.value(), m0 + 2);

  obs::set_enabled(false);
}

TEST(FastPath, TemplateBudgetEvictsLruButNeverMru) {
  obs::set_enabled(true);
  obs::Counter& misses = obs::counter("gnn.template_misses");
  obs::Counter& evictions = obs::counter("gnn.template_evictions");

  kir::Kernel k1 = kernels::Registry::global().get("spmv-crs");
  kir::Kernel k2 = kernels::Registry::global().get("gemm-ncubed");
  const auto cfg1 = sample_configs(k1, 1, 4)[0];
  const auto cfg2 = sample_configs(k2, 1, 4)[0];

  // A 1-byte budget can never hold two templates, but the MRU entry must
  // survive its own insert (the factory never evicts the template the
  // caller is about to use).
  SampleFactory tight(1);
  const std::int64_t m0 = misses.value(), e0 = evictions.value();
  tight.featurize(k1, cfg1);  // build k1 (sole entry: kept despite budget)
  EXPECT_EQ(misses.value(), m0 + 1);
  EXPECT_EQ(evictions.value(), e0);
  tight.featurize(k1, cfg1);  // still resident
  EXPECT_EQ(misses.value(), m0 + 1);

  tight.featurize(k2, cfg2);  // k2 becomes MRU; k1 evicted
  EXPECT_EQ(misses.value(), m0 + 2);
  EXPECT_EQ(evictions.value(), e0 + 1);
  tight.featurize(k2, cfg2);  // MRU still resident
  EXPECT_EQ(misses.value(), m0 + 2);

  tight.featurize(k1, cfg1);  // k1 rebuilt, k2 evicted in turn
  EXPECT_EQ(misses.value(), m0 + 3);
  EXPECT_EQ(evictions.value(), e0 + 2);

  // Unlimited budget (<= 0): both templates stay resident.
  SampleFactory unlimited(0);
  const std::int64_t m1 = misses.value(), e1 = evictions.value();
  unlimited.featurize(k1, cfg1);
  unlimited.featurize(k2, cfg2);
  unlimited.featurize(k1, cfg1);
  unlimited.featurize(k2, cfg2);
  EXPECT_EQ(misses.value(), m1 + 2);
  EXPECT_EQ(evictions.value(), e1);

  obs::set_enabled(false);
}

TEST(FastPath, WorkspaceStopsGrowingAfterWarmup) {
  kir::Kernel kernel = kernels::Registry::global().get("spmv-crs");
  SampleFactory factory;
  const auto configs = sample_configs(kernel, 16, 13);
  const auto graphs = featurize_all(factory, kernel, configs);
  const auto ptrs = pointers(graphs);

  util::Rng rng(17);
  PredictiveModel model(tiny_options(ModelKind::kM7Full, 4), rng);
  Trainer trainer(model, TrainOptions{});

  tensor::Tensor first = trainer.predict_graphs(ptrs);
  const std::size_t bytes = trainer.inference_session().workspace_bytes();
  const std::size_t slots = trainer.inference_session().num_slots();
  EXPECT_GT(bytes, 0u);
  EXPECT_GT(slots, 0u);

  for (int round = 0; round < 3; ++round) {
    tensor::Tensor again = trainer.predict_graphs(ptrs);
    expect_bitwise(first, again, "steady-state prediction");
    EXPECT_EQ(trainer.inference_session().workspace_bytes(), bytes);
    EXPECT_EQ(trainer.inference_session().num_slots(), slots);
  }
}

// Inference reads the live weights: after fit, the fast path over batch
// objects built before the update matches a fresh tape forward bit for
// bit. Two long-lived batches: a make_batch batch, and a batch_for
// skeleton whose row plan the DSE sweep reuses across chunks.
TEST(FastPath, BitIdenticalToTapeAfterTraining) {
  kir::Kernel kernel = kernels::Registry::global().get("spmv-crs");
  SampleFactory factory;
  const auto configs = sample_configs(kernel, 8, 29);
  const auto graphs = featurize_all(factory, kernel, configs);
  gnn::GraphBatch batch = gnn::make_batch(pointers(graphs));
  const gnn::GraphBatch* skeleton = &factory.batch_for(kernel, configs);
  ASSERT_TRUE(skeleton->plan);
  const gnn::RowPlan* plan = skeleton->plan.get();

  util::Rng rng(31);
  PredictiveModel model(tiny_options(ModelKind::kM7Full, 4), rng);
  TrainOptions to;
  to.epochs = 2;
  Trainer trainer(model, to);
  tensor::Tensor before = trainer.predict_batch(batch);
  tensor::Tensor before_delta = trainer.predict_batch(*skeleton);
  expect_bitwise(before, before_delta, "pre-training delta prediction");

  Dataset ds;
  ds.samples.resize(graphs.size());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    ds.samples[i].kernel = kernel.name;
    ds.samples[i].graph = graphs[i];
    ds.samples[i].target = {0.5f, 0.1f, 0.2f, 0.3f, 0.4f};
    ds.samples[i].valid = true;
  }
  trainer.fit(ds, ds.all_indices());

  // Same batch objects, updated weights: both must match a fresh tape
  // forward bit for bit.
  tensor::Tape tape;
  const tensor::Tensor& ref = tape.value(model.forward(tape, batch));
  const tensor::Tensor& fast = trainer.predict_batch(batch);
  expect_bitwise(ref, fast, "post-training prediction");

  skeleton = &factory.batch_for(kernel, configs);  // a skeleton hit
  ASSERT_EQ(skeleton->plan.get(), plan);
  const tensor::Tensor& delta = trainer.predict_batch(*skeleton);
  expect_bitwise(ref, delta, "post-training delta prediction");

  // Sanity: training actually moved the weights, so a stale value would
  // have been visible above.
  bool changed = false;
  for (std::int64_t i = 0; i < before.numel() && !changed; ++i)
    changed = before.data()[i] != delta.data()[i];
  EXPECT_TRUE(changed);
}

TEST(FastPath, EmbeddingsMatchTapeGraphEmbedding) {
  kir::Kernel kernel = kernels::Registry::global().get("spmv-crs");
  SampleFactory factory;
  const auto configs = sample_configs(kernel, 6, 21);
  const auto graphs = featurize_all(factory, kernel, configs);
  const auto ptrs = pointers(graphs);

  util::Rng rng(23);
  PredictiveModel model(tiny_options(ModelKind::kM7Full, 4), rng);
  Trainer trainer(model, TrainOptions{});

  // Tape reference: forward the whole batch, read last_graph_embedding.
  gnn::GraphBatch batch = gnn::make_batch(ptrs);
  tensor::Tape tape;
  model.forward(tape, batch);
  const tensor::Tensor& ref = tape.value(model.last_graph_embedding());

  tensor::Tensor fast = trainer.embed_graphs(ptrs);
  expect_bitwise(ref, fast, "graph embedding");
}

}  // namespace
}  // namespace gnndse::model
