#include "model/dataset.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "oracle/evaluator.hpp"
#include "util/env.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace gnndse::model {

namespace {
/// Default GraphTemplate budget: generous enough that the benchmark
/// suite's templates (a few hundred KB each) never evict in practice —
/// the cap exists for long-lived services fed open-ended kernel streams.
constexpr std::int64_t kDefaultTemplateBudget = 256ll << 20;
}  // namespace

SampleFactory::SampleFactory()
    : SampleFactory(
          util::env_int64("GNNDSE_TEMPLATE_BUDGET", kDefaultTemplateBudget)) {}

SampleFactory::SampleFactory(std::int64_t template_budget_bytes)
    : template_budget_bytes_(template_budget_bytes) {}

std::size_t SampleFactory::GraphTemplate::approx_bytes() const {
  std::size_t b = sizeof(GraphTemplate);
  b += static_cast<std::size_t>(edge_feats.numel() + base_x.numel()) *
       sizeof(float);
  b += (src.capacity() + dst.capacity()) * sizeof(std::int32_t);
  b += graph.nodes.capacity() * sizeof(graphgen::GraphNode);
  b += graph.edges.capacity() * sizeof(graphgen::GraphEdge);
  b += (graph.pragma_nodes.capacity() + graph.loop_icmp_nodes.capacity()) *
       sizeof(std::int32_t);
  if (space) b += sizeof(dspace::DesignSpace);
  return b;
}

void SampleFactory::enforce_budget_locked() {
  static obs::Counter& c_evict = obs::counter("gnn.template_evictions");
  if (template_budget_bytes_ > 0) {
    // Never evict the MRU front: it is the template the caller is about to
    // use (and the one pinned by the returned shared_ptr).
    while (cache_bytes_ > static_cast<std::size_t>(template_budget_bytes_) &&
           lru_.size() > 1) {
      auto it = cache_.find(lru_.back());
      cache_bytes_ -= it->second.bytes;
      cache_.erase(it);
      lru_.pop_back();
      obs::add(c_evict);
    }
  }
  obs::gauge("gnn.template_bytes").set(static_cast<double>(cache_bytes_));
}

std::shared_ptr<const SampleFactory::GraphTemplate> SampleFactory::cache_for(
    const kir::Kernel& kernel) {
  static obs::Counter& c_hits = obs::counter("gnn.template_hits");
  static obs::Counter& c_misses = obs::counter("gnn.template_misses");
  const std::uint64_t digest = oracle::kernel_digest(kernel);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(kernel.name);
    if (it != cache_.end() && it->second.tpl->digest == digest) {
      obs::add(c_hits);
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return it->second.tpl;
    }
  }
  // Build outside the lock: lowering a kernel is the expensive part, and
  // entries are immutable once built, so the worst case of two threads
  // racing on the same cold kernel is one discarded duplicate build.
  obs::add(c_misses);
  auto kc = std::make_shared<GraphTemplate>();
  kc->digest = digest;
  kc->space = std::make_unique<dspace::DesignSpace>(kernel);
  kc->graph = graphgen::build_graph(kernel, *kc->space);
  kc->edge_feats = graphgen::edge_features(kc->graph);
  kc->src.reserve(kc->graph.edges.size());
  kc->dst.reserve(kc->graph.edges.size());
  for (const auto& e : kc->graph.edges) {
    kc->src.push_back(e.src);
    kc->dst.push_back(e.dst);
  }
  kc->base_x = graphgen::static_node_features(kc->graph, *kc->space);

  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(kernel.name);
  if (it != cache_.end()) {
    if (it->second.tpl->digest == digest) {
      // Another thread built it first; use theirs (keeps entries unique).
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return it->second.tpl;
    }
    // Kernel edited in place: drop the stale template.
    cache_bytes_ -= it->second.bytes;
    lru_.erase(it->second.lru_it);
    cache_.erase(it);
  }
  TemplateEntry entry;
  entry.tpl = std::move(kc);
  entry.bytes = entry.tpl->approx_bytes();
  lru_.push_front(kernel.name);
  entry.lru_it = lru_.begin();
  cache_bytes_ += entry.bytes;
  auto tpl = entry.tpl;
  cache_.emplace(kernel.name, std::move(entry));
  enforce_budget_locked();
  return tpl;
}

const dspace::DesignSpace& SampleFactory::space(const kir::Kernel& kernel) {
  return *cache_for(kernel)->space;
}

const graphgen::ProgramGraph& SampleFactory::graph(const kir::Kernel& kernel) {
  return cache_for(kernel)->graph;
}

gnn::GraphData SampleFactory::featurize(const kir::Kernel& kernel,
                                        const hlssim::DesignConfig& cfg) {
  static obs::Counter& c_built = obs::counter("graphgen.graphs_built");
  static obs::Histogram& h_feat = obs::histogram("graphgen.featurize_ms");
  util::Timer timer;
  const auto kc = cache_for(kernel);  // pins the template against eviction
  gnn::GraphData g;
  // Static features are a straight copy of the template; only the pragma
  // slots of this configuration get written on top.
  g.x = kc->base_x;
  graphgen::write_pragma_features(kc->graph, *kc->space, cfg, g.x, 0);
  g.e = kc->edge_feats;
  g.src = kc->src;
  g.dst = kc->dst;
  g.aux = graphgen::pragma_vector(*kc->space, cfg, kMaxPragmaSites);
  if (obs::enabled()) {
    c_built.add();
    h_feat.observe(timer.millis());
  }
  return g;
}

const gnn::GraphBatch& SampleFactory::batch_for(
    const kir::Kernel& kernel, std::span<const hlssim::DesignConfig> configs) {
  static obs::Counter& c_hits = obs::counter("gnn.batch_skeleton_hits");
  static obs::Counter& c_misses = obs::counter("gnn.batch_skeleton_misses");
  if (configs.empty())
    throw std::invalid_argument("batch_for: empty config list");
  obs::ScopedSpan span("gnn.batch_assemble");
  span.add("configs", static_cast<double>(configs.size()));
  const auto kc = cache_for(kernel);  // pins the template against eviction

  // MRU skeleton lookup keyed by kernel + digest + batch size. A hit hands
  // back an already-assembled batch and its row plan's cones, so a chunk
  // skips make_batch and plan_rows and only rewrites the per-config rows.
  auto it = std::find_if(skeletons_.begin(), skeletons_.end(),
                         [&](const Skeleton& s) {
                           return s.kernel == kernel.name &&
                                  s.digest == kc->digest &&
                                  s.size == configs.size();
                         });
  if (it != skeletons_.end()) {
    obs::add(c_hits);
    skeletons_.splice(skeletons_.begin(), skeletons_, it);
  } else {
    obs::add(c_misses);
    // Assemble the batch once from `size` copies of the template graph
    // (pragma slots zero) — exactly what make_batch over featurized graphs
    // produces for everything except the per-config slots written below.
    gnn::GraphData proto;
    proto.x = kc->base_x;
    proto.e = kc->edge_feats;
    proto.src = kc->src;
    proto.dst = kc->dst;
    proto.aux = tensor::Tensor({static_cast<std::int64_t>(kMaxPragmaSites) *
                                graphgen::kPragmaVectorPerSite});
    std::vector<const gnn::GraphData*> protos(configs.size(), &proto);
    gnn::GraphBatch batch = gnn::make_batch(protos);
    // Only the pragma slots of pragma-node rows differ between configs:
    // the row plan lets the fast path compute each distinct row once per
    // chunk.
    batch.plan = gnn::plan_rows(batch, kc->graph.pragma_nodes,
                                graphgen::kPragmaSlotBegin,
                                graphgen::kPragmaSlotEnd);
    skeletons_.push_front(
        Skeleton{kernel.name, kc->digest, configs.size(), std::move(batch)});
    if (skeletons_.size() > kMaxSkeletons) skeletons_.pop_back();
  }

  // Per-config featurization: rewrite only the pragma-dependent slots of
  // each graph's rows (write_pragma_features clears them first, so reuse
  // across calls never leaks a previous configuration). A few floats per
  // pragma node: a 256-config chunk takes about 0.1 ms serially, less than
  // waking the pool would cost.
  gnn::GraphBatch& b = skeletons_.front().batch;
  const std::int64_t fa = b.aux.cols();
  for (std::size_t i = 0; i < configs.size(); ++i) {
    graphgen::write_pragma_features(kc->graph, *kc->space, configs[i], b.x,
                                    b.node_offset[i]);
    graphgen::write_pragma_vector(
        *kc->space, configs[i], kMaxPragmaSites,
        b.aux.data() + static_cast<std::int64_t>(i) * fa);
  }
  // The plan's rows follow on the first forward over this chunk.
  b.plan->refresh();
  return b;
}

Sample SampleFactory::make(const kir::Kernel& kernel,
                           const hlssim::DesignConfig& cfg,
                           const hlssim::HlsResult& result,
                           const Normalizer& norm) {
  Sample s;
  s.kernel = kernel.name;
  s.graph = featurize(kernel, cfg);
  s.target = norm.targets(result);
  s.valid = result.valid;
  return s;
}

std::vector<std::size_t> Dataset::all_indices() const {
  std::vector<std::size_t> out(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) out[i] = i;
  return out;
}

std::vector<std::size_t> Dataset::valid_indices() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < samples.size(); ++i)
    if (samples[i].valid) out.push_back(i);
  return out;
}

std::pair<std::vector<std::size_t>, std::vector<std::size_t>> Dataset::split(
    std::vector<std::size_t> indices, double train_fraction, util::Rng& rng) {
  rng.shuffle(indices);
  const auto cut = static_cast<std::size_t>(
      static_cast<double>(indices.size()) * train_fraction);
  std::vector<std::size_t> train(indices.begin(),
                                 indices.begin() + static_cast<long>(cut));
  std::vector<std::size_t> test(indices.begin() + static_cast<long>(cut),
                                indices.end());
  return {std::move(train), std::move(test)};
}

std::vector<std::vector<std::size_t>> Dataset::folds(
    std::vector<std::size_t> indices, int k, util::Rng& rng) {
  if (k < 2) throw std::invalid_argument("folds: k must be >= 2");
  rng.shuffle(indices);
  std::vector<std::vector<std::size_t>> out(static_cast<std::size_t>(k));
  for (std::size_t i = 0; i < indices.size(); ++i)
    out[i % static_cast<std::size_t>(k)].push_back(indices[i]);
  return out;
}

Dataset build_dataset(const db::Database& database,
                      const std::vector<kir::Kernel>& kernels,
                      const Normalizer& norm, SampleFactory& factory) {
  obs::ScopedSpan span("train.build_dataset");
  std::map<std::string, const kir::Kernel*> by_name;
  for (const auto& k : kernels) by_name[k.name] = &k;

  // Warm the per-kernel caches serially so the parallel featurization
  // below never contends on building the same kernel's lowering products.
  for (const auto& k : kernels) factory.space(k);

  Dataset ds;
  const auto& points = database.points();
  ds.samples.resize(points.size());
  util::parallel_for(
      static_cast<std::int64_t>(points.size()), 4,
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) {
          const auto& p = points[static_cast<std::size_t>(i)];
          auto it = by_name.find(p.kernel);
          if (it == by_name.end())
            throw std::invalid_argument("build_dataset: unknown kernel " +
                                        p.kernel);
          ds.samples[static_cast<std::size_t>(i)] =
              factory.make(*it->second, p.config, p.result, norm);
        }
      });
  span.add("samples", static_cast<double>(ds.samples.size()));
  return ds;
}

}  // namespace gnndse::model
