// Dataset assembly: database points -> featurized graphs + targets.
//
// Per-kernel structures (design space, program graph, edge features) are
// built once and shared; only node features (pragma fill) differ between
// design points of the same kernel.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "db/database.hpp"
#include "gnn/batch.hpp"
#include "graphgen/featurize.hpp"
#include "graphgen/program_graph.hpp"
#include "kir/kernel.hpp"
#include "model/normalizer.hpp"
#include "util/rng.hpp"

namespace gnndse::model {

/// Maximum pragma sites across the benchmark suite (2mm has 14) — the M1
/// baseline pads its pragma vector to this.
inline constexpr int kMaxPragmaSites = 16;

struct Sample {
  std::string kernel;
  gnn::GraphData graph;                      // includes aux pragma vector
  std::array<float, kNumObjectives> target;  // normalized objectives
  bool valid = false;
};

/// Caches per-kernel lowering products and featurizes design points.
///
/// Two cache layers back the inference fast path:
///  * GraphTemplate — everything invariant across configurations of one
///    kernel (design space, program graph, edge features, edge index, and
///    the static node-feature matrix with the pragma slots zeroed), built
///    once per kernel *digest* (oracle::kernel_digest): editing a kernel
///    in place invalidates and rebuilds its template.
///    The map is byte-budgeted (GNNDSE_TEMPLATE_BUDGET, bytes; <= 0 means
///    unlimited): when inserting a template pushes the estimated resident
///    size past the budget, least-recently-used templates are evicted —
///    never the just-touched MRU entry, so the kernel being worked on
///    always stays resident. Entries are shared_ptr-held; featurize()/
///    batch_for() pin the template they use, so a concurrent eviction can
///    only drop the map's reference, never free a template mid-use.
///    References returned by space()/graph() are valid while the template
///    is resident: for the single-kernel DSE/attention loops that is the
///    MRU guarantee; callers interleaving many kernels under a tight
///    budget must re-fetch instead of holding them long-term.
///    Telemetry: `gnn.template_hits` / `gnn.template_misses` /
///    `gnn.template_evictions`, with the resident estimate in the
///    `gnn.template_bytes` gauge.
///  * batch skeleton — the assembled GraphBatch for B copies of the
///    template graph and its row plan, kept per (kernel, digest, B) in a
///    small MRU list since topology (src/dst/node_graph/node_offset) and
///    edge features are identical across configurations. batch_for()
///    reduces per-config featurization to rewriting pragma feature slots
///    inside a cached skeleton. Telemetry: `gnn.batch_skeleton_hits` /
///    `gnn.batch_skeleton_misses`.
///
/// Thread-safe for featurize()/make()/space()/graph() (mutex-guarded map
/// with reference-stable, immutable-once-built entries) — dataset builds,
/// the serve batcher and trainer stages rely on that. batch_for() is
/// single-consumer: one sweep engine per factory.
class SampleFactory {
 public:
  /// Budget from GNNDSE_TEMPLATE_BUDGET (default 256 MiB).
  SampleFactory();
  /// Explicit template byte budget (testing hook; <= 0 means unlimited).
  explicit SampleFactory(std::int64_t template_budget_bytes);

  /// Featurizes one (kernel, config) pair; `result` supplies the targets
  /// (pass a default HlsResult for pure-inference samples).
  Sample make(const kir::Kernel& kernel, const hlssim::DesignConfig& cfg,
              const hlssim::HlsResult& result, const Normalizer& norm);

  /// Inference-only featurization (targets zeroed, valid=false).
  gnn::GraphData featurize(const kir::Kernel& kernel,
                           const hlssim::DesignConfig& cfg);

  /// Shared batch assembly for one DSE chunk: one GraphBatch reused by all
  /// three model heads, with the topology skeleton cached per (kernel,
  /// digest, configs.size()) and only the pragma-dependent feature slots
  /// rewritten per call. Bit-identical to featurizing each config and
  /// calling gnn::make_batch, plus a row plan (gnn::plan_rows over the
  /// pragma nodes, its cones built with the skeleton and its rows on the
  /// chunk's first forward) that lets the fast path compute each distinct
  /// row once per chunk. Single-consumer:
  /// the returned reference is valid (and must not be used concurrently)
  /// until the next batch_for() call on the same factory.
  const gnn::GraphBatch& batch_for(const kir::Kernel& kernel,
                                   std::span<const hlssim::DesignConfig> configs);

  const dspace::DesignSpace& space(const kir::Kernel& kernel);
  const graphgen::ProgramGraph& graph(const kir::Kernel& kernel);

 private:
  struct GraphTemplate {
    std::uint64_t digest = 0;
    std::unique_ptr<dspace::DesignSpace> space;
    graphgen::ProgramGraph graph;
    tensor::Tensor edge_feats;
    std::vector<std::int32_t> src, dst;
    /// Static node features (pragma slots zero) shared by every config.
    tensor::Tensor base_x;

    /// Estimated resident bytes (tensors + index vectors + graph storage)
    /// for the LRU budget accounting.
    std::size_t approx_bytes() const;
  };
  /// Returns the (possibly freshly built) template for this kernel, moved
  /// to the MRU position. The shared_ptr pins it: safe to use even if a
  /// concurrent insert evicts it from the map.
  std::shared_ptr<const GraphTemplate> cache_for(const kir::Kernel& kernel);
  /// Evicts LRU templates (never the MRU front) until the resident
  /// estimate fits the budget. Caller holds mu_.
  void enforce_budget_locked();

  /// batch_for()'s assembled skeletons, most recently used first. Capped
  /// at kMaxSkeletons: a 256-config skeleton of a mid-size kernel is ~13 MB
  /// of node features, and DSE works one kernel at a time, so a small list
  /// covers a sweep's full and tail chunk sizes (heuristic sweeps alternate
  /// them) without ballooning across a 9-kernel run. Touched only by
  /// batch_for(), so it needs no lock.
  struct Skeleton {
    std::string kernel;
    std::uint64_t digest = 0;
    std::size_t size = 0;
    gnn::GraphBatch batch;
  };
  static constexpr std::size_t kMaxSkeletons = 4;
  std::list<Skeleton> skeletons_;

  std::mutex mu_;
  struct TemplateEntry {
    std::shared_ptr<const GraphTemplate> tpl;
    std::size_t bytes = 0;
    /// Position in lru_ (front = most recently used).
    std::list<std::string>::iterator lru_it;
  };
  std::map<std::string, TemplateEntry> cache_;
  std::list<std::string> lru_;
  std::size_t cache_bytes_ = 0;
  std::int64_t template_budget_bytes_ = 0;  // <= 0: unlimited
};

struct Dataset {
  std::vector<Sample> samples;

  std::vector<std::size_t> all_indices() const;
  std::vector<std::size_t> valid_indices() const;

  /// Random train/test split (paper: 80/20).
  static std::pair<std::vector<std::size_t>, std::vector<std::size_t>>
  split(std::vector<std::size_t> indices, double train_fraction,
        util::Rng& rng);

  /// k-fold partition of the given indices (paper: 3-fold CV).
  static std::vector<std::vector<std::size_t>> folds(
      std::vector<std::size_t> indices, int k, util::Rng& rng);
};

/// Builds the dataset for a whole database.
Dataset build_dataset(const db::Database& database,
                      const std::vector<kir::Kernel>& kernels,
                      const Normalizer& norm, SampleFactory& factory);

}  // namespace gnndse::model
