// bench_e2e: shared pieces of the end-to-end benchmark — run options, the
// result a run assembles, the pinned model bundle, and small statistics
// helpers. README.md in this directory describes the workloads and metrics.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "db/database.hpp"
#include "dse/dse.hpp"
#include "model/dataset.hpp"
#include "model/trainer.hpp"
#include "obs/report.hpp"
#include "serve/model_slot.hpp"

namespace gnndse::bench_e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke size: a tiny bundle and short phases (the ctest).
  bool smoke = false;
  std::string cache_dir;  // prepared bundles live under here
  std::string out_dir;    // result.json, report, traces, layer table
  std::string gnndse;     // CLI binary the serve workload starts
  std::string source_id;  // digest of the sources being measured
};

/// What one run measured and checked. `metrics` are the BENCHMARK.json
/// names the last stdout line carries; `detail` holds the workload's own
/// named numbers, which go to result.json only.
struct Result {
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> metrics;
  std::map<std::string, Value> detail;
  std::map<std::string, std::string> inputs;  // workload sizes and names
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  // first few messages

  void metric(const std::string& name, double v, const std::string& unit) {
    metrics[name] = {v, unit};
  }
  void note(const std::string& name, double v, const std::string& unit) {
    detail[name] = {v, unit};
  }
  /// Counts one operation or check; a false `ok` is a failed one.
  void op(bool ok, const std::string& what);
};

/// Architecture and training recipe of a bundle. The cache key is a digest
/// of every field, so changing any of them trains a new bundle.
struct BundleSpec {
  std::int64_t hidden = 64;
  int layers = 6;
  int main_epochs = 8;
  int bram_epochs = 4;
  int cls_epochs = 4;
  std::uint64_t db_seed = 42;
  std::uint64_t split_seed = 7;

  std::string describe() const;
  std::string key() const;  // hex digest of describe()
  model::ModelOptions model() const;  // M7 of this hidden size and depth
};

/// The paper's model shape (M7, hidden 64, 6 layers); smoke runs use a
/// hidden-16, one-epoch bundle.
BundleSpec pinned_spec(bool smoke);

/// Fresh main / BRAM / classifier models of shape `base` (out_dim is set
/// per head), initialized from `seed`, with trainers on the
/// dse::PipelineOptions recipe (batch size, learning rates) for the given
/// epochs, shuffling with `seed`.
struct Heads {
  std::unique_ptr<model::PredictiveModel> main, bram, cls;
  std::unique_ptr<model::Trainer> main_t, bram_t, cls_t;
};
Heads make_heads(model::ModelOptions base, int main_epochs, int bram_epochs,
                 int cls_epochs, std::uint64_t seed);

/// The database the bundle trains on and its fixed 80/20 split: the
/// held-out part is what the train workload scores the bundle on.
struct HeldOut {
  std::vector<kir::Kernel> kernels;
  db::Database database;
  model::Normalizer norm;
  model::Dataset dataset;
  std::vector<std::size_t> train, test;
};
HeldOut make_heldout(const BundleSpec& spec, model::SampleFactory& factory);

/// Trains the bundle into cache_dir/<key>/ unless a bundle whose recorded
/// hashes verify is already there. Returns the seconds spent (0 if cached).
double prepare_bundle(const BundleSpec& spec, const std::string& cache_dir);

/// A verified, loaded bundle: weight-file prefix (what `gnndse serve
/// --weights` takes) and the immutable snapshot model instances build from.
struct Bundle {
  std::string prefix;
  serve::SnapshotPtr snapshot;
};
/// Throws when the bundle is missing or a weight file fails its hash.
Bundle load_bundle(const BundleSpec& spec, const std::string& cache_dir);

/// Size band for seed-generated kernels: program-graph nodes and pruned
/// design-space configs, both inclusive. Model cost per config follows the
/// graph size, so kernels from one band cost about the same whatever the
/// seed, and each seed still brings different kernels.
struct KernelBand {
  std::int64_t min_nodes = 0, max_nodes = 0;
  std::uint64_t min_space = 0, max_space = 0;
};
/// `count` kernels generated from `seed`, keeping those inside `band`.
std::vector<kir::Kernel> generate_kernels(std::uint64_t seed, int count,
                                          const KernelBand& band);

// -- statistics ----------------------------------------------------------

/// Linear-interpolated percentile, q in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// Peak resident set of this process (VmHWM), MB.
double peak_rss_mb();
/// VmHWM of another process, MB (0 when unreadable).
double peak_rss_mb_of(int pid);

/// Surrogate quality on a set of designs the oracle has measured: the
/// Table 2 "All" RMSE (sum over objectives of the RMSE of normalized
/// targets, valid designs only) and the validity classifier's F1. Same
/// conventions as model::eval_regression / eval_classification.
class QualityScore {
 public:
  void add(const std::array<float, model::kNumObjectives>& predicted,
           float p_valid, const hlssim::HlsResult& actual,
           const model::Normalizer& norm);
  double rmse_all() const;
  double f1() const;
  std::int64_t designs() const { return n_; }

 private:
  std::array<double, model::kNumObjectives> se_{};
  std::int64_t n_ = 0, n_valid_ = 0, tp_ = 0, fp_ = 0, fn_ = 0;
};

/// Sweep-stage totals over DSE jobs (DseResult::stages plus evaluate_top),
/// reported as the dse.* per-layer metrics.
struct StageTotals {
  double featurize_ms = 0.0, predict_ms = 0.0, rank_ms = 0.0, wall_ms = 0.0;
  double evaluate_top_ms = 0.0;
  std::uint64_t chunks = 0, configs = 0, jobs = 0;

  void add(const dse::DseResult& r, double evaluate_top_ms);
  void emit(Result& result) const;
};

// -- workloads -------------------------------------------------------------
//
// Each workload sets itself up kSetupReps times (setup_s is the median),
// then measures for opts.seconds. A traced run measures half the time with
// telemetry off and half with it on (trace_overhead_ratio compares the
// two), writes the program's report and Chrome trace, runs probe_layers,
// and reports the per-layer metrics instead of the end-to-end ones.

inline constexpr int kSetupReps = 3;

void run_dse(const Options& opts, const BundleSpec& spec, bool heuristic,
             Result& result);
void run_serve(const Options& opts, const BundleSpec& spec, Result& result);
void run_train(const Options& opts, const BundleSpec& spec, Result& result);

/// Per-layer probe of a traced run: times each layer's public entry point
/// on the workload's own kernels (configs drawn from opts.seed) and adds
/// the layer metrics to `result`. `stages` holds the workload's own DSE
/// jobs; when it has none, the probe runs a short job of its own.
void probe_layers(const Options& opts, const Bundle& bundle,
                  const std::vector<kir::Kernel>& kernels, StageTotals stages,
                  Result& result);

/// Opens the telemetry session of a traced run's second half: the program
/// report and Chrome trace land in opts.out_dir when it closes.
class TracedPhase {
 public:
  explicit TracedPhase(const Options& opts);
  ~TracedPhase();
  TracedPhase(const TracedPhase&) = delete;
  TracedPhase& operator=(const TracedPhase&) = delete;

  /// Adds parallel.worker_utilization (unless the workload measured it in
  /// another process) and writes layers.md: self time per span name of the
  /// traced phase, then the run's metrics. Call once the work is done.
  void finish(Result& result) const;

 private:
  std::unique_ptr<obs::ReportSession> session_;
  std::string table_path_;
};

}  // namespace gnndse::bench_e2e
