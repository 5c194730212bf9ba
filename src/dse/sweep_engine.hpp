// Sweep engine: the scoring core of model-driven DSE.
//
// Candidates stream in through push(). Every `chunk` of them is scored on
// the calling thread in three steps:
//
//   featurize  SampleFactory::batch_for rewrites the pragma slots of a
//              cached batch skeleton (topology assembled once per size)
//   predict    the three model heads run as concurrent pool tasks
//              (model::predict_batch_concurrent), one shared batch
//   keep       the chunk merges into a bounded top-K frontier
//              (nth_element keep)
//
// Predict is almost all of the work, so the heads are the only thing run
// in parallel. The ranked output is bit-identical at every thread count
// (enforced by tests/test_sweep.cpp): per-row predictions are independent
// of batch composition and of which pool lane runs a head, the frontier
// orders by a strict total order (score desc, then push sequence asc), and
// a bounded keep can never evict a design that would make the final top-K.
//
// Telemetry: per-stage histograms `dse.featurize_chunk_ms`,
// `dse.predict_chunk_ms` and `dse.frontier_keep_ms`, the live
// `dse.sweep_configs_per_sec` gauge, plus the `dse.search_elapsed_seconds`
// / `dse.frontier_size` / `dse.configs_explored` progress metrics the
// heartbeat reads. Those are process-wide; a caller that needs one
// sweep's own progress (the serve daemon's poll) passes a SweepProgress.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "model/dataset.hpp"
#include "model/trainer.hpp"
#include "util/timer.hpp"

namespace gnndse::dse {

/// Bundles the three trained models GNN-DSE uses at inference time.
struct ModelBundle {
  model::Trainer* regression_main;  // latency/DSP/LUT/FF
  model::Trainer* regression_bram;  // BRAM
  model::Trainer* classifier;       // valid/invalid
};

struct RankedDesign {
  hlssim::DesignConfig config;
  /// Predicted normalized objectives (Objective order).
  std::array<float, model::kNumObjectives> predicted{};
  /// Classifier probability that the design is valid.
  float p_valid = 0.0f;
};

/// Ranking key: predicted-valid designs that fit come first, ordered by
/// predicted latency target (higher = faster design).
double ranking_score(const RankedDesign& d, double util_threshold);

/// Row `row` of the three heads' outputs (ModelBundle order) as objective
/// predictions: main's four columns, BRAM's one, and the classifier logit
/// through a branch-stable sigmoid. The sweep and the serve daemon both
/// read predictions through it, so a predict response holds the same bits
/// as the sweep's ranking input.
void read_prediction(const tensor::Tensor& main, const tensor::Tensor& bram,
                     const tensor::Tensor& valid, std::int64_t row,
                     std::array<float, model::kNumObjectives>& predicted,
                     float& p_valid);

/// Per-stage wall-clock breakdown of one sweep, reported on DseResult.
struct SweepStageStats {
  double featurize_ms = 0.0;
  double predict_ms = 0.0;
  double rank_ms = 0.0;
  double wall_ms = 0.0;
  std::uint64_t chunks = 0;
};

/// Live progress of one sweep: written by the engine after every chunk,
/// readable from any thread while the sweep runs.
struct SweepProgress {
  std::atomic<std::uint64_t> configs_explored{0};
  std::atomic<std::uint64_t> frontier{0};
  std::atomic<double> elapsed_seconds{0.0};
  std::atomic<double> configs_per_sec{0.0};
};

struct SweepEngineOptions {
  /// Configs per scored chunk (one GraphBatch).
  int chunk = 256;
  /// Frontier bound: the engine keeps the best `keep` designs seen so far
  /// (ModelDse uses max(top_m, beam_width) * 4).
  std::size_t keep = 128;
  double util_threshold = 0.8;
  /// Cooperative cancellation (see DseOptions::cancel): once set, pending
  /// configs not yet scored are dropped.
  const std::atomic<bool>* cancel = nullptr;
  /// This sweep's progress (see DseOptions::progress); nullptr = none.
  SweepProgress* progress = nullptr;
};

/// push() every candidate config (full chunks score immediately),
/// top_configs() at beam refresh points, finish() for the final sorted
/// frontier. Single-threaded API; not reusable after finish().
class SweepEngine {
 public:
  /// `kernel`, `factory` and the bundle's trainers must outlive the engine.
  /// The factory may be shared with concurrent featurize() traffic, but
  /// the engine is its only batch_for() caller.
  SweepEngine(const ModelBundle& models, model::SampleFactory& factory,
              const kir::Kernel& kernel, const SweepEngineOptions& opts);

  /// Queues one candidate; scores the chunk once `opts.chunk` are pending.
  void push(hlssim::DesignConfig&& cfg);

  /// Best `n` configs scored so far, after scoring the pending partial
  /// chunk — the beam refresh.
  std::vector<hlssim::DesignConfig> top_configs(std::size_t n);

  /// Scores the pending partial chunk and returns the frontier sorted
  /// best-first. Also fixes stats().
  std::vector<RankedDesign> finish();

  std::uint64_t num_scored() const { return num_scored_; }

  /// Valid after finish().
  const SweepStageStats& stats() const { return stats_; }

 private:
  /// Frontier entry. `seq` is the push-order sequence number: it makes
  /// (score desc, seq asc) a strict total order, so tie-breaks are
  /// deterministic.
  struct Scored {
    RankedDesign d;
    double score = 0.0;
    std::uint64_t seq = 0;
  };

  bool cancelled() const {
    return opts_.cancel && opts_.cancel->load(std::memory_order_relaxed);
  }
  bool better(const Scored& a, const Scored& b) const {
    if (a.score != b.score) return a.score > b.score;
    return a.seq < b.seq;
  }
  /// Featurizes, predicts and ranks `pending_` into the frontier.
  void score_pending();
  void keep_top();

  ModelBundle models_;
  model::SampleFactory& factory_;
  const kir::Kernel& kernel_;
  SweepEngineOptions opts_;
  util::Timer timer_;

  std::vector<hlssim::DesignConfig> pending_;
  std::vector<Scored> frontier_;
  std::uint64_t num_scored_ = 0;
  SweepStageStats stats_;
};

}  // namespace gnndse::dse
