// Design-space exploration on top of the predictive models (paper §4.4,
// §5.3, §5.4).
//
// Small spaces are swept exhaustively (the models run in milliseconds);
// large spaces use the innermost-first pragma-ordering heuristic: a beam
// sweep over the priority-ordered sites, followed by random exploration
// until the time limit. Both paths stream their candidates through the
// SweepEngine (dse/sweep_engine.hpp), which scores each chunk with the
// three model heads running concurrently and keeps a bounded top-K
// frontier. The top-M candidates by predicted quality are then evaluated
// with the real HLS substrate, exactly as GNN-DSE sends its top-10 designs
// to the Merlin Compiler.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "db/database.hpp"
#include "db/explorer.hpp"
#include "dse/sweep_engine.hpp"
#include "model/trainer.hpp"

namespace gnndse::dse {

struct DseOptions {
  /// Wall-clock budget for the model-driven search.
  double time_limit_seconds = 60.0;
  /// Candidates sent to the HLS tool at the end (paper: top 10).
  int top_m = 10;
  double util_threshold = 0.8;
  /// Spaces up to this many (pruned) configurations are swept exhaustively
  /// (the paper sweeps every training kernel except mvt, whose 3M-point
  /// space gets the §4.4 heuristic under a one-hour limit). Full prediction
  /// costs ~5 ms/config on one core, so the default keeps sweeps under a
  /// minute; larger spaces fall back to the heuristic + time limit.
  std::uint64_t max_exhaustive = 8'000;
  /// Beam width of the heuristic sweep for larger spaces.
  int beam_width = 32;
  /// Featurization/inference chunk. Each chunk's pragma slots are written
  /// into a cached batch skeleton, then the three model heads predict it
  /// as concurrent tasks on the global thread pool (GNNDSE_THREADS).
  int chunk = 256;
  /// Ablation toggle: false disables the §4.4 innermost-first ordering and
  /// sweeps sites in declaration order instead.
  bool use_priority_order = true;
  /// Hard cap on configurations handed to the models (0 = unlimited).
  /// Unlike the wall-clock limit this budget is deterministic, so two runs
  /// with the same cap score the same configs — the thread-count identity
  /// tests use it to pin the heuristic path, and bounded production sweeps
  /// get a predictable cost.
  std::uint64_t max_configs = 0;
  /// Cooperative cancellation: another thread (the serve daemon's cancel
  /// request) sets the flag; the search checks it between chunks, stops
  /// scoring *and enumerating*, and returns with DseResult::cancelled set.
  /// nullptr = never cancelled.
  const std::atomic<bool>* cancel = nullptr;
  /// This run's live progress, updated after every scored chunk (the
  /// serve daemon's per-job poll reads it). nullptr = not tracked.
  SweepProgress* progress = nullptr;
};

struct DseResult {
  std::vector<RankedDesign> top;  // best predicted first
  /// Next-ranked candidates after `top`; evaluate_top falls back to these
  /// (in further parallel batches) when every top design fails in HLS —
  /// mispredicted regions exist before the database-augmentation rounds
  /// of §4.4 correct them.
  std::vector<RankedDesign> reserve;
  std::uint64_t num_explored = 0;
  double search_seconds = 0.0;  // model-driven search wall-clock
  /// Per-stage timing of the sweep (SweepEngine::stats()): featurize /
  /// predict / rank milliseconds, wall time and chunk count.
  SweepStageStats stages;
  /// True when DseOptions::cancel fired: `top` holds the best designs
  /// ranked before the cancellation point.
  bool cancelled = false;
};

class ModelDse {
 public:
  ModelDse(ModelBundle models, const model::Normalizer& norm,
           model::SampleFactory& factory);

  DseResult run(const kir::Kernel& kernel, const DseOptions& opts,
                util::Rng& rng);

  /// Evaluates the top designs through the oracle (the paper runs them
  /// through Merlin in parallel: wall-clock = slowest member; the batch
  /// fan-out lives in oracle::Evaluator::evaluate_batch). Results are
  /// appended to `out_db` when provided. Returns the best fitting design
  /// and the simulated HLS seconds consumed.
  struct TopEvaluation {
    std::optional<db::DataPoint> best;
    double hls_seconds = 0.0;
    std::vector<db::DataPoint> evaluated;
  };
  TopEvaluation evaluate_top(const kir::Kernel& kernel, const DseResult& r,
                             oracle::Evaluator& oracle,
                             double util_threshold = 0.8,
                             db::Database* out_db = nullptr) const;

 private:
  ModelBundle models_;
  const model::Normalizer& norm_;
  model::SampleFactory& factory_;
};

/// AutoDSE baseline (Table 3): the bottleneck explorer against the HLS
/// oracle, with simulated synthesis wall-clock accounting, stopped once
/// that clock reaches `time_budget_seconds`.
struct AutoDseOutcome {
  hlssim::DesignConfig best;
  double best_cycles = 0.0;
  double simulated_seconds = 0.0;
  int evals = 0;
};
AutoDseOutcome run_autodse_baseline(const kir::Kernel& kernel,
                                    oracle::Evaluator& oracle,
                                    double time_budget_seconds,
                                    double util_threshold = 0.8);

}  // namespace gnndse::dse
