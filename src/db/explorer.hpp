// Database-generation explorers (paper §4.1):
//   * bottleneck-based optimizer — AutoDSE's greedy search; also serves as
//     the AutoDSE baseline for Table 3's runtime comparison,
//   * hybrid explorer — bottleneck + local search around improved designs,
//   * random explorer — uniform coverage of configurations the other two
//     skip.
// Every evaluation goes through the shared oracle::Evaluator seam (which
// owns caching and failure semantics) and is streamed to a sink so the
// caller can commit it to the shared Database (Fig 2) and account
// simulated synthesis time.
#pragma once

#include <functional>
#include <unordered_set>

#include "db/database.hpp"
#include "dspace/design_space.hpp"
#include "oracle/evaluator.hpp"
#include "util/rng.hpp"

namespace gnndse::db {

/// Scalar objective used by the explorers: cycles when the design is valid
/// and fits; a soft penalty when valid but over-utilized; +inf when
/// invalid.
double fitness(const hlssim::HlsResult& r, double util_threshold = 0.8);

/// Called for each HLS evaluation an explorer performs.
using EvalSink = std::function<void(const DataPoint&)>;

struct ExplorerOptions {
  int max_evals = 200;
  double util_threshold = 0.8;
  /// Hybrid explorer: local-search trigger (fractional improvement) and
  /// neighbor budget per trigger.
  double local_search_trigger = 0.10;
  int local_search_neighbors = 8;
  /// Bottleneck explorer: stop between candidate batches once this pass's
  /// simulated synthesis clock reaches this many seconds (<= 0: no budget).
  double time_budget_seconds = 0.0;
};

class Explorer {
 public:
  Explorer(const kir::Kernel& kernel, const dspace::DesignSpace& space,
           oracle::Evaluator& oracle);

  /// AutoDSE-style greedy sweeps over the priority-ordered pragma sites.
  /// Returns the best configuration found. `simulated_seconds`, when
  /// non-null, accumulates the synthesis wall-clock the HLS tool would
  /// have consumed (each site's candidates synthesize as one parallel
  /// batch, so a batch costs its slowest member).
  hlssim::DesignConfig run_bottleneck(const ExplorerOptions& opts,
                                      const EvalSink& sink,
                                      double* simulated_seconds = nullptr);

  /// Bottleneck plus local search around each significantly-improved best.
  hlssim::DesignConfig run_hybrid(const ExplorerOptions& opts,
                                  const EvalSink& sink, util::Rng& rng);

  /// Uniform random sampling of non-pruned configurations.
  void run_random(int num_samples, const EvalSink& sink, util::Rng& rng);

  /// Evaluates one configuration through the oracle and reports it to the
  /// sink. Result memoization is the oracle's job; the explorer only
  /// tracks which configs *this run* already visited, so budgets and sink
  /// dedup behave identically whether the oracle's cache is cold or warm.
  hlssim::HlsResult evaluate(const hlssim::DesignConfig& cfg,
                             const EvalSink& sink);

  int evals_used() const { return evals_; }

 private:
  bool visited(const hlssim::DesignConfig& cfg) const {
    return visited_.count(cfg.key()) > 0;
  }

  const kir::Kernel& kernel_;
  const dspace::DesignSpace& space_;
  oracle::Evaluator& oracle_;
  std::unordered_set<std::string> visited_;  // config keys seen this run
  int evals_ = 0;
};

/// The paper's per-kernel initial-database sizes (Table 1) used as default
/// exploration budgets.
int default_budget(const std::string& kernel_name);

/// Builds the initial database for a set of kernels: bottleneck + hybrid +
/// random explorers share a per-kernel budget (§4.1). All evaluations flow
/// through `oracle`; with a warm persistent cache a repeat run rebuilds
/// the same database without a single fresh hlssim evaluation.
Database generate_initial_database(
    const std::vector<kir::Kernel>& kernels, oracle::Evaluator& oracle,
    util::Rng& rng,
    const std::function<int(const std::string&)>& budget = default_budget);

}  // namespace gnndse::db
