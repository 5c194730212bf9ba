#include "db/explorer.hpp"

#include <algorithm>
#include <limits>

namespace gnndse::db {

using hlssim::DesignConfig;
using hlssim::HlsResult;

double fitness(const HlsResult& r, double util_threshold) {
  if (!r.valid) return std::numeric_limits<double>::infinity();
  const double worst_util = std::max(
      {r.util_dsp, r.util_bram, r.util_lut, r.util_ff});
  if (worst_util < util_threshold) return r.cycles;
  // Valid but over budget: usable as training data, a poor DSE outcome.
  return r.cycles * (1.0 + 10.0 * (worst_util - util_threshold));
}

Explorer::Explorer(const kir::Kernel& kernel, const dspace::DesignSpace& space,
                   oracle::Evaluator& oracle)
    : kernel_(kernel), space_(space), oracle_(oracle) {}

HlsResult Explorer::evaluate(const DesignConfig& cfg, const EvalSink& sink) {
  HlsResult r = oracle_.evaluate(kernel_, cfg);
  if (visited_.insert(cfg.key()).second) {
    ++evals_;
    if (sink) sink(DataPoint{kernel_.name, cfg, r});
  }
  return r;
}

namespace {

/// All options of one site applied to a base configuration.
std::vector<DesignConfig> site_variants(const dspace::DesignSpace& space,
                                        int site_idx,
                                        const DesignConfig& base) {
  const auto& site = space.sites()[static_cast<std::size_t>(site_idx)];
  std::vector<DesignConfig> out;
  for (std::int64_t opt : site.options) {
    DesignConfig c = base;
    dspace::apply_site(site, opt, c);
    if (!space.is_pruned(c)) out.push_back(std::move(c));
  }
  return out;
}

}  // namespace

DesignConfig Explorer::run_bottleneck(const ExplorerOptions& opts,
                                      const EvalSink& sink,
                                      double* simulated_seconds) {
  const std::vector<int> order = dspace::priority_ordered_sites(space_);
  DesignConfig best = DesignConfig::neutral(kernel_);
  HlsResult best_r = evaluate(best, sink);
  double clock = best_r.synth_seconds;
  double best_fit = fitness(best_r, opts.util_threshold);

  const int start_evals = evals_;
  auto out_of_budget = [&] {
    return evals_ - start_evals >= opts.max_evals ||
           (opts.time_budget_seconds > 0 && clock >= opts.time_budget_seconds);
  };
  bool improved = true;
  while (improved && !out_of_budget()) {
    improved = false;
    for (int site : order) {
      if (out_of_budget()) break;
      // AutoDSE evaluates the candidate batch for the current bottleneck
      // pragma in parallel: simulated time advances by the slowest member.
      double batch_max_seconds = 0.0;
      DesignConfig round_best = best;
      double round_fit = best_fit;
      for (const DesignConfig& cand : site_variants(space_, site, best)) {
        if (visited(cand)) continue;
        if (evals_ - start_evals >= opts.max_evals) break;
        HlsResult r = evaluate(cand, sink);
        batch_max_seconds = std::max(batch_max_seconds, r.synth_seconds);
        const double f = fitness(r, opts.util_threshold);
        if (f < round_fit) {
          round_fit = f;
          round_best = cand;
        }
      }
      clock += batch_max_seconds;
      if (round_fit < best_fit) {
        best_fit = round_fit;
        best = round_best;
        improved = true;
      }
    }
  }
  if (simulated_seconds) *simulated_seconds += clock;
  return best;
}

DesignConfig Explorer::run_hybrid(const ExplorerOptions& opts,
                                  const EvalSink& sink, util::Rng& rng) {
  const std::vector<int> order = dspace::priority_ordered_sites(space_);
  DesignConfig best = DesignConfig::neutral(kernel_);
  double best_fit =
      fitness(evaluate(best, sink), opts.util_threshold);

  const int start_evals = evals_;
  bool improved = true;
  while (improved && evals_ - start_evals < opts.max_evals) {
    improved = false;
    for (int site : order) {
      if (evals_ - start_evals >= opts.max_evals) break;
      DesignConfig round_best = best;
      double round_fit = best_fit;
      for (const DesignConfig& cand : site_variants(space_, site, best)) {
        if (visited(cand)) continue;
        if (evals_ - start_evals >= opts.max_evals) break;
        const double f = fitness(evaluate(cand, sink), opts.util_threshold);
        if (f < round_fit) {
          round_fit = f;
          round_best = cand;
        }
      }
      const bool significant =
          round_fit < best_fit * (1.0 - opts.local_search_trigger);
      if (round_fit < best_fit) {
        best_fit = round_fit;
        best = round_best;
        improved = true;
      }
      if (significant) {
        // Local search: single-pragma neighbors of the improved design so
        // the model sees the effect of changing one pragma (§4.1).
        auto neighbors = space_.neighbors(best);
        rng.shuffle(neighbors);
        int budget = opts.local_search_neighbors;
        for (const auto& nb : neighbors) {
          if (budget-- <= 0 || evals_ - start_evals >= opts.max_evals) break;
          if (visited(nb)) continue;
          const double f = fitness(evaluate(nb, sink), opts.util_threshold);
          if (f < best_fit) {
            best_fit = f;
            best = nb;
            improved = true;
          }
        }
      }
    }
  }
  return best;
}

void Explorer::run_random(int num_samples, const EvalSink& sink,
                          util::Rng& rng) {
  for (int i = 0; i < num_samples; ++i) {
    DesignConfig cfg = space_.sample(rng);
    if (visited(cfg)) continue;
    evaluate(cfg, sink);
  }
}

int default_budget(const std::string& kernel_name) {
  // Table 1 initial-database sizes.
  if (kernel_name == "aes") return 15;
  if (kernel_name == "atax") return 605;
  if (kernel_name == "gemm-blocked") return 616;
  if (kernel_name == "gemm-ncubed") return 432;
  if (kernel_name == "mvt") return 571;
  if (kernel_name == "spmv-crs") return 98;
  if (kernel_name == "spmv-ellpack") return 114;
  if (kernel_name == "stencil") return 1066;
  if (kernel_name == "nw") return 911;
  return 400;
}

Database generate_initial_database(
    const std::vector<kir::Kernel>& kernels, oracle::Evaluator& oracle,
    util::Rng& rng, const std::function<int(const std::string&)>& budget) {
  Database db;
  for (const auto& kernel : kernels) {
    dspace::DesignSpace space(kernel);
    Explorer ex(kernel, space, oracle);
    auto sink = [&db](const DataPoint& p) { db.add(p); };

    const int total = budget(kernel.name);
    // Budget split: 35% bottleneck, 25% hybrid, the rest random.
    ExplorerOptions bopts;
    bopts.max_evals = std::max(1, total * 35 / 100);
    ex.run_bottleneck(bopts, sink);
    ExplorerOptions hopts;
    hopts.max_evals = std::max(1, total * 25 / 100);
    ex.run_hybrid(hopts, sink, rng);
    int remaining = total - ex.evals_used();
    // Random sampling may hit duplicates; cap the attempts.
    int attempts = 0;
    while (ex.evals_used() < total &&
           attempts < 20 * std::max(1, remaining)) {
      ex.run_random(1, sink, rng);
      ++attempts;
    }
  }
  return db;
}

}  // namespace gnndse::db
