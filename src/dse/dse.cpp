#include "dse/dse.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace gnndse::dse {

using hlssim::DesignConfig;
using model::kNumObjectives;

ModelDse::ModelDse(ModelBundle models, const model::Normalizer& norm,
                   model::SampleFactory& factory)
    : models_(models), norm_(norm), factory_(factory) {}


DseResult ModelDse::run(const kir::Kernel& kernel, const DseOptions& opts,
                        util::Rng& rng) {
  static obs::Counter& c_beam = obs::counter("dse.beam_expansions");
  static obs::Counter& c_random = obs::counter("dse.random_samples");
  // Progress gauges feed the heartbeat stream's eta_seconds rate (the
  // engine keeps dse.search_elapsed_seconds / dse.frontier_size /
  // dse.configs_explored current per chunk).
  static obs::Gauge& g_limit = obs::gauge("dse.time_limit_seconds");
  static obs::Gauge& g_elapsed = obs::gauge("dse.search_elapsed_seconds");
  // The span's internal stopwatch doubles as the search time limit (the
  // old bare util::Timer), so timing works whether or not obs records.
  obs::ScopedSpan timer("dse.search");
  obs::set(g_limit, opts.time_limit_seconds);
  obs::set(g_elapsed, 0.0);
  const dspace::DesignSpace& space = factory_.space(kernel);
  DseResult result;

  // Checked between chunks: cancellation is cooperative, so one in-flight
  // chunk finishes scoring before the run winds down.
  auto cancelled = [&] {
    return opts.cancel && opts.cancel->load(std::memory_order_relaxed);
  };

  SweepEngineOptions eng_opts;
  eng_opts.chunk = opts.chunk;
  eng_opts.keep = static_cast<std::size_t>(
      std::max(opts.top_m, opts.beam_width)) * 4;
  eng_opts.util_threshold = opts.util_threshold;
  eng_opts.cancel = opts.cancel;
  eng_opts.progress = opts.progress;
  SweepEngine engine(models_, factory_, kernel, eng_opts);

  std::uint64_t pushed = 0;
  auto budget_left = [&] {
    return opts.max_configs == 0 || pushed < opts.max_configs;
  };

  if (space.pruned_size() <= opts.max_exhaustive) {
    // Exhaustive sweep: enumeration streams straight into the engine and
    // stops the moment the run is cancelled or the budget is spent — no
    // decode work for configs that would only be dropped.
    space.for_each([&](DesignConfig&& cfg) {
      if (cancelled() || !budget_left()) return false;
      ++pushed;
      engine.push(std::move(cfg));
      return true;
    });
  } else {
    // Heuristic search (§4.4): beam sweep over the priority-ordered sites.
    std::vector<int> order;
    if (opts.use_priority_order) {
      order = dspace::priority_ordered_sites(space);
    } else {
      order.resize(space.sites().size());
      for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = static_cast<int>(i);
    }
    std::vector<DesignConfig> beam{DesignConfig::neutral(kernel)};
    db::Database seen;  // dedupe explored configs
    bool stopped = false;
    for (int site_idx : order) {
      if (timer.seconds() > opts.time_limit_seconds || cancelled() ||
          !budget_left()) {
        stopped = true;
        break;
      }
      const auto& site = space.sites()[static_cast<std::size_t>(site_idx)];
      obs::add(c_beam);
      for (const DesignConfig& base : beam) {
        for (std::int64_t opt : site.options) {
          if (!budget_left()) break;
          DesignConfig cfg = base;
          dspace::apply_site(site, opt, cfg);
          if (space.is_pruned(cfg)) continue;
          if (seen.contains(kernel.name, cfg)) continue;
          seen.add(db::DataPoint{kernel.name, cfg, {}});
          ++pushed;
          engine.push(std::move(cfg));
        }
        if (!budget_left()) break;
      }
      // Refresh the beam from the current leaders (scores the partial
      // chunk first — the next site's expansions depend on these ranks).
      beam = engine.top_configs(static_cast<std::size_t>(opts.beam_width));
      if (beam.empty()) beam.push_back(DesignConfig::neutral(kernel));
    }
    // Spend any remaining budget on random exploration.
    while (!stopped && timer.seconds() < opts.time_limit_seconds &&
           !cancelled() && budget_left()) {
      std::int64_t fresh = 0;
      for (int i = 0; i < opts.chunk && budget_left(); ++i) {
        DesignConfig cfg = space.sample(rng);
        if (seen.contains(kernel.name, cfg)) continue;
        seen.add(db::DataPoint{kernel.name, cfg, {}});
        ++pushed;
        ++fresh;
        engine.push(std::move(cfg));
      }
      if (fresh == 0) break;
      obs::add(c_random, fresh);
    }
  }

  std::vector<RankedDesign> ranked = engine.finish();
  result.num_explored = engine.num_scored();
  result.stages = engine.stats();
  const auto m = static_cast<std::size_t>(opts.top_m);
  if (ranked.size() > m) {
    result.reserve.assign(ranked.begin() + static_cast<std::ptrdiff_t>(m),
                          ranked.end());
    ranked.resize(m);
  }
  result.top = std::move(ranked);
  result.search_seconds = timer.seconds();
  result.cancelled = cancelled();
  timer.add("configs_explored", static_cast<double>(result.num_explored));
  return result;
}

ModelDse::TopEvaluation ModelDse::evaluate_top(const kir::Kernel& kernel,
                                               const DseResult& r,
                                               oracle::Evaluator& oracle,
                                               double util_threshold,
                                               db::Database* out_db) const {
  static obs::Counter& c_eval = obs::counter("dse.top_designs_evaluated");
  obs::ScopedSpan span("hls.evaluate_top");
  TopEvaluation ev;
  double best_fit = std::numeric_limits<double>::infinity();
  auto run_batch = [&](const std::vector<RankedDesign>& batch) {
    // The oracle fans the batch out the way GNN-DSE hands its top-10 to
    // parallel Merlin instances; simulated wall-clock is the slowest
    // member. Results come back in rank order and the fold below is
    // serial, so the chosen best is independent of thread count.
    std::vector<hlssim::DesignConfig> configs;
    configs.reserve(batch.size());
    for (const RankedDesign& d : batch) configs.push_back(d.config);
    std::vector<hlssim::HlsResult> results =
        oracle.evaluate_batch(kernel, configs);
    double batch_max = 0.0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      db::DataPoint p{kernel.name, configs[i], std::move(results[i])};
      batch_max = std::max(batch_max, p.result.synth_seconds);
      if (out_db) out_db->add(p);
      const double f = db::fitness(p.result, util_threshold);
      if (f < best_fit) {
        best_fit = f;
        ev.best = p;
      }
      ev.evaluated.push_back(std::move(p));
    }
    ev.hls_seconds += batch_max;
  };
  run_batch(r.top);
  // Fallback: the whole batch failed in HLS (the model mispredicted this
  // region) — walk further down the ranking, one batch at a time.
  std::size_t next = 0;
  while (!ev.best && next < r.reserve.size()) {
    const std::size_t end = std::min(r.reserve.size(), next + r.top.size());
    run_batch(std::vector<RankedDesign>(
        r.reserve.begin() + static_cast<std::ptrdiff_t>(next),
        r.reserve.begin() + static_cast<std::ptrdiff_t>(end)));
    next = end;
  }
  obs::add(c_eval, static_cast<std::int64_t>(ev.evaluated.size()));
  span.add("designs", static_cast<double>(ev.evaluated.size()));
  span.add("simulated_hls_seconds", ev.hls_seconds);
  return ev;
}

AutoDseOutcome run_autodse_baseline(const kir::Kernel& kernel,
                                    oracle::Evaluator& oracle,
                                    double time_budget_seconds,
                                    double util_threshold) {
  obs::ScopedSpan span("dse.autodse_baseline");
  dspace::DesignSpace space(kernel);
  db::Explorer explorer(kernel, space, oracle);
  AutoDseOutcome out;
  out.best = DesignConfig::neutral(kernel);
  double best_fit = std::numeric_limits<double>::infinity();

  db::ExplorerOptions opts;
  opts.util_threshold = util_threshold;
  opts.max_evals = 100000;  // no eval cap: the time budget stops the pass
  opts.time_budget_seconds = time_budget_seconds;
  double simulated = 0.0;
  auto sink = [&](const db::DataPoint& p) {
    ++out.evals;
    const double f = db::fitness(p.result, util_threshold);
    if (f < best_fit) {
      best_fit = f;
      out.best = p.config;
      out.best_cycles = p.result.cycles;
    }
  };
  // One bottleneck pass until it converges or its batch-parallel
  // synthesis clock reaches the budget (AutoDSE's 21 h cap in §5.4). The
  // batch in flight at the budget still completes; the reported time is
  // capped at the budget.
  if (time_budget_seconds > 0) explorer.run_bottleneck(opts, sink, &simulated);
  out.simulated_seconds = std::min(simulated, time_budget_seconds);
  return out;
}

}  // namespace gnndse::dse
