#include "dse/sweep_engine.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"

namespace gnndse::dse {

using hlssim::DesignConfig;

double ranking_score(const RankedDesign& d, double util_threshold) {
  double score = d.predicted[model::kLatency];
  if (d.p_valid < 0.5f) score -= 100.0;
  const double worst_util =
      std::max({d.predicted[model::kDsp], d.predicted[model::kLut],
                d.predicted[model::kFf], d.predicted[model::kBram]});
  if (worst_util >= util_threshold)
    score -= 10.0 * (worst_util - util_threshold + 0.1);
  return score;
}

void read_prediction(const tensor::Tensor& main, const tensor::Tensor& bram,
                     const tensor::Tensor& valid, std::int64_t row,
                     std::array<float, model::kNumObjectives>& predicted,
                     float& p_valid) {
  predicted[model::kLatency] = main.at(row, 0);
  predicted[model::kDsp] = main.at(row, 1);
  predicted[model::kLut] = main.at(row, 2);
  predicted[model::kFf] = main.at(row, 3);
  predicted[model::kBram] = bram.at(row, 0);
  const float x = valid.at(row, 0);
  p_valid = x >= 0 ? 1.0f / (1.0f + std::exp(-x))
                   : std::exp(x) / (1.0f + std::exp(x));
}

SweepEngine::SweepEngine(const ModelBundle& models,
                         model::SampleFactory& factory,
                         const kir::Kernel& kernel,
                         const SweepEngineOptions& opts)
    : models_(models), factory_(factory), kernel_(kernel), opts_(opts) {
  if (opts_.chunk < 1)
    throw std::invalid_argument("SweepEngine: chunk must be >= 1");
  if (opts_.keep == 0)
    throw std::invalid_argument("SweepEngine: keep must be >= 1");
  pending_.reserve(static_cast<std::size_t>(opts_.chunk));
}

void SweepEngine::push(DesignConfig&& cfg) {
  pending_.push_back(std::move(cfg));
  if (pending_.size() >= static_cast<std::size_t>(opts_.chunk))
    score_pending();
}

void SweepEngine::score_pending() {
  static obs::Histogram& h_feat = obs::histogram("dse.featurize_chunk_ms");
  static obs::Histogram& h_pred = obs::histogram("dse.predict_chunk_ms");
  static obs::Histogram& h_rank = obs::histogram("dse.frontier_keep_ms");
  static obs::Counter& c_pruned = obs::counter("dse.pruned_by_classifier");
  static obs::Counter& c_explored = obs::counter("dse.configs_explored");
  static obs::Gauge& g_elapsed = obs::gauge("dse.search_elapsed_seconds");
  static obs::Gauge& g_frontier = obs::gauge("dse.frontier_size");
  static obs::Gauge& g_rate = obs::gauge("dse.sweep_configs_per_sec");

  if (pending_.empty()) return;
  if (cancelled()) {
    pending_.clear();
    return;
  }

  util::Timer feat_timer;
  const gnn::GraphBatch& batch = factory_.batch_for(kernel_, pending_);
  const double feat_ms = feat_timer.millis();
  obs::observe(h_feat, feat_ms);
  stats_.featurize_ms += feat_ms;

  // The three heads fan out as pool tasks; with one lane they run inline,
  // in order. Each output lives in its own trainer's workspace.
  util::Timer pred_timer;
  const std::array<model::Trainer*, 3> heads{
      models_.regression_main, models_.regression_bram, models_.classifier};
  std::array<const tensor::Tensor*, 3> outs{};
  model::predict_batch_concurrent(heads, batch, outs);
  const double pred_ms = pred_timer.millis();
  obs::observe(h_pred, pred_ms);
  stats_.predict_ms += pred_ms;

  util::Timer rank_timer;
  std::int64_t pruned = 0;
  frontier_.reserve(frontier_.size() + pending_.size());
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    Scored sc;
    sc.d.config = std::move(pending_[i]);
    read_prediction(*outs[0], *outs[1], *outs[2], static_cast<std::int64_t>(i),
                    sc.d.predicted, sc.d.p_valid);
    if (sc.d.p_valid < 0.5f) ++pruned;
    sc.score = ranking_score(sc.d, opts_.util_threshold);
    sc.seq = num_scored_ + i;
    frontier_.push_back(std::move(sc));
  }
  keep_top();
  const double rank_ms = rank_timer.millis();
  obs::observe(h_rank, rank_ms);
  stats_.rank_ms += rank_ms;

  const std::size_t n = pending_.size();
  pending_.clear();
  num_scored_ += n;
  ++stats_.chunks;
  obs::add(c_pruned, pruned);
  obs::add(c_explored, static_cast<std::int64_t>(n));
  const double wall_s = timer_.seconds();
  const double rate =
      wall_s > 0 ? static_cast<double>(num_scored_) / wall_s : 0.0;
  obs::set(g_elapsed, wall_s);
  obs::set(g_frontier, static_cast<double>(frontier_.size()));
  if (wall_s > 0) obs::set(g_rate, rate);
  if (SweepProgress* p = opts_.progress) {
    p->configs_explored.store(num_scored_, std::memory_order_relaxed);
    p->frontier.store(frontier_.size(), std::memory_order_relaxed);
    p->elapsed_seconds.store(wall_s, std::memory_order_relaxed);
    p->configs_per_sec.store(rate, std::memory_order_relaxed);
  }
}

void SweepEngine::keep_top() {
  if (frontier_.size() <= opts_.keep) return;
  // Bounded frontier: a design outside the best `keep` so far can never
  // re-enter the final top `keep`, so truncating per chunk is exact.
  // Average O(n) nth_element instead of a full sort per chunk.
  const auto kth =
      frontier_.begin() + static_cast<std::ptrdiff_t>(opts_.keep);
  std::nth_element(frontier_.begin(), kth, frontier_.end(),
                   [&](const Scored& a, const Scored& b) {
                     return better(a, b);
                   });
  frontier_.resize(opts_.keep);
}

std::vector<DesignConfig> SweepEngine::top_configs(std::size_t n) {
  score_pending();
  std::vector<std::size_t> idx(frontier_.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  const std::size_t k = std::min(n, idx.size());
  std::partial_sort(idx.begin(),
                    idx.begin() + static_cast<std::ptrdiff_t>(k), idx.end(),
                    [&](std::size_t a, std::size_t b) {
                      return better(frontier_[a], frontier_[b]);
                    });
  std::vector<DesignConfig> out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i)
    out.push_back(frontier_[idx[i]].d.config);
  return out;
}

std::vector<RankedDesign> SweepEngine::finish() {
  score_pending();
  std::sort(frontier_.begin(), frontier_.end(),
            [&](const Scored& a, const Scored& b) { return better(a, b); });
  stats_.wall_ms = timer_.millis();
  std::vector<RankedDesign> out;
  out.reserve(frontier_.size());
  for (Scored& sc : frontier_) out.push_back(std::move(sc.d));
  frontier_.clear();
  return out;
}

}  // namespace gnndse::dse
