#include "serve/batcher.hpp"

#include <chrono>

#include "obs/metrics.hpp"
#include "util/env.hpp"

namespace gnndse::serve {

namespace {

/// featurize() indexes cfg.loops by pragma-site loop id without a bounds
/// check, so a mismatched config must be rejected before it gets there.
void check_config(const kir::Kernel& kernel,
                  const hlssim::DesignConfig& config) {
  if (config.loops.size() != kernel.loops.size())
    throw std::invalid_argument(
        "config has " + std::to_string(config.loops.size()) +
        " loops but kernel '" + kernel.name + "' has " +
        std::to_string(kernel.loops.size()));
}

/// Runs the three heads on `batch` and builds one successful response per
/// graph, stamped with the instance's version and the batch size.
std::vector<PredictResult> predict_rows(ModelInstance& instance,
                                        const gnn::GraphBatch& batch) {
  // Three distinct trainers, three distinct inference workspaces: all
  // three references stay valid through the fill loop (the same pattern
  // as SweepEngine::score_pending).
  dse::ModelBundle bundle = instance.bundle();
  const tensor::Tensor& main_pred = bundle.regression_main->predict_batch(batch);
  const tensor::Tensor& bram_pred = bundle.regression_bram->predict_batch(batch);
  const tensor::Tensor& valid_pred = bundle.classifier->predict_batch(batch);

  std::vector<PredictResult> out(static_cast<std::size_t>(batch.num_graphs));
  for (std::size_t row = 0; row < out.size(); ++row) {
    PredictResult& r = out[row];
    const auto i = static_cast<std::int64_t>(row);
    r.ok = true;
    dse::read_prediction(main_pred, bram_pred, valid_pred, i, r.predicted,
                         r.p_valid);
    r.model_version = instance.version();
    r.batch_size = static_cast<int>(out.size());
  }
  return out;
}

}  // namespace

PredictResult predict_single(ModelInstance& instance,
                             model::SampleFactory& factory,
                             const kir::Kernel& kernel,
                             const hlssim::DesignConfig& config) {
  PredictResult r;
  try {
    check_config(kernel, config);
    const gnn::GraphData graph = factory.featurize(kernel, config);
    r = std::move(predict_rows(instance, gnn::make_batch({&graph})).front());
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return r;
}

BatcherOptions BatcherOptions::from_env() {
  BatcherOptions o;
  o.max_batch = util::env_int("GNNDSE_SERVE_BATCH", o.max_batch);
  if (o.max_batch < 1) o.max_batch = 1;
  o.max_wait_us = util::env_int64("GNNDSE_SERVE_BATCH_US", o.max_wait_us);
  if (o.max_wait_us < 0) o.max_wait_us = 0;
  return o;
}

Batcher::Batcher(ModelSlot& slot, model::SampleFactory& factory,
                 const BatcherOptions& opts)
    : slot_(slot), factory_(factory), opts_(opts) {
  worker_ = std::thread([this] { worker(); });
}

Batcher::~Batcher() { stop(); }

std::future<PredictResult> Batcher::submit(kir::Kernel kernel,
                                           hlssim::DesignConfig config) {
  static obs::Gauge& g_depth = obs::gauge("serve.queue_depth");
  Item item;
  item.kernel = std::move(kernel);
  item.config = std::move(config);
  std::future<PredictResult> fut = item.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      PredictResult r;
      r.error = "serve: batcher stopped";
      item.promise.set_value(std::move(r));
      return fut;
    }
    queue_.push_back(std::move(item));
    obs::set(g_depth, static_cast<double>(queue_.size()));
  }
  cv_.notify_all();
  return fut;
}

void Batcher::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_ && !worker_.joinable()) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

void Batcher::worker() {
  static obs::Gauge& g_depth = obs::gauge("serve.queue_depth");
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stop_) return;  // stop with nothing left: drained
      continue;
    }
    // First request opens the coalescing window: linger until the batch
    // fills, the deadline passes, or shutdown starts draining.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(opts_.max_wait_us);
    cv_.wait_until(lock, deadline, [&] {
      return stop_ ||
             queue_.size() >= static_cast<std::size_t>(opts_.max_batch);
    });

    std::vector<Item> items;
    const std::size_t take =
        std::min(queue_.size(), static_cast<std::size_t>(opts_.max_batch));
    items.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      items.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    obs::set(g_depth, static_cast<double>(queue_.size()));

    lock.unlock();
    flush(items);
    lock.lock();
  }
}

void Batcher::flush(std::vector<Item>& items) {
  static obs::Histogram& h_batch = obs::histogram("serve.batch_size");
  static obs::Counter& c_batches = obs::counter("serve.batches");
  obs::observe(h_batch, static_cast<double>(items.size()));
  obs::add(c_batches);

  // Featurization errors (bad kernels surface here) fail one request, not
  // the batch around it.
  std::vector<gnn::GraphData> graphs;
  std::vector<std::size_t> live;
  graphs.reserve(items.size());
  live.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    try {
      check_config(items[i].kernel, items[i].config);
      graphs.push_back(factory_.featurize(items[i].kernel, items[i].config));
      live.push_back(i);
    } catch (const std::exception& e) {
      PredictResult r;
      r.error = e.what();
      items[i].promise.set_value(std::move(r));
    }
  }
  if (live.empty()) return;

  try {
    instance_.ensure(slot_.current());
    std::vector<const gnn::GraphData*> ptrs;
    ptrs.reserve(graphs.size());
    for (const auto& g : graphs) ptrs.push_back(&g);
    std::vector<PredictResult> results =
        predict_rows(instance_, gnn::make_batch(ptrs));
    for (std::size_t row = 0; row < live.size(); ++row)
      items[live[row]].promise.set_value(std::move(results[row]));
  } catch (const std::exception& e) {
    for (std::size_t idx : live) {
      PredictResult r;
      r.error = e.what();
      items[idx].promise.set_value(std::move(r));
    }
  }
}

}  // namespace gnndse::serve
