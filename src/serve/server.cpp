#include "serve/server.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "oracle/stack.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace gnndse::serve {

namespace {

std::string format_predict(std::int64_t id, const PredictResult& r) {
  if (!r.ok) return error_line(id, r.error);
  std::string out = ok_head(id);
  out += ",\"kind\":\"predict\",";
  out += predicted_fields(r.predicted, r.p_valid);
  out += ",\"model_version\":" + std::to_string(r.model_version);
  out += ",\"batch_size\":" + std::to_string(r.batch_size);
  out += "}";
  return out;
}

}  // namespace

Server::Server(ModelSlot& slot, model::SampleFactory& factory,
               const ServerOptions& opts)
    : slot_(slot),
      factory_(factory),
      opts_(opts),
      listener_(opts.port),
      batcher_(slot, factory, opts.batcher) {
  // Polling and stats read the metrics registry; a daemon with telemetry
  // off would answer every poll with zeros.
  obs::set_enabled(true);
}

Server::~Server() {
  // run() normally joins everything; this covers a Server that was never
  // run (or whose run() threw).
  request_drain();
  std::vector<std::shared_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& c : conns) {
    c->sock.shutdown_both();
    if (c->reader.joinable()) c->reader.join();
    if (c->writer.joinable()) c->writer.join();
  }
  std::lock_guard<std::mutex> jlock(jobs_mu_);
  for (auto& [id, job] : jobs_) {
    job->cancel.store(true);
    if (job->thread.joinable()) job->thread.join();
  }
}

void Server::run() {
  util::log_info("serve: listening on 127.0.0.1:", port());
  while (true) {
    Socket client = listener_.accept();
    if (!client.valid()) break;  // drained or listener error
    if (draining_.load()) break;
    auto conn = std::make_shared<Conn>();
    conn->sock = std::move(client);
    conn->reader = std::thread([this, conn] { reader_loop(conn); });
    conn->writer = std::thread([this, conn] { writer_loop(conn); });
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(conn);
    }
    reap_finished_conns();
  }

  // Drain order: flush the batcher first so writers blocked on predict
  // futures resolve (late predicts fail with "batcher stopped"), then
  // join connections (no new requests after that), then cancel and join
  // whatever sweeps remain — drain is a shutdown, not a checkpoint.
  batcher_.stop();
  // Joins happen OUTSIDE conns_mu_: a reader thread handling an admin
  // drain is itself inside request_drain() waiting for this mutex, so
  // joining it while holding the lock would deadlock. The listener is
  // already down, so nothing appends to conns_ after the swap.
  std::vector<std::shared_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& c : conns) c->sock.shutdown_read();
  for (auto& c : conns) {
    if (c->reader.joinable()) c->reader.join();
    if (c->writer.joinable()) c->writer.join();
  }
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    for (auto& [id, job] : jobs_) job->cancel.store(true);
    for (auto& [id, job] : jobs_)
      if (job->thread.joinable()) job->thread.join();
  }
  util::log_info("serve: drained");
}

void Server::request_drain() {
  draining_.store(true);
  listener_.shutdown();
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto& c : conns_) c->sock.shutdown_read();
}

void Server::reap_finished_conns() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  auto it = conns_.begin();
  while (it != conns_.end()) {
    Conn& c = **it;
    if (c.reader_done.load() && c.writer_done.load()) {
      if (c.reader.joinable()) c.reader.join();
      if (c.writer.joinable()) c.writer.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::reader_loop(const std::shared_ptr<Conn>& conn) {
  LineReader lines(conn->sock);
  std::string line;
  while (!draining_.load() && lines.read_line(&line)) {
    if (line.empty()) continue;
    handle_line(line, *conn);
  }
  // An oversize line cannot be framed safely: answer once, then close (the
  // writer flushes the outbox and shuts the socket down).
  if (lines.too_long())
    push_text(*conn, error_line(-1, "request line exceeds " +
                                        std::to_string(kMaxLineBytes) +
                                        " bytes; closing connection"));
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->closed = true;
  }
  conn->cv.notify_all();
  conn->reader_done.store(true);
}

void Server::writer_loop(const std::shared_ptr<Conn>& conn) {
  while (true) {
    Conn::Out entry;
    {
      std::unique_lock<std::mutex> lock(conn->mu);
      conn->cv.wait(lock,
                    [&] { return conn->closed || !conn->outbox.empty(); });
      if (conn->outbox.empty()) break;  // closed + drained
      entry = std::move(conn->outbox.front());
      conn->outbox.pop_front();
    }
    const std::string resp = entry.is_future
                                 ? format_predict(entry.id, entry.fut.get())
                                 : std::move(entry.text);
    if (!conn->sock.send_line(resp)) break;
  }
  // Peer is gone (or intake closed): make sure the reader unblocks too.
  conn->sock.shutdown_both();
  conn->writer_done.store(true);
}

void Server::push_text(Conn& conn, std::string text) {
  {
    std::lock_guard<std::mutex> lock(conn.mu);
    Conn::Out out;
    out.text = std::move(text);
    conn.outbox.push_back(std::move(out));
  }
  conn.cv.notify_all();
}

void Server::handle_line(const std::string& line, Conn& conn) {
  static obs::Counter& c_requests = obs::counter("serve.requests");
  obs::add(c_requests);

  Request req;
  try {
    req = parse_request(line);
  } catch (const std::exception& e) {
    push_text(conn, error_line(-1, e.what()));
    return;
  }

  try {
    switch (req.kind) {
      case Request::Kind::kPredict: {
        // The reader never waits on inference: it enqueues the future and
        // keeps parsing, so pipelined predicts pile into the batcher's
        // coalescing window.
        Conn::Out out;
        out.is_future = true;
        out.id = req.id;
        out.fut =
            batcher_.submit(std::move(req.kernel), std::move(req.config));
        {
          std::lock_guard<std::mutex> lock(conn.mu);
          conn.outbox.push_back(std::move(out));
        }
        conn.cv.notify_all();
        return;
      }
      case Request::Kind::kSweep:
        push_text(conn, handle_sweep(req));
        return;
      case Request::Kind::kPoll:
        push_text(conn, handle_poll(req));
        return;
      case Request::Kind::kCancel:
        push_text(conn, handle_cancel(req));
        return;
      case Request::Kind::kAdmin:
        push_text(conn, handle_admin(req));
        return;
    }
  } catch (const std::exception& e) {
    push_text(conn, error_line(req.id, e.what()));
  }
}

void Server::reap_finished_jobs() {
  std::lock_guard<std::mutex> lock(jobs_mu_);
  std::vector<std::shared_ptr<SweepJob>> finished;
  for (const auto& [id, job] : jobs_)
    if (job->done.load(std::memory_order_acquire)) finished.push_back(job);
  if (finished.size() <= kMaxFinishedJobs) return;
  std::sort(finished.begin(), finished.end(),
            [](const auto& a, const auto& b) { return a->seq < b->seq; });
  finished.resize(finished.size() - kMaxFinishedJobs);
  // `done` is the job thread's last store, so these joins return at once.
  for (const auto& job : finished) {
    job->thread.join();
    jobs_.erase(job->job_id);
  }
}

std::string Server::handle_sweep(Request& req) {
  reap_finished_jobs();
  auto job = std::make_shared<SweepJob>();
  const std::int64_t id = req.id;
  {
    // The thread starts under the lock, so a concurrent reaper never sees
    // the job before its thread handle is set.
    std::lock_guard<std::mutex> lock(jobs_mu_);
    job->seq = next_job_++;
    job->job_id = "job-" + std::to_string(job->seq);
    jobs_[job->job_id] = job;
    job->thread = std::thread([this, job, r = std::move(req)]() mutable {
      run_sweep_job(job, std::move(r));
    });
  }
  obs::add(obs::counter("serve.sweeps"));
  const std::string job_id = job->job_id;
  return ok_head(id) + ",\"kind\":\"sweep\",\"job\":" + json_quote(job_id) +
         "}";
}

void Server::run_sweep_job(const std::shared_ptr<SweepJob>& job,
                           Request req) {
  try {
    // Private instance + factory: ModelDse drives batch_for (a
    // single-consumer path) and trainers are never shareable, so nothing
    // here touches the batcher's state.
    ModelInstance instance;
    instance.ensure(slot_.current());
    job->model_version = instance.version();
    model::SampleFactory factory;
    dse::ModelDse dse(instance.bundle(), instance.normalizer(), factory);

    dse::DseOptions dopts;
    dopts.time_limit_seconds =
        req.time_limit > 0 ? req.time_limit : opts_.sweep_time_limit;
    dopts.top_m = req.top_m > 0 ? req.top_m : opts_.top_m;
    dopts.util_threshold = opts_.util_threshold;
    dopts.cancel = &job->cancel;
    util::Rng rng(opts_.seed);
    dse::DseResult result = dse.run(req.kernel, dopts, rng);

    if (req.evaluate && !result.cancelled) {
      oracle::OracleOptions oo = oracle::OracleOptions::from_env();
      oo.cache_path = cache_path_for(req.client);
      oracle::OracleStack oracle(oo);
      auto top = dse.evaluate_top(req.kernel, result, oracle,
                                  dopts.util_threshold);
      job->evaluated = true;
      if (top.best) {
        job->eval_best_found = true;
        job->eval_best_config = top.best->config.key();
        job->eval_best_cycles = top.best->result.cycles;
      }
    }
    job->result = std::move(result);
  } catch (const std::exception& e) {
    job->error = e.what();
  }
  job->done.store(true, std::memory_order_release);
}

std::string Server::handle_poll(const Request& req) {
  std::shared_ptr<SweepJob> job;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    auto it = jobs_.find(req.job);
    if (it != jobs_.end()) job = it->second;
  }
  if (!job) return error_line(req.id, "unknown job '" + req.job + "'");

  std::string out = ok_head(req.id) + ",\"kind\":\"poll\",\"job\":" +
                    json_quote(job->job_id);
  if (!job->done.load(std::memory_order_acquire)) {
    // Progress comes from the dse.* heartbeat gauges the search updates
    // between chunks — the same substrate `--heartbeat` streams.
    out += ",\"state\":\"running\"";
    out += ",\"elapsed\":" +
           double_str(obs::gauge("dse.search_elapsed_seconds").value());
    out += ",\"time_limit\":" +
           double_str(obs::gauge("dse.time_limit_seconds").value());
    out += ",\"configs_explored\":" +
           std::to_string(obs::counter("dse.configs_explored").value());
    out += ",\"frontier\":" +
           double_str(obs::gauge("dse.frontier_size").value());
    out += ",\"configs_per_sec\":" +
           double_str(obs::gauge("dse.sweep_configs_per_sec").value());
    out += "}";
    return out;
  }

  if (!job->error.empty())
    return error_line(req.id, "job " + job->job_id + ": " + job->error);

  const dse::DseResult& r = job->result;
  out += ",\"state\":";
  out += r.cancelled ? "\"cancelled\"" : "\"done\"";
  out += ",\"model_version\":" + std::to_string(job->model_version);
  out += ",\"num_explored\":" + std::to_string(r.num_explored);
  out += ",\"search_seconds\":" + double_str(r.search_seconds);
  out += ",\"stages\":{\"featurize_ms\":" + double_str(r.stages.featurize_ms) +
         ",\"predict_ms\":" + double_str(r.stages.predict_ms) +
         ",\"rank_ms\":" + double_str(r.stages.rank_ms) +
         ",\"wall_ms\":" + double_str(r.stages.wall_ms) + "}";
  out += ",\"top\":[";
  for (std::size_t i = 0; i < r.top.size(); ++i) {
    if (i) out += ",";
    out += "{\"config\":" + json_quote(r.top[i].config.key()) + ",";
    out += predicted_fields(r.top[i].predicted, r.top[i].p_valid);
    out += "}";
  }
  out += "]";
  if (job->evaluated) {
    out += ",\"evaluated\":true";
    if (job->eval_best_found) {
      out += ",\"best_config\":" + json_quote(job->eval_best_config);
      out += ",\"best_cycles\":" + double_str(job->eval_best_cycles);
    }
  }
  out += "}";
  return out;
}

std::string Server::handle_cancel(const Request& req) {
  std::shared_ptr<SweepJob> job;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    auto it = jobs_.find(req.job);
    if (it != jobs_.end()) job = it->second;
  }
  if (!job) return error_line(req.id, "unknown job '" + req.job + "'");
  job->cancel.store(true);
  obs::add(obs::counter("serve.cancels"));
  return ok_head(req.id) + ",\"kind\":\"cancel\",\"job\":" +
         json_quote(job->job_id) + "}";
}

std::string Server::handle_admin(const Request& req) {
  if (req.op == "reload-model") {
    const std::string prefix =
        req.weights.empty() ? opts_.weights_prefix : req.weights;
    if (prefix.empty())
      return error_line(req.id,
                        "reload-model: no weights prefix (request "
                        "\"weights\" or server --weights)");
    SnapshotPtr cur = slot_.current();
    if (!cur) return error_line(req.id, "reload-model: no model installed");
    // Architecture and normalizer carry over: reload swaps weights, not
    // the model shape. Shape mismatches surface when the next consumer
    // rebuilds (assign_params is count- and shape-checked).
    auto snap = snapshot_from_files(prefix, cur->base, cur->norm_factor);
    const std::uint64_t version = slot_.install(std::move(snap));
    util::log_info("serve: installed model v", version, " from ", prefix,
                   ".*");
    return ok_head(req.id) +
           ",\"kind\":\"admin\",\"op\":\"reload-model\",\"model_version\":" +
           std::to_string(version) + "}";
  }
  if (req.op == "stats") {
    reap_finished_jobs();
    SnapshotPtr cur = slot_.current();
    std::size_t num_jobs, running = 0;
    {
      std::lock_guard<std::mutex> lock(jobs_mu_);
      num_jobs = jobs_.size();
      for (const auto& [id, job] : jobs_)
        if (!job->done.load()) ++running;
    }
    obs::Histogram& h_batch = obs::histogram("serve.batch_size");
    std::string out = ok_head(req.id) + ",\"kind\":\"admin\",\"op\":\"stats\"";
    out += ",\"model_version\":" +
           std::to_string(cur ? cur->version : 0);
    out += ",\"requests\":" +
           std::to_string(obs::counter("serve.requests").value());
    out += ",\"batches\":" +
           std::to_string(obs::counter("serve.batches").value());
    out += ",\"model_swaps\":" +
           std::to_string(obs::counter("serve.model_swaps").value());
    out += ",\"jobs\":" + std::to_string(num_jobs);
    out += ",\"jobs_running\":" + std::to_string(running);
    out += ",\"batch_count\":" + std::to_string(h_batch.count());
    out += ",\"batch_p50\":" + double_str(h_batch.percentile(0.5));
    out += ",\"batch_max\":" + double_str(h_batch.max());
    out += ",\"queue_depth\":" +
           double_str(obs::gauge("serve.queue_depth").value());
    out += "}";
    return out;
  }
  // drain: acknowledge first (the writer flushes this before the
  // connection winds down — SHUT_RD leaves the send side open).
  obs::add(obs::counter("serve.drains"));
  request_drain();
  return ok_head(req.id) + ",\"kind\":\"admin\",\"op\":\"drain\"}";
}

std::string Server::cache_path_for(const std::string& client) const {
  if (opts_.cache_dir.empty()) return "";
  return opts_.cache_dir + "/" + (client.empty() ? "default" : client) +
         ".csv";
}

}  // namespace gnndse::serve
