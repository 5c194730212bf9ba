// The serve daemon: accepts connections on loopback TCP, speaks the
// line-delimited JSON protocol (protocol.hpp), and multiplexes three kinds
// of work over one trained model bundle:
//
//   predict — featurize + fast-path inference, coalesced by the Batcher
//   sweep   — async ModelDse run as a job ("job-N"): poll for progress
//             (the dse.* heartbeat gauges), cancel cooperatively
//   admin   — reload-model (hot swap from weight files), stats, drain
//
// Per connection, a reader thread parses and dispatches requests while a
// writer thread sends responses strictly in request order — so one
// pipelined connection that fires 32 predicts back-to-back still coalesces
// them into batches (the reader never blocks on inference; it enqueues the
// future and keeps reading).
//
// Oracle results for `evaluate` sweeps are cached per client namespace:
// cache_dir/<client>.csv, so tenants sharing a daemon don't mix persistent
// caches.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/batcher.hpp"
#include "serve/protocol.hpp"
#include "serve/socket.hpp"

namespace gnndse::serve {

/// Finished sweep jobs a daemon keeps for polling. Accepting a sweep or
/// answering `stats` joins and drops the oldest finished jobs beyond this;
/// polling a dropped job answers "unknown job".
inline constexpr std::size_t kMaxFinishedJobs = 64;

struct ServerOptions {
  /// 0 = kernel-assigned ephemeral port; read the outcome from port().
  std::uint16_t port = 0;
  /// Default weight-file prefix for `reload-model` without "weights".
  std::string weights_prefix;
  /// Directory for per-client oracle cache CSVs; empty = in-memory only.
  std::string cache_dir;
  /// Sweep defaults when the request leaves them 0.
  double sweep_time_limit = 5.0;
  int top_m = 10;
  double util_threshold = 0.8;
  std::uint64_t seed = 1;
  BatcherOptions batcher;
};

class Server {
 public:
  /// Binds the listener immediately (so port() is valid before run()) and
  /// enables telemetry — polling and stats read the obs registry.
  Server(ModelSlot& slot, model::SampleFactory& factory,
         const ServerOptions& opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  std::uint16_t port() const { return listener_.port(); }

  /// Accept loop; returns after a drain (admin request or request_drain):
  /// intake stops, queued responses flush, sweeps are cancelled and
  /// joined, the batcher drains.
  void run();

  /// Thread-safe external drain trigger (tests, signal handlers).
  void request_drain();

 private:
  struct Conn {
    Socket sock;
    std::thread reader, writer;

    struct Out {
      bool is_future = false;
      std::int64_t id = -1;
      std::future<PredictResult> fut;
      std::string text;
    };
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Out> outbox;
    bool closed = false;  // reader finished; writer exits once drained
    std::atomic<bool> reader_done{false}, writer_done{false};
  };

  struct SweepJob {
    std::string job_id;
    int seq = 0;  // the N of "job-N": acceptance order
    std::atomic<bool> cancel{false};
    std::atomic<bool> done{false};
    std::thread thread;
    /// Running-state poll fields: this job's own progress, written by its
    /// sweep engine, and its time limit.
    dse::SweepProgress progress;
    double time_limit = 0.0;

    /// Result fields, written by the job thread before `done` is set
    /// (release) and read by pollers after observing done (acquire).
    std::string error;
    dse::DseResult result;
    std::uint64_t model_version = 0;
    bool evaluated = false;
    bool eval_best_found = false;
    std::string eval_best_config;
    double eval_best_cycles = 0.0;
  };

  void reader_loop(const std::shared_ptr<Conn>& conn);
  void writer_loop(const std::shared_ptr<Conn>& conn);
  /// Parses + dispatches one line; enqueues exactly one outbox entry.
  void handle_line(const std::string& line, Conn& conn);
  void push_text(Conn& conn, std::string text);

  std::string handle_sweep(Request& req);
  std::string handle_poll(const Request& req);
  std::string handle_cancel(const Request& req);
  std::string handle_admin(const Request& req);
  void run_sweep_job(const std::shared_ptr<SweepJob>& job, Request req);

  std::string cache_path_for(const std::string& client) const;
  void reap_finished_conns();
  /// Joins and drops the oldest finished jobs beyond kMaxFinishedJobs.
  void reap_finished_jobs();

  ModelSlot& slot_;
  model::SampleFactory& factory_;
  ServerOptions opts_;
  ListenSocket listener_;
  Batcher batcher_;

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Conn>> conns_;

  std::mutex jobs_mu_;
  std::map<std::string, std::shared_ptr<SweepJob>> jobs_;
  int next_job_ = 1;

  std::atomic<bool> draining_{false};
};

}  // namespace gnndse::serve
