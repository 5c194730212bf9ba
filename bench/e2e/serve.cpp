// serve_predict: drives a real `gnndse serve` daemon over loopback TCP.
//
// Traffic: predicts over 64 kernels generated from the seed, each sent as
// the JSON kernel object the daemon parses (frontend::serialize_kernel),
// with Zipf(1.0) kernel popularity and a DesignSpace::sample config.
// The load generator runs one thread per connection (4 connections) and
// waits in poll(), so sends go out when they are due:
//   open loop    Poisson arrivals at 100 req/s; each latency is timed from
//                when the request was due, so a stall also charges the
//                requests queued behind it (latency_p50/p90_ms).
//   closed loop  4 connections x 4 outstanding; completed requests per
//                second is the throughput.
// Every 50th response must be string-equal to predicted_fields() of an
// in-process serve::predict_single on the same weights.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <deque>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "dspace/design_space.hpp"
#include "e2e.hpp"
#include "frontend/json_value.hpp"
#include "frontend/kernel_json.hpp"
#include "kernels/kernels.hpp"
#include "obs/trace.hpp"
#include "oracle/stack.hpp"
#include "serve/batcher.hpp"
#include "serve/protocol.hpp"
#include "serve/socket.hpp"
#include "util/timer.hpp"

extern char** environ;

namespace gnndse::bench_e2e {

namespace {

namespace json = frontend::json;
using Clock = std::chrono::steady_clock;

constexpr int kConns = 4;
constexpr int kDepth = 4;  // closed loop: kConns * kDepth outstanding
constexpr double kOpenRate = 100.0;  // requests per second
constexpr int kCheckEvery = 50;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// One `gnndse serve` child process. The destructor kills and reaps it if
/// it was not drained.
class Daemon {
 public:
  Daemon(const Options& opts, const Bundle& bundle, const BundleSpec& spec,
         const std::string& tag) {
    std::vector<std::string> args = {
        opts.gnndse, "serve", "--port", "0", "--weights", bundle.prefix,
        "--hidden", std::to_string(spec.hidden), "--layers",
        std::to_string(spec.layers)};
    if (opts.trace) {
      args.insert(args.end(), {"--report", opts.out_dir + "/daemon-" + tag +
                                               ".report.json",
                               "--trace", opts.out_dir + "/daemon-" + tag +
                                              ".trace.json"});
    }
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    std::vector<std::string> env_store;
    for (char** e = environ; *e; ++e)
      if (std::strncmp(*e, "GNNDSE_LOG_LEVEL=", 17) != 0) env_store.push_back(*e);
    env_store.push_back("GNNDSE_LOG_LEVEL=warn");
    std::vector<char*> envp;
    for (auto& e : env_store) envp.push_back(e.data());
    envp.push_back(nullptr);

    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("serve: pipe");
    const std::string log = opts.out_dir + "/daemon.log";
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], 1);
    posix_spawn_file_actions_addopen(&fa, 2, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    const int rc =
        posix_spawn(&pid_, argv[0], &fa, nullptr, argv.data(), envp.data());
    posix_spawn_file_actions_destroy(&fa);
    ::close(fds[1]);
    out_fd_ = fds[0];
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("serve: cannot start " + opts.gnndse);
    }
    read_port();
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (out_fd_ >= 0) ::close(out_fd_);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::uint16_t port() const { return port_; }
  int pid() const { return pid_; }

  /// admin drain, then waits for a clean exit. True when it exited 0.
  bool drain() {
    {
      serve::Socket s = serve::connect_to("127.0.0.1", port_);
      serve::LineReader lines(s);
      std::string ack;
      s.send_line(R"({"kind":"admin","op":"drain"})");
      lines.read_line(&ack);
    }
    int status = 0;
    for (int i = 0; i < 3000; ++i) {  // up to 30 s
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;  // the destructor kills it
  }

 private:
  /// Parses the readiness line "gnndse serve: listening on 127.0.0.1:P".
  void read_port() {
    std::string buf;
    const auto t0 = Clock::now();
    while (ms_since(t0) < 120'000) {
      pollfd p{out_fd_, POLLIN, 0};
      if (::poll(&p, 1, 100) <= 0) continue;
      char chunk[256];
      const ssize_t n = ::read(out_fd_, chunk, sizeof chunk);
      if (n <= 0) break;
      buf.append(chunk, static_cast<std::size_t>(n));
      const auto at = buf.find("127.0.0.1:");
      if (at != std::string::npos && buf.find('\n', at) != std::string::npos) {
        port_ = static_cast<std::uint16_t>(std::stoi(buf.substr(at + 10)));
        return;
      }
    }
    throw std::runtime_error("serve: daemon did not report a port");
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
};

/// The canonical kernel JSON is indented over many lines; the protocol
/// takes one request per line.
std::string one_line(const std::string& text) {
  std::string out;
  bool skip = false;
  for (char c : text) {
    if (c == '\n') {
      skip = true;
      continue;
    }
    if (skip && c == ' ') continue;
    skip = false;
    out += c;
  }
  return out;
}

std::string predict_line(const std::string& kernel_json,
                         const hlssim::DesignConfig& config, std::int64_t id) {
  return "{\"kind\":\"predict\",\"id\":" + std::to_string(id) +
         ",\"kernel\":" + kernel_json + ",\"config\":\"" + config.key() +
         "\"}";
}

/// The request mix. Kernels and spaces are built once; requests are
/// (kernel, config) pairs drawn from the seed.
class Traffic {
 public:
  Traffic(std::uint64_t seed, int num_kernels)
      : rng_(seed ^ 0x5eedu),
        // The paper kernels' graph sizes (28 to 67 nodes), any space.
        kernels_(generate_kernels(seed, num_kernels,
                                  {35, 50, 2, ~std::uint64_t{0}})) {
    for (const auto& k : kernels_) {
      spaces_.push_back(std::make_unique<dspace::DesignSpace>(k));
      json_.push_back(one_line(frontend::serialize_kernel(k)));
    }
    double sum = 0.0;
    for (int i = 1; i <= num_kernels; ++i) cdf_.push_back(sum += 1.0 / i);
    for (double& c : cdf_) c /= sum;
  }

  struct Req {
    std::size_t kernel;
    hlssim::DesignConfig config;
  };

  Req draw() {
    const double u = rng_.uniform();
    const auto k = static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end() - 1, u) - cdf_.begin());
    return {k, spaces_[k]->sample(rng_)};
  }

  std::string line(const Req& r, std::int64_t id) const {
    return predict_line(json_[r.kernel], r.config, id);
  }

  const std::vector<kir::Kernel>& kernels() const { return kernels_; }

 private:
  util::Rng rng_;
  std::vector<kir::Kernel> kernels_;
  std::vector<std::unique_ptr<dspace::DesignSpace>> spaces_;
  std::vector<std::string> json_;
  std::vector<double> cdf_;
};

/// One client connection, non-blocking, driven by poll().
class Conn {
 public:
  explicit Conn(std::uint16_t port) : sock_(serve::connect_to("127.0.0.1", port)) {
    ::fcntl(sock_.fd(), F_SETFL, ::fcntl(sock_.fd(), F_GETFL) | O_NONBLOCK);
  }

  void queue(const std::string& line) {
    out_ += line;
    out_ += '\n';
  }

  /// Waits up to `timeout_ms` for the socket, sends what it can and
  /// appends complete response lines. False when the peer is gone.
  bool pump(double timeout_ms, std::vector<std::string>& lines) {
    pollfd p{sock_.fd(), POLLIN, 0};
    if (out_off_ < out_.size()) p.events |= POLLOUT;
    const auto us = static_cast<long>(std::max(0.0, timeout_ms) * 1e3);
    timespec ts{us / 1'000'000, (us % 1'000'000) * 1000};
    if (::ppoll(&p, 1, &ts, nullptr) < 0) return errno == EINTR;
    if (p.revents & POLLOUT) {
      const ssize_t n = ::send(sock_.fd(), out_.data() + out_off_,
                               out_.size() - out_off_, MSG_NOSIGNAL);
      if (n < 0 && errno != EAGAIN) return false;
      if (n > 0) out_off_ += static_cast<std::size_t>(n);
      if (out_off_ == out_.size()) {
        out_.clear();
        out_off_ = 0;
      }
    }
    if (p.revents & (POLLIN | POLLHUP | POLLERR)) {
      char buf[65536];
      const ssize_t n = ::recv(sock_.fd(), buf, sizeof buf, 0);
      if (n == 0 || (n < 0 && errno != EAGAIN)) return false;
      if (n > 0) in_.append(buf, static_cast<std::size_t>(n));
      std::size_t start = 0, nl;
      while ((nl = in_.find('\n', start)) != std::string::npos) {
        lines.push_back(in_.substr(start, nl - start));
        start = nl + 1;
      }
      in_.erase(0, start);
    }
    return true;
  }

 private:
  serve::Socket sock_;
  std::string out_, in_;
  std::size_t out_off_ = 0;
};

constexpr double kWindowMs = 500.0;  // closed-loop throughput window, at most

/// What the load generator saw in one phase.
struct PhaseStats {
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;   // open loop: send time minus due time
  std::vector<double> done_ms;  // closed loop: completion times
  std::int64_t batch_size_sum = 0, responses = 0;

  /// Closed loop: completions per second, the median over equal windows
  /// of at most kWindowMs covering `seconds`, so a burst of load on the
  /// host moves a few windows, not the median.
  double rps(double seconds) const {
    const auto n = static_cast<std::size_t>(
        std::max(1.0, std::floor(seconds * 1e3 / kWindowMs)));
    const double window_ms = seconds * 1e3 / static_cast<double>(n);
    std::vector<double> counts(n, 0.0);
    for (double t : done_ms) {
      const auto w = static_cast<std::size_t>(t / window_ms);
      if (w < n) counts[w] += 1.0;
    }
    return median(counts) * 1e3 / window_ms;
  }

  /// Concatenates the per-connection stats of one phase.
  static PhaseStats merge(const std::vector<PhaseStats>& per) {
    PhaseStats total;
    for (const PhaseStats& st : per) {
      for (auto [dst, src] : {std::pair{&total.latency_ms, &st.latency_ms},
                              std::pair{&total.lag_ms, &st.lag_ms},
                              std::pair{&total.done_ms, &st.done_ms}})
        dst->insert(dst->end(), src->begin(), src->end());
      total.batch_size_sum += st.batch_size_sum;
      total.responses += st.responses;
    }
    return total;
  }
};

/// A request whose response is compared with predict_single afterwards.
struct Checked {
  Traffic::Req req;
  std::int64_t id;
  std::string response;
};

/// Shared bookkeeping of every request the generator sent.
class Ledger {
 public:
  explicit Ledger(Result& result) : result_(result) {}

  /// Checks one response against the request it pairs with.
  void record(const Traffic::Req& req, std::int64_t id, const std::string& line,
              PhaseStats& stats) {
    const std::string head = "{\"id\":" + std::to_string(id) + ",\"ok\":true";
    const bool ok = line.rfind(head, 0) == 0;
    const auto at = line.find("\"batch_size\":");
    std::lock_guard<std::mutex> lock(mu_);
    result_.op(ok, "serve request " + std::to_string(id) + ": " +
                       line.substr(0, 160));
    if (ok && at != std::string::npos) {
      stats.batch_size_sum += std::strtol(line.c_str() + at + 13, nullptr, 10);
      ++stats.responses;
    }
    if (ok && id % kCheckEvery == 0) checked_.push_back({req, id, line});
  }
  void lost(std::int64_t count) {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::int64_t i = 0; i < count; ++i)
      result_.op(false, "serve request got no response");
  }
  const std::vector<Checked>& checked() const { return checked_; }

 private:
  std::mutex mu_;
  Result& result_;
  std::vector<Checked> checked_;
};

struct InFlight {
  Traffic::Req req;
  std::int64_t id;
  double due_ms, sent_ms;
};

/// Open loop: Poisson arrivals at kOpenRate for `seconds`, dealt round-robin
/// to the connections; each connection thread sends its requests when due.
PhaseStats open_loop(std::uint16_t port, Traffic& traffic, double seconds,
                     std::int64_t& next_id, std::uint64_t seed, Ledger& ledger) {
  util::Rng arrivals(seed ^ 0x0a11u);
  std::vector<std::vector<InFlight>> plan(kConns);
  double t = 0.0;
  for (int i = 0;; ++i) {
    t += -std::log(1.0 - arrivals.uniform()) / kOpenRate * 1e3;
    if (t >= seconds * 1e3) break;
    plan[static_cast<std::size_t>(i % kConns)].push_back(
        {traffic.draw(), next_id++, t, 0.0});
  }
  std::vector<PhaseStats> per(kConns);
  std::vector<std::unique_ptr<Conn>> conns;
  for (int c = 0; c < kConns; ++c) conns.push_back(std::make_unique<Conn>(port));
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < kConns; ++c)
    threads.emplace_back([&, c] {
      Conn& conn = *conns[static_cast<std::size_t>(c)];
      PhaseStats& st = per[static_cast<std::size_t>(c)];
      const auto& mine = plan[static_cast<std::size_t>(c)];
      std::deque<InFlight> inflight;
      std::vector<std::string> lines;
      std::size_t next = 0;
      while (next < mine.size() || !inflight.empty()) {
        double now = ms_since(t0);
        for (; next < mine.size() && mine[next].due_ms <= now; ++next) {
          InFlight f = mine[next];
          f.sent_ms = now;
          conn.queue(traffic.line(f.req, f.id));
          st.lag_ms.push_back(now - f.due_ms);
          inflight.push_back(f);
        }
        const double wait =
            next < mine.size() ? mine[next].due_ms - now : 50.0;
        lines.clear();
        if (!conn.pump(wait, lines) || now > (seconds + 30.0) * 1e3) break;
        now = ms_since(t0);
        for (const std::string& line : lines) {
          if (inflight.empty()) break;
          const InFlight f = inflight.front();
          inflight.pop_front();
          st.latency_ms.push_back(now - f.due_ms);
          ledger.record(f.req, f.id, line, st);
        }
      }
      ledger.lost(static_cast<std::int64_t>(inflight.size() + mine.size() - next));
    });
  for (auto& th : threads) th.join();
  return PhaseStats::merge(per);
}

/// Closed loop: kDepth requests outstanding on each connection for
/// `seconds`; the next request goes out as soon as a response arrives.
PhaseStats closed_loop(std::uint16_t port, Traffic& traffic, double seconds,
                       std::int64_t& next_id, Ledger& ledger) {
  std::mutex draw_mu;  // Traffic's rng is shared by the threads
  std::vector<PhaseStats> per(kConns);
  std::vector<std::unique_ptr<Conn>> conns;
  for (int c = 0; c < kConns; ++c) conns.push_back(std::make_unique<Conn>(port));
  std::atomic<std::int64_t> ids{next_id};
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < kConns; ++c)
    threads.emplace_back([&, c] {
      Conn& conn = *conns[static_cast<std::size_t>(c)];
      PhaseStats& st = per[static_cast<std::size_t>(c)];
      std::deque<InFlight> inflight;
      std::vector<std::string> lines;
      auto send_one = [&](double now) {
        InFlight f;
        {
          std::lock_guard<std::mutex> lock(draw_mu);
          f.req = traffic.draw();
        }
        f.id = ids.fetch_add(1);
        f.due_ms = f.sent_ms = now;
        conn.queue(traffic.line(f.req, f.id));
        inflight.push_back(std::move(f));
      };
      for (int i = 0; i < kDepth; ++i) send_one(ms_since(t0));
      while (!inflight.empty()) {
        lines.clear();
        if (!conn.pump(50.0, lines) || ms_since(t0) > (seconds + 30.0) * 1e3)
          break;
        const double now = ms_since(t0);
        for (const std::string& line : lines) {
          if (inflight.empty()) break;
          const InFlight f = inflight.front();
          inflight.pop_front();
          st.latency_ms.push_back(now - f.sent_ms);
          st.done_ms.push_back(now);
          ledger.record(f.req, f.id, line, st);
          if (now < seconds * 1e3) send_one(now);
        }
      }
      ledger.lost(static_cast<std::int64_t>(inflight.size()));
    });
  for (auto& th : threads) th.join();
  next_id = ids.load();
  return PhaseStats::merge(per);
}

/// Pool workers' busy share over the daemon's life, from its run report:
/// parallel.task_ms time over (elapsed x worker threads).
double daemon_utilization(const std::string& report_path) {
  std::ifstream in(report_path);
  std::ostringstream ss;
  ss << in.rdbuf();
  const json::Value r = json::parse_value(ss.str(), report_path);
  auto at = [&](std::initializer_list<const char*> keys) {
    const json::Value* v = &r;
    for (const char* k : keys)
      if (!(v = v->find(k)))
        throw std::runtime_error(report_path + " lacks " + k);
    return v->as_double();
  };
  const double lanes = at({"gauges", "parallel.pool_size"});
  return at({"histograms", "parallel.task_ms", "sum_ms"}) /
         (at({"elapsed_seconds"}) * 1e3 * std::max(1.0, lanes - 1));
}

/// Sends `requests` pipelined on one connection; returns the responses in
/// request order (empty for a missing one).
std::vector<std::string> burst(std::uint16_t port,
                               const std::vector<std::string>& requests) {
  Conn conn(port);
  for (const auto& r : requests) conn.queue(r);
  std::vector<std::string> lines;
  const auto t0 = Clock::now();
  while (lines.size() < requests.size() && ms_since(t0) < 60'000)
    if (!conn.pump(50.0, lines)) break;
  lines.resize(requests.size());
  return lines;
}

/// Starts a daemon and sends one request per kernel: what a client waits
/// for before its traffic is served at full speed.
std::unique_ptr<Daemon> start_warm(const Options& opts, const Bundle& bundle,
                                   const BundleSpec& spec, Traffic& traffic,
                                   const std::string& tag,
                                   std::int64_t& next_id, double* seconds) {
  util::Timer t;
  auto d = std::make_unique<Daemon>(opts, bundle, spec, tag);
  std::vector<std::string> warm;
  for (std::size_t k = 0; k < traffic.kernels().size(); ++k)
    warm.push_back(traffic.line(
        {k, hlssim::DesignConfig::neutral(traffic.kernels()[k])}, next_id++));
  burst(d->port(), warm);
  *seconds = t.seconds();
  return d;
}

/// The surrogate's quality as served: a fixed set of registry-kernel
/// predicts (independent of the seed) scored against the HLS oracle.
QualityScore served_quality(std::uint16_t port, const model::Normalizer& norm,
                            std::int64_t& next_id, Result& result) {
  QualityScore q;
  util::Rng rng(2022);
  oracle::OracleStack oracle{oracle::OracleOptions{}};
  std::vector<kir::Kernel> ks = kernels::make_training_kernels();
  for (kir::Kernel& k : kernels::make_unseen_kernels()) ks.push_back(std::move(k));
  for (const kir::Kernel& k : ks) {
    dspace::DesignSpace space(k);
    std::vector<hlssim::DesignConfig> cfgs;
    for (int i = 0; i < 16; ++i) cfgs.push_back(space.sample(rng));
    const std::string kj = one_line(frontend::serialize_kernel(k));
    std::vector<std::string> requests;
    for (const auto& c : cfgs)
      requests.push_back(predict_line(kj, c, next_id++));
    const std::vector<std::string> lines = burst(port, requests);
    const auto actual = oracle.evaluate_batch(k, cfgs);
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      bool ok = !lines[i].empty();
      if (ok) {
        try {
          const json::Value v = json::parse_value(lines[i], "serve response");
          const json::Value* pred = v.find("predicted");
          const json::Value* pv = v.find("p_valid");
          std::array<float, model::kNumObjectives> p{};
          for (int o = 0; o < model::kNumObjectives && pred; ++o)
            p[static_cast<std::size_t>(o)] = static_cast<float>(
                pred->find(model::objective_name(o))->as_double());
          ok = pred && pv;
          if (ok) q.add(p, static_cast<float>(pv->as_double()), actual[i], norm);
        } catch (const std::exception&) {
          ok = false;
        }
      }
      result.op(ok, "serve quality predict on " + k.name + " failed");
    }
  }
  return q;
}

}  // namespace

void run_serve(const Options& opts, const BundleSpec& spec, Result& result) {
  if (spec.db_seed != 42)
    throw std::logic_error("serve: the daemon normalizes on the seed-42 db");
  const Bundle bundle = load_bundle(spec, opts.cache_dir);
  Traffic traffic(opts.seed, opts.smoke ? 8 : 64);
  result.inputs["kernels"] = std::to_string(traffic.kernels().size());
  result.inputs["connections"] = std::to_string(kConns);
  result.inputs["open_rate"] = std::to_string(kOpenRate);
  result.inputs["closed_outstanding"] = std::to_string(kConns * kDepth);
  std::int64_t next_id = 1;

  std::vector<double> setups;
  std::unique_ptr<Daemon> daemon;
  for (int i = 0; i < kSetupReps; ++i) {
    if (daemon) result.op(daemon->drain(), "serve daemon did not drain");
    double s = 0.0;
    daemon = start_warm(opts, bundle, spec, traffic, std::to_string(i), next_id,
                        &s);
    setups.push_back(s);
  }

  Ledger ledger(result);
  const double half = opts.trace ? opts.seconds / 4 : opts.seconds / 2;
  PhaseStats open, closed;
  {
    obs::ScopedSpan span("bench.serve.open_loop");
    open = open_loop(daemon->port(), traffic, half, next_id, opts.seed, ledger);
  }
  {
    obs::ScopedSpan span("bench.serve.closed_loop");
    closed = closed_loop(daemon->port(), traffic, half, next_id, ledger);
  }
  const double rps = closed.rps(half);

  std::unique_ptr<TracedPhase> traced;
  PhaseStats t_open, t_closed;
  if (opts.trace) {
    traced = std::make_unique<TracedPhase>(opts);
    {
      obs::ScopedSpan span("bench.serve.open_loop");
      t_open = open_loop(daemon->port(), traffic, half, next_id, opts.seed + 1,
                         ledger);
    }
    obs::ScopedSpan span("bench.serve.closed_loop");
    t_closed = closed_loop(daemon->port(), traffic, half, next_id, ledger);
  }

  QualityScore quality;
  if (!opts.trace) {
    quality = served_quality(daemon->port(),
                             model::Normalizer(bundle.snapshot->norm_factor),
                             next_id, result);
  }
  const double rss = peak_rss_mb_of(daemon->pid());
  result.op(daemon->drain(), "serve daemon did not drain");

  // Every 50th response against the in-process reference.
  serve::ModelInstance instance;
  instance.ensure(bundle.snapshot);
  model::SampleFactory factory;
  for (const Checked& s : ledger.checked()) {
    const serve::PredictResult ref = serve::predict_single(
        instance, factory, traffic.kernels()[s.req.kernel], s.req.config);
    result.op(ref.ok && s.response.find(serve::predicted_fields(
                            ref.predicted, ref.p_valid)) != std::string::npos,
              "serve response " + std::to_string(s.id) +
                  " differs from serve::predict_single");
  }
  result.note("checked_responses", static_cast<double>(ledger.checked().size()),
              "count");

  const double lag_p99 = percentile(open.lag_ms, 0.99);
  result.note("generator_lag_ms_p99", lag_p99, "ms");
  result.note("predict_p50_ms.r100", percentile(open.latency_ms, 0.5), "ms");
  result.note("predict_p90_ms.r100", percentile(open.latency_ms, 0.9), "ms");
  result.note("predict_p50_ms.c16", percentile(closed.latency_ms, 0.5), "ms");
  result.note("predict_p99_ms.c16", percentile(closed.latency_ms, 0.99), "ms");
  result.note("predict_rps.c16", rps, "1/s");
  result.note("open_loop_requests", static_cast<double>(open.latency_ms.size()),
              "count");
  result.note("closed_loop_requests",
              static_cast<double>(closed.latency_ms.size()), "count");

  if (!opts.trace) {
    result.metric("setup_s", median(setups), "s");
    result.metric("throughput", rps, "1/s");
    result.metric("latency_p50_ms", percentile(open.latency_ms, 0.5), "ms");
    result.metric("latency_p90_ms", percentile(open.latency_ms, 0.9), "ms");
    result.metric("peak_rss_mb", rss, "MB");
    result.metric("model_rmse", quality.rmse_all(), "norm");
    result.metric("model_f1", quality.f1(), "ratio");
    return;
  }
  result.metric("parallel.worker_utilization",
                daemon_utilization(opts.out_dir + "/daemon-" +
                                   std::to_string(kSetupReps - 1) +
                                   ".report.json"),
                "ratio");
  const double t_rps = t_closed.rps(half);
  result.metric("trace_overhead_ratio", t_rps / rps, "ratio");
  result.metric("serve.batch_size_mean",
                static_cast<double>(t_open.batch_size_sum + t_closed.batch_size_sum) /
                    static_cast<double>(std::max<std::int64_t>(
                        1, t_open.responses + t_closed.responses)),
                "count");
  probe_layers(opts, bundle, traffic.kernels(), StageTotals{}, result);
  traced->finish(result);
}

}  // namespace gnndse::bench_e2e
