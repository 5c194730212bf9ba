// Serve subsystem tests: protocol parsing, the batching coalescer's
// triggers and failure isolation, atomic model hot-swap under concurrent
// predict traffic (run under TSan via scripts/check_tsan.sh), a loopback
// end-to-end pass through the Server, oversize-line rejection, the cap on
// retained finished sweep jobs, per-job progress in running-sweep polls,
// and the template-eviction scale test (a daemon's working set is many
// client kernels under one byte budget).
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "dspace/design_space.hpp"
#include "frontend/kernel_json.hpp"
#include "kernels/generator.hpp"
#include "model/weights.hpp"
#include "obs/json_util.hpp"
#include "obs/metrics.hpp"
#include "serve/batcher.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace gnndse {
namespace {

using serve::BatcherOptions;
using serve::ModelInstance;
using serve::ModelSlot;
using serve::PredictResult;
using serve::Request;

kernels::GeneratorConfig small_cfg() {
  kernels::GeneratorConfig cfg;
  cfg.min_loops = 2;
  cfg.max_loops = 3;
  cfg.max_depth = 2;
  cfg.max_trip = 16;
  return cfg;
}

kir::Kernel test_kernel(std::uint64_t seed = 3) {
  return kernels::generate(small_cfg(), seed);
}

/// Builds an untrained snapshot (random weights from `seed`) the same way
/// the daemon snapshots a trained bundle — three heads sharing one base
/// architecture. Training is irrelevant to the serving-layer contracts
/// under test.
std::shared_ptr<serve::ModelSnapshot> make_snapshot(std::uint64_t seed) {
  auto snap = std::make_shared<serve::ModelSnapshot>();
  snap->norm_factor = 1000.0;
  snap->base.hidden = 8;
  snap->base.gnn_layers = 2;
  util::Rng rng(seed);
  model::ModelOptions mo = snap->base;
  mo.out_dim = 4;
  model::PredictiveModel main_m(mo, rng);
  mo.out_dim = 1;
  model::PredictiveModel bram_m(mo, rng);
  model::PredictiveModel cls_m(mo, rng);
  snap->main_params = model::copy_params(main_m.params());
  snap->bram_params = model::copy_params(bram_m.params());
  snap->cls_params = model::copy_params(cls_m.params());
  return snap;
}

std::string kernel_json_line(const kir::Kernel& k) {
  std::string s = frontend::serialize_kernel(k);
  std::replace(s.begin(), s.end(), '\n', ' ');
  return s;
}

// ---------------------------------------------------------------- protocol

TEST(ServeProtocol, ParsesPredictWithConfigAndClient) {
  kir::Kernel k = test_kernel();
  hlssim::DesignConfig cfg = hlssim::DesignConfig::neutral(k);
  cfg.loops[0].parallel = 2;
  const std::string line = "{\"kind\":\"predict\",\"id\":7,\"client\":\"t1\","
                           "\"config\":" + obs::jsonu::quoted(cfg.key()) +
                           ",\"kernel\":" + kernel_json_line(k) + "}";
  Request r = serve::parse_request(line);
  EXPECT_EQ(r.kind, Request::Kind::kPredict);
  EXPECT_EQ(r.id, 7);
  EXPECT_EQ(r.client, "t1");
  EXPECT_EQ(r.kernel.name, k.name);
  EXPECT_EQ(r.config.key(), cfg.key());
}

TEST(ServeProtocol, PredictWithoutConfigIsNeutral) {
  kir::Kernel k = test_kernel();
  Request r = serve::parse_request(
      "{\"kind\":\"predict\",\"kernel\":" + kernel_json_line(k) + "}");
  EXPECT_EQ(r.id, -1);
  EXPECT_EQ(r.config.key(), hlssim::DesignConfig::neutral(k).key());
}

TEST(ServeProtocol, SweepDefaultsAndOverrides) {
  kir::Kernel k = test_kernel();
  Request r = serve::parse_request(
      "{\"kind\":\"sweep\",\"kernel\":" + kernel_json_line(k) +
      ",\"time_limit\":2.5,\"top_m\":3,\"evaluate\":true}");
  EXPECT_EQ(r.kind, Request::Kind::kSweep);
  EXPECT_DOUBLE_EQ(r.time_limit, 2.5);
  EXPECT_EQ(r.top_m, 3);
  EXPECT_TRUE(r.evaluate);
}

TEST(ServeProtocol, RejectsMalformedRequests) {
  kir::Kernel k = test_kernel();
  const std::string kj = kernel_json_line(k);
  // Unknown kind, unknown key, config/kernel loop mismatch, unsafe client
  // namespace, missing job, non-object — each with an actionable message.
  EXPECT_THROW(serve::parse_request("{\"kind\":\"frobnicate\"}"),
               std::runtime_error);
  EXPECT_THROW(serve::parse_request("{\"kind\":\"predict\",\"kernel\":" + kj +
                                    ",\"time_limi\":2}"),
               std::runtime_error);
  EXPECT_THROW(serve::parse_request("{\"kind\":\"predict\",\"kernel\":" + kj +
                                    ",\"config\":\"L0:off/1/1\"}"),
               std::runtime_error);
  EXPECT_THROW(serve::parse_request("{\"kind\":\"predict\",\"kernel\":" + kj +
                                    ",\"client\":\"../escape\"}"),
               std::runtime_error);
  // Mislabelled segments and malformed factors in an otherwise
  // well-sized config key.
  const std::string neutral = hlssim::DesignConfig::neutral(k).key();
  for (const char* seg : {"L9:off/1/1", "L0:off/-8/0", "L0:off/1/1x"}) {
    std::string bad = neutral;
    bad.replace(0, std::string("L0:off/1/1").size(), seg);
    EXPECT_THROW(serve::parse_request("{\"kind\":\"predict\",\"kernel\":" +
                                      kj + ",\"config\":\"" + bad + "\"}"),
                 std::runtime_error)
        << bad;
  }
  EXPECT_THROW(serve::parse_request("{\"kind\":\"poll\"}"), std::runtime_error);
  EXPECT_THROW(serve::parse_request("[1,2]"), std::runtime_error);
  EXPECT_THROW(serve::parse_request("{\"kind\":\"admin\",\"op\":\"rm-rf\"}"),
               std::runtime_error);
}

TEST(ServeProtocol, ResponseHelpers) {
  EXPECT_EQ(serve::error_line(-1, "boom"), "{\"ok\":false,\"error\":\"boom\"}");
  EXPECT_EQ(serve::error_line(4, "x\"y"),
            "{\"id\":4,\"ok\":false,\"error\":\"x\\\"y\"}");
  EXPECT_EQ(serve::ok_head(-1), "{\"ok\":true");
  EXPECT_EQ(serve::ok_head(9), "{\"id\":9,\"ok\":true");
  // %.9g round-trips float32 exactly.
  const float v = 0.123456789f;
  EXPECT_EQ(std::stof(serve::float_str(v)), v);
}

// ---------------------------------------------------------------- batcher

TEST(ServeBatcher, SizeTriggerCoalesces) {
  ModelSlot slot;
  slot.install(make_snapshot(1));
  model::SampleFactory factory;
  BatcherOptions opts;
  opts.max_batch = 4;
  opts.max_wait_us = 5'000'000;  // deadline far away: size must trigger
  serve::Batcher batcher(slot, factory, opts);
  kir::Kernel k = test_kernel();
  std::vector<std::future<PredictResult>> futs;
  for (int i = 0; i < 4; ++i)
    futs.push_back(batcher.submit(k, hlssim::DesignConfig::neutral(k)));
  for (auto& f : futs) {
    PredictResult r = f.get();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.batch_size, 4);
    EXPECT_EQ(r.model_version, 1u);
  }
}

TEST(ServeBatcher, DeadlineTriggerFlushesPartialBatch) {
  ModelSlot slot;
  slot.install(make_snapshot(1));
  model::SampleFactory factory;
  BatcherOptions opts;
  opts.max_batch = 64;
  opts.max_wait_us = 1000;
  serve::Batcher batcher(slot, factory, opts);
  kir::Kernel k = test_kernel();
  auto f1 = batcher.submit(k, hlssim::DesignConfig::neutral(k));
  auto f2 = batcher.submit(k, hlssim::DesignConfig::neutral(k));
  PredictResult r1 = f1.get(), r2 = f2.get();
  ASSERT_TRUE(r1.ok) << r1.error;
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_LT(r1.batch_size, 64);
  EXPECT_EQ(r1.batch_size, r2.batch_size);
}

TEST(ServeBatcher, StopFlushesPendingAndFailsLateSubmits) {
  ModelSlot slot;
  slot.install(make_snapshot(1));
  model::SampleFactory factory;
  BatcherOptions opts;
  opts.max_batch = 64;
  opts.max_wait_us = 60'000'000;  // only the shutdown drain can flush
  serve::Batcher batcher(slot, factory, opts);
  kir::Kernel k = test_kernel();
  std::vector<std::future<PredictResult>> futs;
  for (int i = 0; i < 3; ++i)
    futs.push_back(batcher.submit(k, hlssim::DesignConfig::neutral(k)));
  batcher.stop();
  for (auto& f : futs) {
    PredictResult r = f.get();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.batch_size, 3);
  }
  PredictResult late =
      batcher.submit(k, hlssim::DesignConfig::neutral(k)).get();
  EXPECT_FALSE(late.ok);
  EXPECT_NE(late.error.find("stopped"), std::string::npos);
}

TEST(ServeBatcher, BadRequestFailsAloneGoodNeighborsSurvive) {
  ModelSlot slot;
  slot.install(make_snapshot(1));
  model::SampleFactory factory;
  BatcherOptions opts;
  opts.max_batch = 3;
  opts.max_wait_us = 5'000'000;
  serve::Batcher batcher(slot, factory, opts);
  kir::Kernel k = test_kernel();
  auto good1 = batcher.submit(k, hlssim::DesignConfig::neutral(k));
  auto bad = batcher.submit(k, hlssim::DesignConfig{});  // loop mismatch
  auto good2 = batcher.submit(k, hlssim::DesignConfig::neutral(k));
  PredictResult rb = bad.get();
  EXPECT_FALSE(rb.ok);
  EXPECT_NE(rb.error.find("loops"), std::string::npos);
  PredictResult r1 = good1.get(), r2 = good2.get();
  ASSERT_TRUE(r1.ok) << r1.error;
  ASSERT_TRUE(r2.ok) << r2.error;
  // The failed request dropped out before inference: two rows in the batch.
  EXPECT_EQ(r1.batch_size, 2);
  EXPECT_EQ(r2.batch_size, 2);
  for (int i = 0; i < model::kNumObjectives; ++i)
    EXPECT_EQ(r1.predicted[i], r2.predicted[i]);
}

TEST(ServeBatcher, EmptySlotFailsWholeBatch) {
  ModelSlot slot;  // no snapshot installed
  model::SampleFactory factory;
  BatcherOptions opts;
  opts.max_batch = 2;
  opts.max_wait_us = 1000;
  serve::Batcher batcher(slot, factory, opts);
  kir::Kernel k = test_kernel();
  PredictResult r = batcher.submit(k, hlssim::DesignConfig::neutral(k)).get();
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("no model"), std::string::npos);
}

// ---------------------------------------------------------------- hot swap

TEST(ServeModelSlot, InstallStampsMonotonicVersions) {
  ModelSlot slot;
  EXPECT_EQ(slot.current(), nullptr);
  EXPECT_EQ(slot.install(make_snapshot(1)), 1u);
  EXPECT_EQ(slot.install(make_snapshot(2)), 2u);
  EXPECT_EQ(slot.current()->version, 2u);
}

TEST(ServeModelInstance, RebuildsOnlyOnVersionChange) {
  ModelSlot slot;
  slot.install(make_snapshot(1));
  ModelInstance instance;
  instance.ensure(slot.current());
  EXPECT_EQ(instance.version(), 1u);
  dse::ModelBundle b1 = instance.bundle();
  instance.ensure(slot.current());  // same version: no rebuild
  EXPECT_EQ(instance.bundle().regression_main, b1.regression_main);
  slot.install(make_snapshot(2));
  instance.ensure(slot.current());
  EXPECT_EQ(instance.version(), 2u);
  EXPECT_NE(instance.bundle().regression_main, b1.regression_main);
}

/// Hot swap under fire: submitter threads pound the batcher while the main
/// thread installs a new snapshot. Every response must be ok, carry one of
/// the two versions, and be bit-identical to the single-sample reference
/// prediction for the version it reports — no torn half-swapped weights.
TEST(ServeHotSwap, ConcurrentPredictsAreVersionConsistent) {
  auto snap1 = make_snapshot(11);
  auto snap2 = make_snapshot(22);
  kir::Kernel k = test_kernel();
  const hlssim::DesignConfig cfg = hlssim::DesignConfig::neutral(k);

  ModelSlot slot;
  slot.install(snap1);

  // Per-version references through private instances.
  PredictResult ref1, ref2;
  {
    ModelSlot ref_slot;
    ref_slot.install(make_snapshot(11));
    ModelInstance instance;
    instance.ensure(ref_slot.current());
    model::SampleFactory f;
    ref1 = serve::predict_single(instance, f, k, cfg);
    ref_slot.install(make_snapshot(22));
    instance.ensure(ref_slot.current());
    ref2 = serve::predict_single(instance, f, k, cfg);
  }
  ASSERT_TRUE(ref1.ok) << ref1.error;
  ASSERT_TRUE(ref2.ok) << ref2.error;

  model::SampleFactory factory;
  BatcherOptions opts;
  opts.max_batch = 8;
  opts.max_wait_us = 500;
  serve::Batcher batcher(slot, factory, opts);

  constexpr int kThreads = 4, kPerThread = 32;
  std::atomic<int> swapped_at{-1};
  std::vector<PredictResult> results(kThreads * kPerThread);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        results[t * kPerThread + i] = batcher.submit(k, cfg).get();
        if (t == 0 && i == kPerThread / 2) {
          slot.install(make_snapshot(22));
          swapped_at.store(i);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  batcher.stop();

  int v1 = 0, v2 = 0;
  for (const PredictResult& r : results) {
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_TRUE(r.model_version == 1 || r.model_version == 2);
    const PredictResult& ref = r.model_version == 1 ? ref1 : ref2;
    (r.model_version == 1 ? v1 : v2)++;
    for (int i = 0; i < model::kNumObjectives; ++i)
      EXPECT_EQ(r.predicted[i], ref.predicted[i]);
    EXPECT_EQ(r.p_valid, ref.p_valid);
  }
  EXPECT_GT(v1, 0);  // traffic before the swap...
  EXPECT_GT(v2, 0);  // ...and after it
}

// ------------------------------------------------------------- end-to-end

TEST(ServeServer, LoopbackPredictStatsDrain) {
  ModelSlot slot;
  slot.install(make_snapshot(5));
  model::SampleFactory factory;
  serve::ServerOptions so;
  so.port = 0;  // ephemeral
  so.batcher.max_batch = 8;
  so.batcher.max_wait_us = 500;
  serve::Server server(slot, factory, so);
  std::thread runner([&] { server.run(); });

  kir::Kernel k = test_kernel();
  serve::Socket sock = serve::connect_to("127.0.0.1", server.port());
  serve::LineReader lines(sock);
  // Pipeline two predicts and a stats call; responses arrive in order.
  ASSERT_TRUE(sock.send_line("{\"kind\":\"predict\",\"id\":1,\"kernel\":" +
                             kernel_json_line(k) + "}"));
  ASSERT_TRUE(sock.send_line("{\"kind\":\"predict\",\"id\":2,\"kernel\":" +
                             kernel_json_line(k) + "}"));
  ASSERT_TRUE(sock.send_line("{\"kind\":\"admin\",\"op\":\"stats\",\"id\":3}"));
  std::string l1, l2, l3;
  ASSERT_TRUE(lines.read_line(&l1));
  ASSERT_TRUE(lines.read_line(&l2));
  ASSERT_TRUE(lines.read_line(&l3));
  EXPECT_NE(l1.find("\"id\":1,\"ok\":true"), std::string::npos) << l1;
  EXPECT_NE(l2.find("\"id\":2,\"ok\":true"), std::string::npos) << l2;
  // Identical kernel+config: identical predictions regardless of batching.
  const auto pred_of = [](const std::string& s) {
    return s.substr(s.find("\"predicted\""));
  };
  EXPECT_EQ(pred_of(l1).substr(0, pred_of(l1).find(",\"model_version\"")),
            pred_of(l2).substr(0, pred_of(l2).find(",\"model_version\"")));
  EXPECT_NE(l3.find("\"op\":\"stats\""), std::string::npos) << l3;

  // Malformed request: error response, connection stays usable.
  ASSERT_TRUE(sock.send_line("{\"kind\":\"nope\"}"));
  std::string err;
  ASSERT_TRUE(lines.read_line(&err));
  EXPECT_NE(err.find("\"ok\":false"), std::string::npos) << err;

  ASSERT_TRUE(sock.send_line("{\"kind\":\"admin\",\"op\":\"drain\",\"id\":9}"));
  std::string drained;
  ASSERT_TRUE(lines.read_line(&drained));
  EXPECT_NE(drained.find("\"op\":\"drain\""), std::string::npos) << drained;
  runner.join();
}

// A line longer than serve::kMaxLineBytes is never buffered whole: the
// daemon answers it with one error line and closes that connection, and
// other connections keep working.
TEST(ServeServer, OversizeLineIsRejectedAndConnectionClosed) {
  ModelSlot slot;
  slot.install(make_snapshot(5));
  model::SampleFactory factory;
  serve::ServerOptions so;
  so.port = 0;
  serve::Server server(slot, factory, so);
  std::thread runner([&] { server.run(); });

  {
    serve::Socket sock = serve::connect_to("127.0.0.1", server.port());
    // A daemon that waits for the end of the line never answers: fail
    // after 10 s instead of hanging.
    const timeval timeout{10, 0};
    ::setsockopt(sock.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    serve::LineReader lines(sock);
    // No newline anywhere: the reader must give up at the cap instead of
    // waiting for the end of the line.
    const std::string huge(serve::kMaxLineBytes + 8192, 'x');
    ASSERT_TRUE(sock.send_all(huge.data(), huge.size()));
    std::string err;
    ASSERT_TRUE(lines.read_line(&err));
    EXPECT_NE(err.find("\"ok\":false"), std::string::npos) << err;
    EXPECT_NE(err.find("exceeds"), std::string::npos) << err;
    std::string more;
    EXPECT_FALSE(lines.read_line(&more));  // server closed the connection
  }

  kir::Kernel k = test_kernel();
  serve::Socket sock = serve::connect_to("127.0.0.1", server.port());
  serve::LineReader lines(sock);
  ASSERT_TRUE(sock.send_line("{\"kind\":\"predict\",\"id\":1,\"kernel\":" +
                             kernel_json_line(k) + "}"));
  std::string resp;
  ASSERT_TRUE(lines.read_line(&resp));
  EXPECT_NE(resp.find("\"id\":1,\"ok\":true"), std::string::npos) << resp;

  ASSERT_TRUE(sock.send_line("{\"kind\":\"admin\",\"op\":\"drain\",\"id\":9}"));
  std::string drained;
  ASSERT_TRUE(lines.read_line(&drained));
  runner.join();
}

// The sweep engine runs inside the daemon's sweep jobs while the batcher
// keeps serving predict traffic. Fire predicts from two
// connections for the whole life of a sweep job (this binary runs under
// TSan via scripts/check_tsan.sh — the point is the concurrency, not the
// sweep's outcome) and require every predict to succeed and the terminal
// poll to carry the per-stage breakdown.
TEST(ServeStress, SweepUnderConcurrentPredictFire) {
  ModelSlot slot;
  slot.install(make_snapshot(7));
  model::SampleFactory factory;
  serve::ServerOptions so;
  so.port = 0;
  so.batcher.max_batch = 4;
  so.batcher.max_wait_us = 200;
  serve::Server server(slot, factory, so);
  std::thread runner([&] { server.run(); });

  kir::Kernel k = test_kernel();
  const std::string kj = kernel_json_line(k);

  serve::Socket sock = serve::connect_to("127.0.0.1", server.port());
  serve::LineReader lines(sock);
  ASSERT_TRUE(sock.send_line("{\"kind\":\"sweep\",\"id\":1,\"kernel\":" + kj +
                             ",\"time_limit\":30}"));
  std::string resp;
  ASSERT_TRUE(lines.read_line(&resp));
  const auto jstart = resp.find("\"job\":\"");
  ASSERT_NE(jstart, std::string::npos) << resp;
  const auto jpos = jstart + std::strlen("\"job\":\"");
  const std::string job = resp.substr(jpos, resp.find('"', jpos) - jpos);

  std::atomic<bool> stop{false};
  std::atomic<int> fired{0};
  auto fire = [&] {
    serve::Socket s = serve::connect_to("127.0.0.1", server.port());
    serve::LineReader lr(s);
    while (!stop.load(std::memory_order_relaxed)) {
      if (!s.send_line("{\"kind\":\"predict\",\"kernel\":" + kj + "}")) break;
      std::string l;
      if (!lr.read_line(&l)) break;
      EXPECT_NE(l.find("\"ok\":true"), std::string::npos) << l;
      ++fired;
    }
  };
  std::thread f1(fire), f2(fire);

  // Poll while traffic flows; after a grace period cancel the job so the
  // test's duration doesn't depend on the generated kernel's space size.
  std::string terminal;
  bool cancel_sent = false;
  for (int polls = 0; terminal.empty(); ++polls) {
    ASSERT_TRUE(sock.send_line("{\"kind\":\"poll\",\"job\":\"" + job + "\"}"));
    ASSERT_TRUE(lines.read_line(&resp));
    ASSERT_EQ(resp.find("\"ok\":false"), std::string::npos) << resp;
    if (resp.find("\"state\":\"running\"") == std::string::npos) {
      terminal = resp;
      break;
    }
    if (polls >= 20 && !cancel_sent) {
      ASSERT_TRUE(
          sock.send_line("{\"kind\":\"cancel\",\"job\":\"" + job + "\"}"));
      ASSERT_TRUE(lines.read_line(&resp));
      cancel_sent = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop.store(true);
  f1.join();
  f2.join();

  EXPECT_GT(fired.load(), 0);
  // Exactly the four stage timings, wall_ms last.
  const auto stages = terminal.find("\"stages\":{\"featurize_ms\":");
  ASSERT_NE(stages, std::string::npos) << terminal;
  const std::string obj =
      terminal.substr(stages, terminal.find('}', stages) - stages);
  EXPECT_EQ(std::count(obj.begin(), obj.end(), ','), 3) << obj;
  EXPECT_NE(obj.find(",\"wall_ms\":"), std::string::npos) << obj;

  ASSERT_TRUE(sock.send_line("{\"kind\":\"admin\",\"op\":\"drain\",\"id\":9}"));
  std::string drained;
  ASSERT_TRUE(lines.read_line(&drained));
  runner.join();
}

// A long-lived daemon must not keep every finished sweep: accepting a
// sweep joins and drops the oldest finished jobs beyond
// serve::kMaxFinishedJobs, and polling a dropped job answers "unknown job".
TEST(ServeServer, FinishedSweepJobsAreCapped) {
  ModelSlot slot;
  slot.install(make_snapshot(5));
  model::SampleFactory factory;
  serve::ServerOptions so;
  so.port = 0;
  serve::Server server(slot, factory, so);
  std::thread runner([&] { server.run(); });

  const std::string kj = kernel_json_line(test_kernel());
  serve::Socket sock = serve::connect_to("127.0.0.1", server.port());
  serve::LineReader lines(sock);
  const auto call = [&](const std::string& request) {
    std::string resp;
    EXPECT_TRUE(sock.send_line(request));
    EXPECT_TRUE(lines.read_line(&resp));
    return resp;
  };
  const auto poll = [&](const std::string& job) {
    return call("{\"kind\":\"poll\",\"job\":\"" + job + "\"}");
  };
  const auto number_after = [](const std::string& s, const std::string& key) {
    const auto pos = s.find("\"" + key + "\":");
    EXPECT_NE(pos, std::string::npos) << key << " in " << s;
    return std::stoul(s.substr(pos + key.size() + 3));
  };

  // One tiny sweep at a time, each polled until it finishes.
  std::vector<std::string> jobs;
  for (std::size_t n = 0; n < serve::kMaxFinishedJobs + 2; ++n) {
    const std::string resp = call("{\"kind\":\"sweep\",\"kernel\":" + kj +
                                  ",\"time_limit\":0.01,\"top_m\":1}");
    const auto jstart = resp.find("\"job\":\"");
    ASSERT_NE(jstart, std::string::npos) << resp;
    const auto jpos = jstart + std::strlen("\"job\":\"");
    jobs.push_back(resp.substr(jpos, resp.find('"', jpos) - jpos));
    while (poll(jobs.back()).find("\"state\":\"running\"") !=
           std::string::npos)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const std::string oldest = poll(jobs.front());
  EXPECT_NE(oldest.find("\"ok\":false"), std::string::npos) << oldest;
  EXPECT_NE(oldest.find("unknown job"), std::string::npos) << oldest;
  const std::string newest = poll(jobs.back());
  EXPECT_NE(newest.find("\"state\":\"done\""), std::string::npos) << newest;

  const std::string stats = call("{\"kind\":\"admin\",\"op\":\"stats\"}");
  EXPECT_LE(number_after(stats, "jobs"),
            serve::kMaxFinishedJobs + number_after(stats, "jobs_running"))
      << stats;

  call("{\"kind\":\"admin\",\"op\":\"drain\",\"id\":9}");
  runner.join();
}

// A running sweep's poll reports that job's own progress. Two sweeps run
// concurrently over whole design spaces of different sizes, after a first
// sweep has already advanced the process-wide dse.configs_explored
// counter; no poll of either job may report more configs than its own
// space holds, the budget an exhaustive sweep cannot exceed.
TEST(ServeServer, ConcurrentSweepPollsReportOwnProgress) {
  obs::set_enabled(true);  // the process-wide dse.* metrics record
  ModelSlot slot;
  slot.install(make_snapshot(11));
  model::SampleFactory factory;
  serve::ServerOptions so;
  so.port = 0;
  serve::Server server(slot, factory, so);
  std::thread runner([&] { server.run(); });

  // Two generated kernels with exhaustively swept spaces of different
  // sizes, each spanning several 256-config chunks.
  std::vector<kir::Kernel> picked;
  std::vector<std::uint64_t> budget;
  for (std::uint64_t seed = 1; picked.size() < 2 && seed < 200; ++seed) {
    kir::Kernel k = test_kernel(seed);
    const std::uint64_t n = dspace::DesignSpace(k).pruned_size();
    if (n < 600 || n > 4000 || (!budget.empty() && n == budget[0])) continue;
    picked.push_back(std::move(k));
    budget.push_back(n);
  }
  ASSERT_EQ(picked.size(), 2u);
  const std::size_t big = budget[0] > budget[1] ? 0 : 1;

  serve::Socket sock = serve::connect_to("127.0.0.1", server.port());
  serve::LineReader lines(sock);
  const auto call = [&](const std::string& request) {
    std::string resp;
    EXPECT_TRUE(sock.send_line(request));
    EXPECT_TRUE(lines.read_line(&resp));
    return resp;
  };
  const auto sweep = [&](std::size_t i) {
    const std::string resp =
        call("{\"kind\":\"sweep\",\"kernel\":" + kernel_json_line(picked[i]) +
             ",\"time_limit\":60,\"top_m\":1}");
    const auto jstart = resp.find("\"job\":\"");
    EXPECT_NE(jstart, std::string::npos) << resp;
    const auto jpos = jstart + std::strlen("\"job\":\"");
    return resp.substr(jpos, resp.find('"', jpos) - jpos);
  };
  const auto number_after = [](const std::string& s, const std::string& key) {
    const auto pos = s.find("\"" + key + "\":");
    EXPECT_NE(pos, std::string::npos) << key << " in " << s;
    return std::stoull(s.substr(pos + key.size() + 3));
  };
  // Polls `job` until it finishes; every answer must stay within `limit`.
  // Returns false once the job is done.
  const auto poll_within = [&](const std::string& job, std::uint64_t limit) {
    const std::string resp = call("{\"kind\":\"poll\",\"job\":\"" + job + "\"}");
    EXPECT_EQ(resp.find("\"ok\":false"), std::string::npos) << resp;
    const bool running = resp.find("\"state\":\"running\"") != std::string::npos;
    EXPECT_LE(number_after(resp, running ? "configs_explored" : "num_explored"),
              limit)
        << resp;
    return running;
  };

  // The first sweep runs alone, to completion.
  const std::string first = sweep(big);
  while (poll_within(first, budget[big]))
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // Then both kernels at once, the smaller one submitted last and polled
  // first.
  const std::string a = sweep(big);
  const std::string b = sweep(1 - big);
  bool a_running = true, b_running = true;
  while (a_running || b_running) {
    if (b_running) b_running = poll_within(b, budget[1 - big]);
    if (a_running) a_running = poll_within(a, budget[big]);
  }

  call("{\"kind\":\"admin\",\"op\":\"drain\",\"id\":9}");
  runner.join();
  obs::set_enabled(false);
}

// ------------------------------------------------------- eviction at scale

/// A serving daemon's working set is unbounded: many clients, many
/// kernels, one byte budget. Stream ~1000 generated kernels through one
/// SampleFactory under a tight template budget and require (a) eviction
/// telemetry fires, (b) the resident estimate respects the budget, and
/// (c) re-faulting an evicted template reproduces its features
/// bit-for-bit.
TEST(ServeScale, TemplateEvictionRefaultsBitIdentically) {
  obs::set_enabled(true);
  obs::Counter& evictions = obs::counter("gnn.template_evictions");
  const std::int64_t before = evictions.value();

  kernels::GeneratorConfig cfg = small_cfg();
  cfg.max_loops = 2;
  cfg.max_depth = 1;
  constexpr int kKernels = 1000;
  const std::vector<kir::Kernel> ks =
      kernels::generate_batch(cfg, /*base_seed=*/100, kKernels);

  constexpr std::int64_t kBudget = 1 << 20;  // 1 MiB: constant pressure
  model::SampleFactory factory(kBudget);

  const gnn::GraphData first =
      factory.featurize(ks[0], hlssim::DesignConfig::neutral(ks[0]));
  for (int i = 1; i < kKernels; ++i)
    factory.featurize(ks[static_cast<std::size_t>(i)],
                      hlssim::DesignConfig::neutral(
                          ks[static_cast<std::size_t>(i)]));

  EXPECT_GT(evictions.value(), before);
  EXPECT_LE(obs::gauge("gnn.template_bytes").value(),
            static_cast<double>(kBudget));

  // ks[0]'s template is long evicted; re-faulting must rebuild the exact
  // same features.
  const gnn::GraphData again =
      factory.featurize(ks[0], hlssim::DesignConfig::neutral(ks[0]));
  ASSERT_EQ(again.x.shape(), first.x.shape());
  ASSERT_EQ(again.e.shape(), first.e.shape());
  EXPECT_TRUE(std::equal(first.x.data(), first.x.data() + first.x.numel(),
                         again.x.data()));
  EXPECT_TRUE(std::equal(first.e.data(), first.e.data() + first.e.numel(),
                         again.e.data()));
  EXPECT_EQ(first.src, again.src);
  EXPECT_EQ(first.dst, again.dst);
  ASSERT_EQ(again.aux.shape(), first.aux.shape());
  EXPECT_TRUE(std::equal(first.aux.data(), first.aux.data() + first.aux.numel(),
                         again.aux.data()));
}

}  // namespace
}  // namespace gnndse
