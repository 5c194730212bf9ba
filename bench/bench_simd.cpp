// SIMD dispatch layer microbenchmark: per-kernel scalar-vs-vector timings
// via util::set_simd_level on DSE-shaped inputs, plus an end-to-end
// fast-path inference sweep per dispatch level. Writes BENCH_simd.json
// with the host's core count, SIMD level and run scale. No test gates on
// these numbers: they are the evidence for keeping a vector body (a body
// that does not beat scalar on the target host gets deleted, see
// docs/performance.md).
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "gnn/infer.hpp"
#include "model/dataset.hpp"
#include "model/predictive_model.hpp"
#include "model/trainer.hpp"
#include "util/cpu.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace gnndse;

namespace {

template <typename Fn>
double median_seconds(int reps, Fn&& fn) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    util::Timer t;
    fn();
    times.push_back(t.seconds());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

tensor::Tensor random_tensor(std::vector<std::int64_t> shape, util::Rng& rng) {
  tensor::Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i)
    t.at(i) = static_cast<float>(rng.uniform(-2.0, 2.0));
  return t;
}

struct KernelResult {
  std::string name;
  // Seconds per level; 0 when the host lacks the level.
  double seconds[3] = {0.0, 0.0, 0.0};

  double speedup(util::SimdLevel lvl) const {
    const double s = seconds[static_cast<int>(lvl)];
    return s > 0.0 ? seconds[0] / s : 0.0;
  }
  double best_speedup() const {
    return std::max(speedup(util::SimdLevel::kAvx2),
                    speedup(util::SimdLevel::kAvx512));
  }
};

std::vector<util::SimdLevel> available_levels() {
  std::vector<util::SimdLevel> out{util::SimdLevel::kScalar};
  const util::SimdLevel cap = util::detect_simd_level();
  if (cap >= util::SimdLevel::kAvx2) out.push_back(util::SimdLevel::kAvx2);
  if (cap >= util::SimdLevel::kAvx512) out.push_back(util::SimdLevel::kAvx512);
  return out;
}

}  // namespace

int main() {
  auto session = bench::make_report_session("bench_simd");
  const auto levels = available_levels();
  util::log_info("detected simd level: ",
                 util::simd_level_name(util::detect_simd_level()));

  // ---------------------------------------------------------------------
  // Per-kernel timings on DSE-chunk-shaped inputs (mid-size batched graph:
  // ~2k nodes, ~6k edges, hidden width 64). Single-threaded so the ratio
  // isolates the kernel, not the pool.
  // ---------------------------------------------------------------------
  util::set_parallel_threads(1);
  const std::int64_t n = 2048, e = 6144, c = 64;
  const int iters = util::by_scale(20, 60, 200);
  const int reps = util::by_scale(3, 5, 7);
  util::Rng rng(41);
  const tensor::Tensor x = random_tensor({n, c}, rng);
  const tensor::Tensor y = random_tensor({n, c}, rng);
  const tensor::Tensor beta = random_tensor({n, 1}, rng);
  const tensor::Tensor cat = random_tensor({n, 3 * c}, rng);
  const tensor::Tensor ek = random_tensor({e, c}, rng);
  const tensor::Tensor escores = random_tensor({e, 1}, rng);
  const tensor::Tensor alpha = random_tensor({e, 1}, rng);
  const tensor::Tensor w = random_tensor({c, c}, rng);
  const tensor::Tensor wg = random_tensor({3 * c, 1}, rng);
  std::vector<std::int32_t> src(static_cast<std::size_t>(e)),
      dst(static_cast<std::size_t>(e)), seg(static_cast<std::size_t>(e));
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::int32_t>(
        rng.uniform_int(static_cast<std::uint64_t>(n)));
    dst[i] = static_cast<std::int32_t>(
        rng.uniform_int(static_cast<std::uint64_t>(n)));
    seg[i] = dst[i];
  }

  gnn::InferenceSession s;
  struct Op {
    const char* name;
    std::function<void()> run;
  };
  const std::vector<Op> ops = {
      {"residual_concat", [&] { s.residual_concat(x, y); }},
      {"gated_mix", [&] { s.gated_mix(x, beta, cat); }},
      {"edge_attention_scores",
       [&] { s.edge_attention_scores(x, y, ek, src, dst, nullptr, 0.125f); }},
      {"weighted_scatter_add",
       [&] { s.weighted_scatter_add(alpha.data(), x, ek, src, dst, nullptr, n); }},
      {"segment_softmax", [&] { s.segment_softmax(escores, seg, n); }},
      {"matmul", [&] { s.linear(x, w, nullptr); }},
      // The TransformerConv gate: [rows,3c] x [3c,1], the n == 1 body.
      {"matmul_gate", [&] { s.linear(cat, wg, nullptr); }},
  };

  std::vector<KernelResult> results;
  for (const Op& op : ops) {
    KernelResult kr;
    kr.name = op.name;
    for (util::SimdLevel lvl : levels) {
      util::set_simd_level(lvl);
      s.begin();
      op.run();  // warm-up: workspace slot + code paths
      kr.seconds[static_cast<int>(lvl)] = median_seconds(reps, [&] {
                                            for (int i = 0; i < iters; ++i) {
                                              s.begin();
                                              op.run();
                                            }
                                          }) /
                                          iters;
    }
    util::log_info(kr.name, ": scalar=", kr.seconds[0] * 1e6,
                   "us best_speedup=", kr.best_speedup());
    results.push_back(std::move(kr));
  }

  // ---------------------------------------------------------------------
  // End-to-end: the fast-path inference sweep (featurize once, predict a
  // DSE-chunk-sized batch) per dispatch level, default thread pool.
  // ---------------------------------------------------------------------
  util::set_parallel_threads(0);
  const kir::Kernel mvt = kernels::Registry::global().get("mvt");
  const int batch = util::by_scale(128, 512, 2048);
  model::SampleFactory factory;
  util::Rng grng(17);
  const auto& space = factory.space(mvt);
  std::vector<gnn::GraphData> graphs;
  graphs.reserve(static_cast<std::size_t>(batch));
  for (int i = 0; i < batch; ++i)
    graphs.push_back(factory.featurize(mvt, space.sample(grng)));
  std::vector<const gnn::GraphData*> ptrs;
  for (const auto& g : graphs) ptrs.push_back(&g);

  model::ModelOptions mo;
  mo.kind = model::ModelKind::kM7Full;
  mo.hidden = 64;
  mo.out_dim = 4;
  util::Rng mrng(11);
  model::PredictiveModel model(mo, mrng);
  model::Trainer trainer(model, model::TrainOptions{});

  KernelResult e2e;  // predict_batch seconds per level
  for (util::SimdLevel lvl : levels) {
    util::set_simd_level(lvl);
    trainer.predict_graphs(ptrs);  // warm-up
    e2e.seconds[static_cast<int>(lvl)] =
        median_seconds(reps, [&] { trainer.predict_graphs(ptrs); });
    util::log_info("predict_batch ", util::simd_level_name(lvl), ": ",
                   e2e.seconds[static_cast<int>(lvl)], "s for ", batch,
                   " configs");
  }
  util::set_simd_level(util::detect_simd_level());

  // ---------------------------------------------------------------------
  // Emit BENCH_simd.json + console table.
  // ---------------------------------------------------------------------
  std::ofstream out("BENCH_simd.json");
  out << "{\n"
      << "  \"host\": " << bench::host_json() << ",\n";
  out << "  \"kernels\": {\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const KernelResult& kr = results[i];
    out << "    \"" << kr.name << "\": {\n"
        << "      \"scalar_us\": " << kr.seconds[0] * 1e6 << ",\n"
        << "      \"avx2_us\": " << kr.seconds[1] * 1e6 << ",\n"
        << "      \"avx512_us\": " << kr.seconds[2] * 1e6 << ",\n"
        << "      \"speedup_avx2\": " << kr.speedup(util::SimdLevel::kAvx2)
        << ",\n"
        << "      \"speedup_avx512\": " << kr.speedup(util::SimdLevel::kAvx512)
        << ",\n"
        << "      \"speedup_best\": " << kr.best_speedup() << "\n"
        << "    }" << (i + 1 < results.size() ? ",\n" : "\n");
  }
  out << "  },\n";
  out << "  \"predict_batch\": {\n"
      << "    \"configs\": " << batch << ",\n"
      << "    \"scalar_seconds\": " << e2e.seconds[0] << ",\n"
      << "    \"avx2_seconds\": " << e2e.seconds[1] << ",\n"
      << "    \"avx512_seconds\": " << e2e.seconds[2] << ",\n"
      << "    \"speedup_best\": " << e2e.best_speedup() << "\n  }\n}\n";

  util::Table table("SIMD kernel dispatch (scalar vs vector)");
  table.header({"kernel", "scalar us", "avx2 us", "avx512 us", "best x"});
  for (const KernelResult& kr : results)
    table.row({kr.name, util::Table::fmt(kr.seconds[0] * 1e6, 2),
               util::Table::fmt(kr.seconds[1] * 1e6, 2),
               util::Table::fmt(kr.seconds[2] * 1e6, 2),
               util::Table::fmt(kr.best_speedup(), 2)});
  table.print(std::cout);
  std::cout << "wrote BENCH_simd.json\n";
  return 0;
}
