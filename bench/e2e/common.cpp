#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>

#include "dspace/design_space.hpp"
#include "e2e.hpp"
#include "graphgen/program_graph.hpp"
#include "kernels/generator.hpp"

namespace gnndse::bench_e2e {

void Result::op(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

std::vector<kir::Kernel> generate_kernels(std::uint64_t seed, int count,
                                          const KernelBand& band) {
  kernels::GeneratorConfig gc;
  gc.name_prefix = "e2e";
  util::Rng rng(seed);
  std::vector<kir::Kernel> out;
  for (int tries = 0; static_cast<int>(out.size()) < count; ++tries) {
    if (tries > 1'000'000)
      throw std::runtime_error("no generated kernel fits the size band");
    kir::Kernel k = kernels::generate(gc, rng());
    const dspace::DesignSpace space(k);
    if (space.pruned_size() < band.min_space ||
        space.pruned_size() > band.max_space)
      continue;
    const std::int64_t nodes = graphgen::build_graph(k, space).num_nodes();
    if (nodes < band.min_nodes || nodes > band.max_nodes) continue;
    out.push_back(std::move(k));
  }
  return out;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

namespace {

double vm_hwm_mb(const std::string& status_path) {
  std::ifstream in(status_path);
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

}  // namespace

double peak_rss_mb() { return vm_hwm_mb("/proc/self/status"); }

double peak_rss_mb_of(int pid) {
  return vm_hwm_mb("/proc/" + std::to_string(pid) + "/status");
}

void QualityScore::add(const std::array<float, model::kNumObjectives>& predicted,
                       float p_valid, const hlssim::HlsResult& actual,
                       const model::Normalizer& norm) {
  ++n_;
  const bool said_valid = p_valid > 0.5f;
  if (said_valid && actual.valid) ++tp_;
  if (said_valid && !actual.valid) ++fp_;
  if (!said_valid && actual.valid) ++fn_;
  if (!actual.valid) return;
  ++n_valid_;
  const auto truth = norm.targets(actual);
  for (int o = 0; o < model::kNumObjectives; ++o) {
    const double d = static_cast<double>(predicted[o]) - truth[o];
    se_[o] += d * d;
  }
}

double QualityScore::rmse_all() const {
  if (n_valid_ == 0) return 0.0;
  double sum = 0.0;
  for (double se : se_) sum += std::sqrt(se / static_cast<double>(n_valid_));
  return sum;
}

double QualityScore::f1() const {
  const double denom = static_cast<double>(2 * tp_ + fp_ + fn_);
  return denom > 0 ? 2.0 * static_cast<double>(tp_) / denom : 0.0;
}

}  // namespace gnndse::bench_e2e
