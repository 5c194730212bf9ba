// The pinned model bundle: trained once per checkout by `bench_e2e
// prepare`, cached under a key derived from its recipe, and verified by
// hash every time a run loads it.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "db/explorer.hpp"
#include "dse/pipeline.hpp"
#include "e2e.hpp"
#include "kernels/kernels.hpp"
#include "model/weights.hpp"
#include "oracle/stack.hpp"
#include "util/timer.hpp"

namespace gnndse::bench_e2e {

namespace {

namespace fs = std::filesystem;

const char* const kHeads[] = {"main", "bram", "cls"};

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string file_hash(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("bundle: cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return hex(fnv1a(ss.str()));
}

std::string bundle_dir(const BundleSpec& spec, const std::string& cache_dir) {
  return cache_dir + "/" + spec.key();
}

/// manifest.txt: one "field value" pair per line.
std::map<std::string, std::string> read_manifest(const std::string& dir) {
  std::map<std::string, std::string> m;
  std::ifstream in(dir + "/manifest.txt");
  std::string line;
  while (std::getline(in, line)) {
    const auto sp = line.find(' ');
    if (sp != std::string::npos) m[line.substr(0, sp)] = line.substr(sp + 1);
  }
  return m;
}

/// Empty when the bundle in `dir` matches `spec` and every weight file
/// matches its recorded hash; otherwise the reason it does not.
std::string verify(const BundleSpec& spec, const std::string& dir,
                   const std::map<std::string, std::string>& m) {
  if (m.empty()) return "no manifest in " + dir;
  auto it = m.find("spec");
  if (it == m.end() || it->second != spec.describe())
    return "manifest in " + dir + " describes another bundle";
  for (const char* head : kHeads) {
    const std::string path = dir + "/bundle." + head + ".bin";
    auto h = m.find(head);
    if (h == m.end() || !fs::exists(path) || file_hash(path) != h->second)
      return "weight file " + path + " does not match its recorded hash";
  }
  if (!m.count("norm_factor")) return "manifest in " + dir + " lacks norm_factor";
  return "";
}

}  // namespace

std::string BundleSpec::describe() const {
  std::ostringstream ss;
  ss << "M7 hidden=" << hidden << " layers=" << layers
     << " epochs=" << main_epochs << "/" << bram_epochs << "/" << cls_epochs
     << " db_seed=" << db_seed << " split_seed=" << split_seed;
  return ss.str();
}

std::string BundleSpec::key() const { return hex(fnv1a(describe())); }

model::ModelOptions BundleSpec::model() const {
  model::ModelOptions mo;
  mo.kind = model::ModelKind::kM7Full;
  mo.hidden = hidden;
  mo.gnn_layers = layers;
  return mo;
}

Heads make_heads(model::ModelOptions base, int main_epochs, int bram_epochs,
                 int cls_epochs, std::uint64_t seed) {
  const dse::PipelineOptions po;
  util::Rng rng(seed);
  Heads h;
  base.out_dim = 4;
  h.main = std::make_unique<model::PredictiveModel>(base, rng);
  base.out_dim = 1;
  h.bram = std::make_unique<model::PredictiveModel>(base, rng);
  h.cls = std::make_unique<model::PredictiveModel>(base, rng);
  model::TrainOptions to;
  to.epochs = main_epochs;
  to.batch_size = po.batch_size;
  to.lr = po.lr;
  to.seed = seed;
  h.main_t = std::make_unique<model::Trainer>(*h.main, to);
  model::TrainOptions tb = to;
  tb.objectives = {model::kBram};
  tb.epochs = bram_epochs;
  h.bram_t = std::make_unique<model::Trainer>(*h.bram, tb);
  model::TrainOptions tc = to;
  tc.task = model::Task::kClassification;
  tc.epochs = cls_epochs;
  tc.lr = po.cls_lr;
  h.cls_t = std::make_unique<model::Trainer>(*h.cls, tc);
  return h;
}

BundleSpec pinned_spec(bool smoke) {
  BundleSpec s;
  if (smoke) {
    s.hidden = 16;
    s.main_epochs = s.bram_epochs = s.cls_epochs = 1;
  }
  return s;
}

HeldOut make_heldout(const BundleSpec& spec, model::SampleFactory& factory) {
  HeldOut h;
  h.kernels = kernels::make_training_kernels();
  // Default options, not the environment: fault injection or a persistent
  // cache must not change what the bundle is trained on.
  oracle::OracleStack oracle{oracle::OracleOptions{}};
  util::Rng rng(spec.db_seed);
  h.database = db::generate_initial_database(h.kernels, oracle, rng);
  h.norm = model::Normalizer::fit(h.database.points());
  h.dataset = model::build_dataset(h.database, h.kernels, h.norm, factory);
  util::Rng split_rng(spec.split_seed);
  std::tie(h.train, h.test) =
      model::Dataset::split(h.dataset.all_indices(), 0.8, split_rng);
  return h;
}

double prepare_bundle(const BundleSpec& spec, const std::string& cache_dir) {
  const std::string dir = bundle_dir(spec, cache_dir);
  if (verify(spec, dir, read_manifest(dir)).empty()) return 0.0;

  util::Timer timer;
  fs::create_directories(dir);
  model::SampleFactory factory;
  HeldOut h = make_heldout(spec, factory);
  std::vector<std::size_t> train_valid;
  for (std::size_t i : h.train)
    if (h.dataset.samples[i].valid) train_valid.push_back(i);

  // Same recipe as dse::TrainedModels, on the 80% split only.
  const Heads heads =
      make_heads(spec.model(), spec.main_epochs, spec.bram_epochs,
                 spec.cls_epochs, dse::PipelineOptions{}.seed);
  heads.main_t->fit(h.dataset, train_valid);
  heads.bram_t->fit(h.dataset, train_valid);
  heads.cls_t->fit(h.dataset, h.train);

  model::PredictiveModel* models[] = {heads.main.get(), heads.bram.get(),
                                      heads.cls.get()};
  std::ostringstream manifest;
  manifest << "spec " << spec.describe() << "\n";
  char norm[64];
  std::snprintf(norm, sizeof norm, "%.17g", h.norm.norm_factor());
  manifest << "norm_factor " << norm << "\n";
  for (int i = 0; i < 3; ++i) {
    const std::string path = dir + "/bundle." + kHeads[i] + ".bin";
    model::save_params(models[i]->params(), path);
    manifest << kHeads[i] << " " << file_hash(path) << "\n";
  }
  // The manifest goes last and by rename: a bundle is complete iff its
  // manifest exists.
  {
    std::ofstream out(dir + "/manifest.tmp");
    out << manifest.str();
    if (!out) throw std::runtime_error("bundle: cannot write manifest");
  }
  fs::rename(dir + "/manifest.tmp", dir + "/manifest.txt");
  return timer.seconds();
}

Bundle load_bundle(const BundleSpec& spec, const std::string& cache_dir) {
  const std::string dir = bundle_dir(spec, cache_dir);
  const auto m = read_manifest(dir);
  if (const std::string why = verify(spec, dir, m); !why.empty())
    throw std::runtime_error("bundle: " + why + " (run `bench_e2e prepare`)");
  Bundle b;
  b.prefix = dir + "/bundle";
  b.snapshot = serve::snapshot_from_files(b.prefix, spec.model(),
                                          std::stod(m.at("norm_factor")));
  return b;
}

}  // namespace gnndse::bench_e2e
