// gnndse — command-line front end to the GNN-DSE reproduction.
//
//   gnndse list-kernels [--kernels DIR]       kernels + provenance + stats
//                                             (`list` is an alias)
//   gnndse eval <kernel> [--config KEY]       evaluate one design with HLS
//   gnndse graph <kernel> [--config KEY] [--out g.dot]
//   gnndse gen-kernels --count N [--seed S] [--out DIR] [--prefix P]
//                      [--max-loops N] [--max-depth D] [--max-trip T]
//   gnndse gen-db [--out db.csv] [--budget N] [--extension]
//                 [--kernels DIR] [--gen N --gen-seed S]
//   gnndse train [--db db.csv] [--epochs N] [--out PREFIX]
//                [--kernels DIR] [--gen N --gen-seed S]
//   gnndse dse <kernel> [--db db.csv] [--weights PREFIX] [--time SECONDS]
//   gnndse autodse <kernel> [--budget-hours H]
//   gnndse serve [--port P] [--db db.csv] [--weights PREFIX]
//                [--cache-dir DIR] [--budget N] [--epochs N] [--hidden H]
//                [--layers L] [--time S] [--top M]   (docs/serving.md)
//   gnndse predict <kernel> --weights PREFIX [--config KEY] [--hidden H]
//                [--layers L]                direct-inference reference for
//                                            serve responses
//   gnndse client [--port P] [--host H] [--request JSON]  one request (or
//                                            stdin lines) to a daemon
//
// Every <kernel> argument accepts either a registry name (see
// `list-kernels`) or a path to a .json kernel description (docs/kernels.md)
// — file kernels run the full pipeline with no recompile.
//
// Every command honors --report <path> (or the GNNDSE_REPORT env var): a
// machine-readable JSON run report — metrics registry plus the span tree —
// is written there on exit. --trace <path> (GNNDSE_TRACE) additionally
// writes a Chrome-trace JSON timeline loadable in Perfetto, and
// --heartbeat <path> (GNNDSE_HEARTBEAT, interval GNNDSE_HEARTBEAT_MS)
// streams live NDJSON progress samples while the command runs (see
// docs/observability.md).
#include <cstdio>
#include <filesystem>
#include <iostream>

#include "analysis/pareto.hpp"
#include "cli/args.hpp"
#include "db/explorer.hpp"
#include "dse/dse.hpp"
#include "dse/pipeline.hpp"
#include "frontend/kernel_json.hpp"
#include "graphgen/dot_export.hpp"
#include "kernels/generator.hpp"
#include "kernels/kernels.hpp"
#include "kernels/registry.hpp"
#include "obs/report.hpp"
#include "oracle/stack.hpp"
#include "serve/server.hpp"
#include "util/table.hpp"

using namespace gnndse;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: gnndse <list-kernels|eval|graph|gen-kernels|gen-db|"
               "train|dse|autodse|serve|predict|client> [args]\n"
               "  see the header of src/cli/main.cpp\n");
  return 2;
}

/// Registers any --kernels DIR file kernels into the global registry (so
/// list-kernels sees them and later lookups by name hit) and returns how
/// many were added. Shared by list-kernels/gen-db/train/dse.
std::size_t register_kernel_dir(const cli::Args& args) {
  if (!args.has("kernels")) return 0;
  return kernels::Registry::global().add_directory(args.get("kernels", ""))
      .size();
}

/// A kernel name or .json path -> kir::Kernel via the global registry.
kir::Kernel resolve_kernel(const std::string& name_or_path) {
  return kernels::Registry::global().resolve(name_or_path);
}

/// The kernels the surrogate trains on: the 9 builtin training kernels,
/// plus the extension set (--extension), plus every --kernels DIR file
/// kernel, plus --gen N seeded-generator kernels (--gen-seed S, default 1).
std::vector<kir::Kernel> training_set(const cli::Args& args) {
  auto ks = kernels::make_training_kernels();
  auto& reg = kernels::Registry::global();
  if (args.has("extension"))
    for (const auto& name : reg.names(kernels::Provenance::kExtension))
      ks.push_back(reg.get(name));
  if (args.has("kernels"))
    for (const auto& name : reg.add_directory(args.get("kernels", "")))
      ks.push_back(reg.get(name));
  const int gen = args.get_int("gen", 0);
  if (gen > 0) {
    kernels::GeneratorConfig cfg;
    const auto base = static_cast<std::uint64_t>(args.get_int("gen-seed", 1));
    for (auto& k : kernels::generate_batch(cfg, base, gen)) {
      reg.add(k, kernels::Provenance::kGenerated, "seed");
      ks.push_back(std::move(k));
    }
  }
  return ks;
}

int cmd_list_kernels(const cli::Args& args) {
  register_kernel_dir(args);
  auto& reg = kernels::Registry::global();
  util::Table t{"Kernels"};
  t.header({"Kernel", "Source", "Set", "#pragmas", "#configs (pruned)",
            "Loops", "Stmts"});
  auto set_of = [](const std::string& name,
                   const kernels::KernelEntry& e) -> const char* {
    for (const auto& n : kernels::training_kernel_names())
      if (n == name) return "training";
    for (const auto& n : kernels::unseen_kernel_names())
      if (n == name) return "unseen";
    if (e.provenance == kernels::Provenance::kExtension) return "extension";
    return "-";
  };
  for (const auto& name : reg.names()) {
    const auto& e = reg.entry(name);
    dspace::DesignSpace space(e.kernel);
    t.row({name, kernels::provenance_name(e.provenance), set_of(name, e),
           util::Table::fmt_int(e.kernel.num_pragma_sites()),
           util::Table::fmt_commas(static_cast<long long>(space.pruned_size())),
           util::Table::fmt_int(static_cast<long long>(e.kernel.loops.size())),
           util::Table::fmt_int(
               static_cast<long long>(e.kernel.stmts.size()))});
  }
  t.print(std::cout);
  std::printf("%zu kernels; pass a .json path to any command to run a file "
              "kernel (docs/kernels.md)\n",
              reg.size());
  return 0;
}

int cmd_gen_kernels(const cli::Args& args) {
  const int count = args.get_int("count", 0);
  if (count < 1) {
    std::fprintf(stderr, "gen-kernels: --count N (>= 1) is required\n");
    return 2;
  }
  kernels::GeneratorConfig cfg;
  cfg.name_prefix = args.get("prefix", cfg.name_prefix);
  cfg.max_loops = args.get_int("max-loops", cfg.max_loops);
  cfg.min_loops = std::min(cfg.min_loops, cfg.max_loops);
  cfg.max_depth = args.get_int("max-depth", cfg.max_depth);
  cfg.max_trip = args.get_int("max-trip", static_cast<int>(cfg.max_trip));
  cfg.min_trip = std::min(cfg.min_trip, cfg.max_trip);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::string out = args.get("out", "gen_kernels");
  std::filesystem::create_directories(out);
  for (int i = 0; i < count; ++i) {
    kir::Kernel k = kernels::generate(cfg, seed + static_cast<std::uint64_t>(i));
    frontend::save_kernel_file(k, out + "/" + k.name + ".json");
  }
  std::printf("wrote %d kernels (seeds %llu..%llu) -> %s/\n", count,
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(
                  seed + static_cast<std::uint64_t>(count) - 1),
              out.c_str());
  return 0;
}

int cmd_eval(const cli::Args& args) {
  if (args.positional().size() < 2) return usage();
  kir::Kernel k = resolve_kernel(args.positional()[1]);
  hlssim::DesignConfig cfg =
      args.has("config") ? hlssim::parse_config_key(args.get("config", ""))
                         : hlssim::DesignConfig::neutral(k);
  if (cfg.loops.size() != k.loops.size()) {
    std::fprintf(stderr, "config has %zu loops, kernel has %zu\n",
                 cfg.loops.size(), k.loops.size());
    return 1;
  }
  oracle::OracleStack oracle;
  auto r = oracle.evaluate(k, cfg);
  std::printf("kernel:  %s\nconfig:  %s\n", k.name.c_str(), cfg.key().c_str());
  if (!r.valid) {
    std::printf("INVALID: %s (synthesis clock: %.0fs)\n",
                r.invalid_reason.c_str(), r.synth_seconds);
    return 0;
  }
  std::printf(
      "cycles:  %.0f\nDSP:     %ld (%.1f%%)\nBRAM:    %ld (%.1f%%)\n"
      "LUT:     %ld (%.1f%%)\nFF:      %ld (%.1f%%)\nsynth:   %.0fs "
      "(simulated)\n",
      r.cycles, r.dsp, 100 * r.util_dsp, r.bram, 100 * r.util_bram, r.lut,
      100 * r.util_lut, r.ff, 100 * r.util_ff, r.synth_seconds);
  return 0;
}

int cmd_graph(const cli::Args& args) {
  if (args.positional().size() < 2) return usage();
  kir::Kernel k = resolve_kernel(args.positional()[1]);
  dspace::DesignSpace space(k);
  graphgen::ProgramGraph g = graphgen::build_graph(k, space);
  hlssim::DesignConfig cfg =
      args.has("config") ? hlssim::parse_config_key(args.get("config", ""))
                         : hlssim::DesignConfig::neutral(k);
  graphgen::DotOptions dopts;
  dopts.space = &space;
  dopts.config = &cfg;
  const std::string out = args.get("out", k.name + ".dot");
  graphgen::write_dot(g, out, dopts);
  std::printf("%s: %lld nodes, %lld edges -> %s\n", k.name.c_str(),
              static_cast<long long>(g.num_nodes()),
              static_cast<long long>(g.num_edges()), out.c_str());
  return 0;
}

int cmd_gen_db(const cli::Args& args) {
  oracle::OracleStack oracle;
  util::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 42)));
  auto kernels = training_set(args);
  const int budget = args.get_int("budget", 0);
  db::Database db =
      budget > 0 ? db::generate_initial_database(
                       kernels, oracle, rng,
                       [budget](const std::string&) { return budget; })
                 : db::generate_initial_database(kernels, oracle, rng);
  const std::string out = args.get("out", "gnndse_db.csv");
  db.save_csv(out);
  auto c = db.counts_total();
  std::printf("database: %zu points (%zu valid) -> %s\n", c.total, c.valid,
              out.c_str());
  return 0;
}

int cmd_train(const cli::Args& args) {
  // Parse every option before the expensive DB/training work so a
  // malformed value exits 2 immediately instead of minutes in.
  dse::PipelineOptions po;
  po.main_epochs = args.get_int("epochs", 30);
  po.bram_epochs = std::max(2, po.main_epochs / 2);
  po.classifier_epochs = std::max(2, po.main_epochs / 2);
  po.hidden = args.get_int("hidden", 64);
  po.verbose = args.has("verbose");
  const std::string prefix = args.get("out", "gnndse_bundle");
  oracle::OracleStack oracle;
  auto kernels = training_set(args);
  db::Database db;
  if (args.has("db")) {
    db = db::Database::load_csv(args.get("db", ""));
  } else {
    util::Rng rng(42);
    db = db::generate_initial_database(kernels, oracle, rng);
  }
  model::SampleFactory factory;
  dse::TrainedModels models(db, kernels, factory, po, prefix);
  std::printf("trained bundle saved as %s.{main,bram,cls}.bin "
              "(norm factor %.0f)\n",
              prefix.c_str(), models.normalizer().norm_factor());
  return 0;
}

int cmd_dse(const cli::Args& args) {
  if (args.positional().size() < 2) return usage();
  kir::Kernel target = resolve_kernel(args.positional()[1]);
  // Parse every option before the expensive DB/training work so a
  // malformed value exits 2 immediately instead of minutes in.
  dse::PipelineOptions po;
  po.main_epochs = args.get_int("epochs", 30);
  po.bram_epochs = std::max(2, po.main_epochs / 2);
  po.classifier_epochs = std::max(2, po.main_epochs / 2);
  dse::DseOptions dopts;
  dopts.time_limit_seconds = args.get_double("time", 60.0);
  dopts.top_m = args.get_int("top", 10);
  // The stack's cache turns top-M re-evaluations into oracle.hits.
  oracle::OracleStack oracle;
  auto kernels = training_set(args);
  db::Database db;
  if (args.has("db")) {
    db = db::Database::load_csv(args.get("db", ""));
  } else {
    util::Rng rng(42);
    db = db::generate_initial_database(kernels, oracle, rng);
  }
  model::SampleFactory factory;
  dse::TrainedModels models(db, kernels, factory, po,
                            args.get("weights", ""));
  dse::ModelDse model_dse(models.bundle(), models.normalizer(), factory);
  util::Rng rng(13);
  dse::DseResult r = model_dse.run(target, dopts, rng);
  auto ev = model_dse.evaluate_top(target, r, oracle);
  std::printf("explored %llu configs in %.1fs; HLS check %.0fs (simulated)\n",
              static_cast<unsigned long long>(r.num_explored),
              r.search_seconds, ev.hls_seconds);
  if (!ev.best) {
    std::printf("no valid design found in the top candidates\n");
    return 1;
  }
  std::printf("best design: %s\n  %.0f cycles, util dsp/bram/lut/ff = "
              "%.2f/%.2f/%.2f/%.2f\n",
              ev.best->config.key().c_str(), ev.best->result.cycles,
              ev.best->result.util_dsp, ev.best->result.util_bram,
              ev.best->result.util_lut, ev.best->result.util_ff);
  return 0;
}

int cmd_autodse(const cli::Args& args) {
  if (args.positional().size() < 2) return usage();
  kir::Kernel k = resolve_kernel(args.positional()[1]);
  oracle::OracleStack oracle;
  const double budget = args.get_double("budget-hours", 21.0) * 3600.0;
  auto out = dse::run_autodse_baseline(k, oracle, budget);
  std::printf("AutoDSE baseline on %s: %d evals, %.1f simulated hours\n"
              "best design: %s\n  %.0f cycles\n",
              k.name.c_str(), out.evals, out.simulated_seconds / 3600.0,
              out.best.key().c_str(), out.best_cycles);
  return 0;
}

int cmd_serve(const cli::Args& args) {
  // Parse every option before the expensive DB/training work so a
  // malformed value exits 2 immediately instead of minutes in.
  const int budget = args.get_int("budget", 0);
  dse::PipelineOptions po;
  po.main_epochs = args.get_int("epochs", 30);
  po.bram_epochs = std::max(2, po.main_epochs / 2);
  po.classifier_epochs = std::max(2, po.main_epochs / 2);
  po.hidden = args.get_int("hidden", 64);
  po.gnn_layers = args.get_int("layers", 6);
  serve::ServerOptions so;
  so.port = static_cast<std::uint16_t>(args.get_int("port", 0));
  so.weights_prefix = args.get("weights", "");
  so.cache_dir = args.get("cache-dir", "");
  so.sweep_time_limit = args.get_double("time", 5.0);
  so.top_m = args.get_int("top", 10);
  so.batcher = serve::BatcherOptions::from_env();

  oracle::OracleStack oracle;
  auto kernels = training_set(args);
  db::Database db;
  if (args.has("db")) {
    db = db::Database::load_csv(args.get("db", ""));
  } else {
    util::Rng rng(42);
    db = budget > 0 ? db::generate_initial_database(
                          kernels, oracle, rng,
                          [budget](const std::string&) { return budget; })
                    : db::generate_initial_database(kernels, oracle, rng);
  }
  model::SampleFactory factory;
  dse::TrainedModels models(db, kernels, factory, po,
                            args.get("weights", ""));

  serve::ModelSlot slot;
  slot.install(serve::snapshot_from_trained(
      models, models.normalizer().norm_factor()));
  serve::Server server(slot, factory, so);
  // Readiness line clients parse for the bound (possibly ephemeral) port.
  std::printf("gnndse serve: listening on 127.0.0.1:%u\n",
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);
  server.run();
  return 0;
}

int cmd_predict(const cli::Args& args) {
  if (args.positional().size() < 2) return usage();
  kir::Kernel k = resolve_kernel(args.positional()[1]);
  const std::string prefix = args.get("weights", "");
  if (prefix.empty()) {
    std::fprintf(stderr, "predict: --weights PREFIX is required\n");
    return 2;
  }
  hlssim::DesignConfig cfg =
      args.has("config") ? hlssim::parse_config_key(args.get("config", ""))
                         : hlssim::DesignConfig::neutral(k);
  if (cfg.loops.size() != k.loops.size()) {
    std::fprintf(stderr, "config has %zu loops, kernel has %zu\n",
                 cfg.loops.size(), k.loops.size());
    return 1;
  }
  model::ModelOptions base;
  base.hidden = args.get_int("hidden", 64);
  base.gnn_layers = args.get_int("layers", 6);
  serve::ModelSlot slot;
  slot.install(serve::snapshot_from_files(prefix, base, /*norm_factor=*/1.0));
  serve::ModelInstance instance;
  instance.ensure(slot.current());
  model::SampleFactory factory;
  serve::PredictResult r = serve::predict_single(instance, factory, k, cfg);
  if (!r.ok) {
    std::fprintf(stderr, "predict: %s\n", r.error.c_str());
    return 1;
  }
  // Same formatting as the daemon's predict responses, so outputs compare
  // as strings (scripts/check_serve.py relies on this).
  std::printf("{%s}\n", serve::predicted_fields(r.predicted, r.p_valid).c_str());
  return 0;
}

int cmd_client(const cli::Args& args) {
  const int port = args.get_int("port", 0);
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "client: --port P (1..65535) is required\n");
    return 2;
  }
  serve::Socket sock = serve::connect_to(args.get("host", "127.0.0.1"),
                                         static_cast<std::uint16_t>(port));
  serve::LineReader lines(sock);
  auto roundtrip = [&](const std::string& line) {
    if (!sock.send_line(line)) {
      std::fprintf(stderr, "client: send failed\n");
      return 1;
    }
    std::string resp;
    if (!lines.read_line(&resp)) {
      std::fprintf(stderr, "client: connection closed\n");
      return 1;
    }
    std::printf("%s\n", resp.c_str());
    return 0;
  };
  if (args.has("request")) return roundtrip(args.get("request", ""));
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (int rc = roundtrip(line)) return rc;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  cli::Args args(argc, argv);
  if (args.positional().empty()) return usage();
  const std::string& cmd = args.positional()[0];
  // Active when any of --report/--trace/--heartbeat is given (or the
  // GNNDSE_REPORT / GNNDSE_TRACE / GNNDSE_HEARTBEAT env vars are set):
  // enables telemetry, opens the root `pipeline` span, streams heartbeat
  // samples while running, and writes the report + Chrome trace on exit.
  obs::ReportSession report("gnndse." + cmd, args.get("report", ""),
                            args.get("trace", ""), args.get("heartbeat", ""));
  try {
    if (cmd == "list" || cmd == "list-kernels") return cmd_list_kernels(args);
    if (cmd == "eval") return cmd_eval(args);
    if (cmd == "graph") return cmd_graph(args);
    if (cmd == "gen-kernels") return cmd_gen_kernels(args);
    if (cmd == "gen-db") return cmd_gen_db(args);
    if (cmd == "train") return cmd_train(args);
    if (cmd == "dse") return cmd_dse(args);
    if (cmd == "autodse") return cmd_autodse(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "predict") return cmd_predict(args);
    if (cmd == "client") return cmd_client(args);
  } catch (const std::invalid_argument& e) {
    // Malformed option values (--gen x, --epochs ten) and bad --kernels
    // directories are usage errors: message + usage + exit code 2,
    // uniformly across verbs.
    std::fprintf(stderr, "gnndse %s: %s\n", cmd.c_str(), e.what());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gnndse %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  return usage();
}
