// Fig 5: node-attention scores for a design of the stencil kernel.
//
// The paper's qualitative claim: pragma nodes are among the most important
// nodes for the graph-level embedding, modulated by loop context (the icmp
// trip-count comparison and the i32 bound feeding it). We print the
// top-attention nodes and the attention mass captured by pragma nodes
// (pragma nodes are ~7 of ~45 nodes; uniform attention would give them
// ~15% of the mass).
#include <cstdio>
#include <iostream>

#include "analysis/attention.hpp"
#include "bench_common.hpp"
#include "util/table.hpp"

using namespace gnndse;

int main() {
  auto session = bench::make_report_session("bench_fig5_attention");
  oracle::OracleStack oracle;
  auto kernels = kernels::make_training_kernels();
  db::Database database = bench::make_initial_database(oracle);
  model::SampleFactory factory;
  dse::PipelineOptions po = bench::scaled_pipeline_options();
  dse::TrainedModels models(database, kernels, factory, po,
                            bench::bundle_cache_prefix());

  const kir::Kernel stencil = kernels::Registry::global().get("stencil");
  // A mid-quality design: pipeline + moderate parallelization.
  auto best = database.best_valid("stencil");
  hlssim::DesignConfig cfg =
      best ? best->config : hlssim::DesignConfig::neutral(stencil);

  auto scores = analysis::attention_scores(models.main_model(), factory,
                                           stencil, cfg);
  util::Table t{"Fig 5: node attention scores, stencil design " + cfg.key()};
  t.header({"Rank", "Node", "Type", "Attention"});
  const char* type_names[] = {"instruction", "variable", "constant", "pragma"};
  for (std::size_t i = 0; i < scores.size() && i < 15; ++i) {
    t.row({util::Table::fmt_int(static_cast<long long>(i + 1)),
           scores[i].description,
           type_names[static_cast<int>(scores[i].type)],
           util::Table::fmt(scores[i].score, 4)});
  }
  t.print(std::cout);

  const double share = analysis::pragma_attention_share(scores);
  std::size_t pragma_nodes = 0;
  for (const auto& s : scores)
    if (s.type == graphgen::NodeType::kPragma) ++pragma_nodes;
  const double uniform_share =
      static_cast<double>(pragma_nodes) / static_cast<double>(scores.size());
  std::printf(
      "\npragma nodes hold %.1f%% of attention mass (%zu of %zu nodes; "
      "uniform would be %.1f%%) -> %s\n",
      100.0 * share, pragma_nodes, scores.size(), 100.0 * uniform_share,
      share > uniform_share ? "pragma nodes are over-attended, as in Fig 5"
                            : "no pragma over-attention at this scale");
  std::printf("[bench_fig5_attention] completed in %.1fs (scale: %s)\n",
              session.seconds(), bench::scale_tag());
  return 0;
}
