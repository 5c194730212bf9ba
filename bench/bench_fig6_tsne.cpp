// Fig 6: t-SNE visualization of stencil design configurations — initial
// embeddings (sum of initial node features) vs the embeddings learned by
// the GNN-DSE encoder, colored by latency.
//
// A 2-D scatter cannot be printed meaningfully, so this bench (a) writes
// both embeddings with latency labels to CSV for plotting, and (b) reports
// a quantitative proxy of the figure's message: the mean latency spread
// among each point's nearest 2-D neighbors, normalized by the global
// spread. The paper's claim — "only designs with similar latency cluster
// together" after the encoder — shows up as a much smaller spread for the
// learned embeddings.
#include <cstdio>
#include <iostream>

#include "analysis/tsne.hpp"
#include "bench_common.hpp"
#include "util/table.hpp"

using namespace gnndse;

int main() {
  auto session = bench::make_report_session("bench_fig6_tsne");
  oracle::OracleStack oracle;
  auto kernels = kernels::make_training_kernels();
  db::Database database = bench::make_initial_database(oracle);
  model::SampleFactory factory;
  dse::PipelineOptions po = bench::scaled_pipeline_options();
  dse::TrainedModels models(database, kernels, factory, po,
                            bench::bundle_cache_prefix());

  // All valid stencil designs in the database, as in the figure.
  model::Normalizer norm = models.normalizer();
  const kir::Kernel stencil = kernels::Registry::global().get("stencil");
  std::vector<gnn::GraphData> graphs;
  std::vector<float> latency_label;
  for (const auto& p : database.points()) {
    if (p.kernel != "stencil" || !p.result.valid) continue;
    graphs.push_back(factory.featurize(stencil, p.config));
    latency_label.push_back(norm.latency_target(p.result.cycles));
  }
  const std::size_t cap = util::by_scale<std::size_t>(120, 400, 1200);
  if (graphs.size() > cap) {
    graphs.resize(cap);
    latency_label.resize(cap);
  }
  std::printf("stencil designs: %zu\n", graphs.size());

  std::vector<const gnn::GraphData*> ptrs;
  for (const auto& g : graphs) ptrs.push_back(&g);

  // (a) initial embeddings: sum of the 124-d initial node features.
  tensor::Tensor initial_emb(
      {static_cast<std::int64_t>(graphs.size()), graphs[0].x.cols()});
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const auto& x = graphs[i].x;
    for (std::int64_t r = 0; r < x.rows(); ++r)
      for (std::int64_t c = 0; c < x.cols(); ++c)
        initial_emb.at(static_cast<std::int64_t>(i), c) += x.at(r, c);
  }
  // (b) embeddings learned by the GNN-DSE encoder.
  tensor::Tensor learned_emb = models.main_trainer().embed_graphs(ptrs);

  analysis::TsneOptions topts;
  topts.iterations = util::by_scale(150, 400, 800);
  tensor::Tensor y_initial = analysis::tsne(initial_emb, topts);
  tensor::Tensor y_learned = analysis::tsne(learned_emb, topts);

  const double spread_initial =
      analysis::neighborhood_label_spread(y_initial, latency_label);
  const double spread_learned =
      analysis::neighborhood_label_spread(y_learned, latency_label);

  util::Table t{"Fig 6: t-SNE of stencil design embeddings, colored by "
                "latency (neighborhood latency spread, lower = tighter "
                "clustering by latency)"};
  t.header({"Embedding", "Neighborhood latency spread"});
  t.row({"(a) initial (sum of node features)",
         util::Table::fmt(spread_initial, 4)});
  t.row({"(b) learned by GNN-DSE encoder",
         util::Table::fmt(spread_learned, 4)});
  t.print(std::cout);

  // CSV for external plotting: x, y, latency label, which embedding.
  util::Table csv;
  csv.header({"embedding", "x", "y", "latency_target"});
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const auto r = static_cast<std::int64_t>(i);
    csv.row({"initial", util::Table::fmt(y_initial.at(r, 0), 4),
             util::Table::fmt(y_initial.at(r, 1), 4),
             util::Table::fmt(latency_label[i], 4)});
    csv.row({"learned", util::Table::fmt(y_learned.at(r, 0), 4),
             util::Table::fmt(y_learned.at(r, 1), 4),
             util::Table::fmt(latency_label[i], 4)});
  }
  csv.write_csv("fig6_tsne.csv");

  std::printf(
      "\nlearned/initial spread ratio: %.2f (<1 reproduces Fig 6's "
      "clustering-by-latency)\nscatter data written to fig6_tsne.csv\n",
      spread_learned / std::max(1e-9, spread_initial));
  std::printf("[bench_fig6_tsne] completed in %.1fs (scale: %s)\n",
              session.seconds(), bench::scale_tag());
  return 0;
}
