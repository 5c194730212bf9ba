#include "model/predictive_model.hpp"

#include <stdexcept>

#include "graphgen/featurize.hpp"
#include "model/dataset.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gnndse::model {

using tensor::Tape;
using tensor::VarId;

const char* to_string(ModelKind kind) {
  switch (kind) {
    case ModelKind::kM1MlpPragma: return "MLP-pragma (as in [7])";
    case ModelKind::kM2MlpContext: return "MLP-pragma-program context";
    case ModelKind::kM3Gcn: return "GNN-DSE- GCN";
    case ModelKind::kM4Gat: return "GNN-DSE- GAT";
    case ModelKind::kM5Tconv: return "GNN-DSE- TransformerConv";
    case ModelKind::kM6TconvJkn: return "GNN-DSE- TransformerConv + JKN";
    case ModelKind::kM7Full:
      return "GNN-DSE (TransformerConv + JKN + node att.)";
  }
  return "?";
}

PredictiveModel::PredictiveModel(const ModelOptions& opts, util::Rng& rng)
    : opts_(opts) {
  if (opts_.node_feat_dim == 0)
    opts_.node_feat_dim = graphgen::kNodeFeatureDim;
  if (opts_.edge_feat_dim == 0)
    opts_.edge_feat_dim = graphgen::kEdgeFeatureDim;
  if (opts_.pragma_vec_dim == 0)
    opts_.pragma_vec_dim =
        kMaxPragmaSites * graphgen::kPragmaVectorPerSite;

  const std::int64_t h = opts_.hidden;
  // The 4-layer MLP prediction head shared by every variant (§5.1).
  auto make_head = [&](std::int64_t in) {
    head_ = std::make_unique<gnn::Mlp>(
        std::vector<std::int64_t>{in, h, h / 2, h / 4, opts_.out_dim}, rng);
  };

  switch (opts_.kind) {
    case ModelKind::kM1MlpPragma:
      make_head(opts_.pragma_vec_dim);
      return;
    case ModelKind::kM2MlpContext:
      make_head(opts_.node_feat_dim);
      return;
    default:
      break;
  }

  for (int l = 0; l < opts_.gnn_layers; ++l) {
    const std::int64_t in = (l == 0) ? opts_.node_feat_dim : h;
    switch (opts_.kind) {
      case ModelKind::kM3Gcn:
        convs_.push_back(std::make_unique<gnn::GCNConv>(in, h, rng));
        break;
      case ModelKind::kM4Gat:
        convs_.push_back(std::make_unique<gnn::GATConv>(in, h, rng));
        break;
      default:
        convs_.push_back(std::make_unique<gnn::TransformerConv>(
            in, h, opts_.edge_feat_dim, rng, opts_.tconv_gated_residual));
        break;
    }
  }
  if (opts_.kind == ModelKind::kM7Full)
    att_pool_ = std::make_unique<gnn::AttentionPool>(h, rng);
  make_head(h);
}

VarId PredictiveModel::forward(Tape& t, const gnn::GraphBatch& b) {
  switch (opts_.kind) {
    case ModelKind::kM1MlpPragma: {
      if (b.aux.numel() == 0)
        throw std::invalid_argument("M1 needs pragma aux features");
      last_embedding_ = t.constant(b.aux);
      return head_->forward(t, last_embedding_);
    }
    case ModelKind::kM2MlpContext: {
      // Program context without a GNN: sum of the initial node embeddings.
      last_embedding_ = gnn::sum_pool(t, t.constant(b.x), b);
      return head_->forward(t, last_embedding_);
    }
    default:
      break;
  }

  VarId hcur = t.constant(b.x);
  std::vector<VarId> layer_outputs;
  layer_outputs.reserve(convs_.size());
  for (auto& conv : convs_) {
    hcur = t.elu(conv->forward(t, hcur, b));
    layer_outputs.push_back(hcur);
  }
  VarId node_repr = hcur;
  if (opts_.kind == ModelKind::kM6TconvJkn ||
      opts_.kind == ModelKind::kM7Full)
    node_repr = gnn::jumping_knowledge_max(t, layer_outputs);

  VarId graph_repr;
  if (opts_.kind == ModelKind::kM7Full)
    graph_repr = att_pool_->forward(t, node_repr, b);
  else
    graph_repr = gnn::sum_pool(t, node_repr, b);
  last_embedding_ = graph_repr;
  return head_->forward(t, graph_repr);
}

const tensor::Tensor& PredictiveModel::forward_infer(
    gnn::InferenceSession& s, const gnn::GraphBatch& b) {
  s.begin();
  if (opts_.kind == ModelKind::kM3Gcn || opts_.kind == ModelKind::kM4Gat) {
    // Table 2 ablations that DSE never runs: no tape-free layers, so the
    // tape forward runs and its results move into the workspace.
    Tape t;
    const VarId out = forward(t, b);
    last_embedding_infer_ = &s.copy(t.value(last_embedding_));
    return s.copy(t.value(out));
  }
  static obs::Counter& c_fast = obs::counter("gnn.fastpath_forwards");
  obs::add(c_fast);
  switch (opts_.kind) {
    case ModelKind::kM1MlpPragma: {
      if (b.aux.numel() == 0)
        throw std::invalid_argument("M1 needs pragma aux features");
      last_embedding_infer_ = &b.aux;
      return head_->forward_infer(s, b.aux);
    }
    case ModelKind::kM2MlpContext: {
      // Program context without a GNN: sum of the initial node embeddings.
      const tensor::Tensor& emb = gnn::sum_pool_infer(s, b.x, b);
      last_embedding_infer_ = &emb;
      return head_->forward_infer(s, emb);
    }
    default:
      break;
  }

  // Phase spans split a fast-path forward into its trace-visible stages:
  // message passing (+ JKN), graph pooling, and the prediction head.
  // With a row plan each conv computes one row per distinct row of its
  // layer, JKN folds one row per last-layer row, and the pool reads every
  // batch node through the readout's node map.
  static obs::Gauge& g_share = obs::gauge("gnn.delta_row_share");
  gnn::RowPlan* plan =
      b.plan && b.plan->covers(convs_.size()) ? b.plan.get() : nullptr;
  const gnn::Readout* readout =
      plan ? &plan->prepare(b.x, convs_.size()) : nullptr;
  const bool jkn = opts_.kind == ModelKind::kM6TconvJkn ||
                   opts_.kind == ModelKind::kM7Full;
  const tensor::Tensor* hcur = plan ? &plan->x() : &b.x;
  std::vector<const tensor::Tensor*> layer_outputs;
  std::vector<const std::int32_t*> layer_rows;
  layer_outputs.reserve(convs_.size());
  std::int64_t rows = 0;
  const tensor::Tensor* node_repr;
  {
    obs::ScopedSpan span("gnn.fastpath.convs");
    for (std::size_t l = 0; l < convs_.size(); ++l) {
      const gnn::ConvRows r = plan ? plan->conv_rows(l) : b.conv_rows();
      auto& conv = static_cast<gnn::TransformerConv&>(*convs_[l]);
      hcur = &s.elu(conv.forward_infer(s, *hcur, r));
      layer_outputs.push_back(hcur);
      if (plan)
        layer_rows.push_back(l < readout->layer_rows.size()
                                 ? readout->layer_rows[l].data()
                                 : nullptr);
      rows += r.num_rows;
    }
    node_repr = hcur;
    if (jkn) node_repr = &s.max_list(layer_outputs, layer_rows, hcur->rows());
  }
  if (plan)
    obs::set(g_share, static_cast<double>(rows) /
                          static_cast<double>(b.num_nodes) /
                          static_cast<double>(convs_.size()));

  const std::int32_t* node_row = plan ? readout->node_row.data() : nullptr;
  const tensor::Tensor* graph_repr;
  {
    obs::ScopedSpan span("gnn.fastpath.pool");
    if (opts_.kind == ModelKind::kM7Full)
      graph_repr = &att_pool_->forward_infer(s, *node_repr, b, node_row);
    else
      graph_repr = &gnn::sum_pool_infer(s, *node_repr, b, node_row);
  }
  last_embedding_infer_ = graph_repr;
  obs::ScopedSpan span("gnn.fastpath.head");
  return head_->forward_infer(s, *graph_repr);
}

VarId PredictiveModel::last_attention() const {
  if (!att_pool_)
    throw std::logic_error("attention scores only exist for the M7 model");
  return att_pool_->last_scores();
}

std::vector<tensor::Parameter*> PredictiveModel::params() {
  std::vector<tensor::Parameter*> out;
  for (auto& c : convs_)
    for (auto* p : c->params()) out.push_back(p);
  if (att_pool_)
    for (auto* p : att_pool_->params()) out.push_back(p);
  for (auto* p : head_->params()) out.push_back(p);
  return out;
}

std::int64_t PredictiveModel::num_weights() {
  std::int64_t n = 0;
  for (auto* p : params()) n += p->numel();
  return n;
}

}  // namespace gnndse::model
