// The predictive models of Table 2.
//
//   M1  MLP-pragma            — pragma vector only (Kwon et al. [7])
//   M2  MLP-pragma-program    — initial node embeddings, sum-pooled, MLP
//   M3  GNN-DSE-GCN           — 6x GCNConv, sum pool
//   M4  GNN-DSE-GAT           — 6x GATConv, sum pool
//   M5  GNN-DSE-TransformerConv — 6x TransformerConv, sum pool
//   M6  M5 + Jumping Knowledge (max)
//   M7  M6 + node-attention pooling  (the full GNN-DSE model, Fig 4)
//
// Every variant ends in the same 4-layer MLP prediction head. Regression
// heads output multiple objectives (multi-task, §4.3.2); classification
// outputs one logit (valid/invalid).
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "gnn/batch.hpp"
#include "gnn/conv.hpp"
#include "gnn/pool.hpp"

namespace gnndse::model {

enum class ModelKind {
  kM1MlpPragma,
  kM2MlpContext,
  kM3Gcn,
  kM4Gat,
  kM5Tconv,
  kM6TconvJkn,
  kM7Full
};

const char* to_string(ModelKind kind);

struct ModelOptions {
  ModelKind kind = ModelKind::kM7Full;
  int gnn_layers = 6;       // paper: 6 GNN layers
  std::int64_t hidden = 64; // paper: 64 features
  std::int64_t node_feat_dim = 0;   // filled from graphgen defaults if 0
  std::int64_t edge_feat_dim = 0;
  std::int64_t pragma_vec_dim = 0;  // M1 input width
  std::int64_t out_dim = 4;         // 4 = latency/DSP/LUT/FF; 1 = BRAM or logit
  /// Ablation toggle: false replaces TransformerConv's beta gate with a
  /// plain skip connection (see DESIGN.md §5.1).
  bool tconv_gated_residual = true;
};

class PredictiveModel : public gnn::Module {
 public:
  PredictiveModel(const ModelOptions& opts, util::Rng& rng);

  /// Forward over a batch of graphs -> [B, out_dim].
  tensor::VarId forward(tensor::Tape& t, const gnn::GraphBatch& b);

  /// Tape-free forward over a batch -> [B, out_dim], bit-identical to
  /// forward() at every thread count. A batch with a row plan that covers
  /// the model's depth (SampleFactory::batch_for) runs the cone-keyed
  /// forward, with the same bits: it builds the chunk's rows on the first
  /// forward after batch_for (RowPlan::prepare, the `gnn.row_plan_ms`
  /// histogram) and sets the `gnn.delta_row_share` gauge. M3/M4 run
  /// forward() on a tape instead (only M1, M2 and the TransformerConv
  /// models have a fast path). The returned reference (and
  /// last_graph_embedding_infer()) live in the session's workspace until
  /// its next begin(). Fast-path forwards count `gnn.fastpath_forwards`.
  const tensor::Tensor& forward_infer(gnn::InferenceSession& s,
                                      const gnn::GraphBatch& b);

  /// Graph-level embedding of the last forward (input to the MLP head);
  /// used for the t-SNE analysis (Fig 6).
  tensor::VarId last_graph_embedding() const { return last_embedding_; }

  /// Fast-path counterpart of last_graph_embedding(): the pooled embedding
  /// of the last forward_infer() call.
  const tensor::Tensor& last_graph_embedding_infer() const {
    if (!last_embedding_infer_)
      throw std::logic_error("no forward_infer has run yet");
    return *last_embedding_infer_;
  }

  /// Node-attention scores of the last forward (M7 only, Fig 5).
  tensor::VarId last_attention() const;

  const ModelOptions& options() const { return opts_; }
  std::vector<tensor::Parameter*> params() override;
  std::int64_t num_weights();

 private:
  ModelOptions opts_;
  std::vector<std::unique_ptr<gnn::ConvLayer>> convs_;
  std::unique_ptr<gnn::AttentionPool> att_pool_;
  std::unique_ptr<gnn::Mlp> head_;
  tensor::VarId last_embedding_ = tensor::kInvalidVar;
  const tensor::Tensor* last_embedding_infer_ = nullptr;
};

}  // namespace gnndse::model
