// Graph-level readouts: plain sum pooling (M3-M6) and the node-attention
// pooling of eq. 10 (M7), plus the Jumping Knowledge max-combine (eq. 9).
#pragma once

#include "gnn/batch.hpp"
#include "gnn/layers.hpp"

namespace gnndse::gnn {

/// Sum of node embeddings per graph: [N, D] -> [B, D]. On the fast path,
/// `node_row` (a row plan's Readout::node_row) maps batch node i to its
/// row of x; null: x has one row per batch node.
tensor::VarId sum_pool(tensor::Tape& t, tensor::VarId x, const GraphBatch& b);
const tensor::Tensor& sum_pool_infer(InferenceSession& s,
                                     const tensor::Tensor& x,
                                     const GraphBatch& b,
                                     const std::int32_t* node_row = nullptr);

/// Jumping Knowledge Network, max combine (eq. 9): elementwise max over the
/// per-layer node embeddings (InferenceSession::max_list on the fast path).
tensor::VarId jumping_knowledge_max(tensor::Tape& t,
                                    const std::vector<tensor::VarId>& layers);

/// Node-attention pooling (eq. 10):
///   h_G = sum_i softmax_i(MLP1(h_i)) * MLP2(h_i)
/// with the softmax taken per graph over all of its nodes.
class AttentionPool : public Module {
 public:
  AttentionPool(std::int64_t dim, util::Rng& rng);

  tensor::VarId forward(tensor::Tape& t, tensor::VarId x, const GraphBatch& b);
  /// With `node_row` (see sum_pool_infer), the gate and transform MLPs run
  /// on x's rows only; the softmax and the weighted sum read every batch
  /// node through the map.
  const tensor::Tensor& forward_infer(InferenceSession& s,
                                      const tensor::Tensor& x,
                                      const GraphBatch& b,
                                      const std::int32_t* node_row = nullptr);

  /// Attention scores per node (the softmax output), for Fig 5-style
  /// analysis. Valid after calling forward on the same tape.
  tensor::VarId last_scores() const { return last_scores_; }

  std::vector<tensor::Parameter*> params() override;

 private:
  Mlp gate_;       // MLP1: D -> 1
  Mlp transform_;  // MLP2: D -> D
  tensor::VarId last_scores_ = tensor::kInvalidVar;
};

}  // namespace gnndse::gnn
