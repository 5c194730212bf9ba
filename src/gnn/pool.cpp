#include "gnn/pool.hpp"

namespace gnndse::gnn {

using tensor::Tape;
using tensor::VarId;

VarId sum_pool(Tape& t, VarId x, const GraphBatch& b) {
  return t.scatter_add_rows(x, b.node_graph, b.num_graphs);
}

const tensor::Tensor& sum_pool_infer(InferenceSession& s,
                                     const tensor::Tensor& x,
                                     const GraphBatch& b,
                                     const std::int32_t* node_row) {
  return s.scatter_add_rows(x, b.node_graph, b.num_graphs, node_row);
}

VarId jumping_knowledge_max(Tape& t, const std::vector<VarId>& layers) {
  return t.max_list(layers);
}

AttentionPool::AttentionPool(std::int64_t dim, util::Rng& rng)
    : gate_({dim, dim / 2, 1}, rng),
      transform_({dim, dim}, rng) {}

VarId AttentionPool::forward(Tape& t, VarId x, const GraphBatch& b) {
  VarId scores = gate_.forward(t, x);  // [N, 1]
  VarId alpha = t.segment_softmax(scores, b.node_graph, b.num_graphs);
  last_scores_ = alpha;
  VarId weighted = t.mul_colbcast(alpha, transform_.forward(t, x));
  return t.scatter_add_rows(weighted, b.node_graph, b.num_graphs);
}

const tensor::Tensor& AttentionPool::forward_infer(
    InferenceSession& s, const tensor::Tensor& x, const GraphBatch& b,
    const std::int32_t* node_row) {
  const tensor::Tensor& scores = gate_.forward_infer(s, x);  // [rows, 1]
  if (!node_row) {
    const tensor::Tensor& alpha =
        s.segment_softmax(scores, b.node_graph, b.num_graphs);
    const tensor::Tensor& weighted =
        s.mul_colbcast(alpha, transform_.forward_infer(s, x));
    return s.scatter_add_rows(weighted, b.node_graph, b.num_graphs);
  }
  const tensor::Tensor& alpha = s.segment_softmax(
      s.max_list({&scores}, {node_row}, b.num_nodes), b.node_graph,
      b.num_graphs);
  return s.scatter_add_rows(transform_.forward_infer(s, x), b.node_graph,
                            b.num_graphs, node_row, alpha.data());
}

std::vector<tensor::Parameter*> AttentionPool::params() {
  auto out = gate_.params();
  for (auto* p : transform_.params()) out.push_back(p);
  return out;
}

}  // namespace gnndse::gnn
