// Graph convolution layers: GCN (eq. 1), GAT (eqs. 2-3) and
// TransformerConv with edge features and gated residual (eq. 8) — the
// paper's M3/M4/M5 building blocks. GCN and GAT are Table 2 ablations
// that DSE never runs, so only TransformerConv has a tape-free forward.
#pragma once

#include "gnn/batch.hpp"
#include "gnn/layers.hpp"

namespace gnndse::gnn {

/// Common interface so the encoder can stack any conv kind.
class ConvLayer : public Module {
 public:
  /// x: [N, in]; returns [N, out]. The batch supplies edge indices and
  /// edge features.
  virtual tensor::VarId forward(tensor::Tape& t, tensor::VarId x,
                                const GraphBatch& b) = 0;
};

/// GCN/GAT edge lists: the batch's edges followed by one self loop per
/// node, in node order, and per edge the symmetric normalization
/// 1/sqrt(d_u d_v), with d counting a node's in-edges plus its self loop.
struct SelfLoopEdges {
  std::vector<std::int32_t> src, dst;
  std::vector<float> coeff;
};
SelfLoopEdges self_loop_edges(const GraphBatch& b);

/// Graph Convolutional Network layer (Kipf & Welling):
///   h'_i = W sum_{j in N(i) u {i}} h_j / sqrt(d_i d_j)
class GCNConv : public ConvLayer {
 public:
  GCNConv(std::int64_t in, std::int64_t out, util::Rng& rng);
  tensor::VarId forward(tensor::Tape& t, tensor::VarId x,
                        const GraphBatch& b) override;
  std::vector<tensor::Parameter*> params() override;

 private:
  Linear lin_;
};

/// Graph Attention Network layer (Velickovic et al.), single head:
///   alpha_ij = softmax_j LeakyReLU(a^T [W h_i || W h_j])
///   h'_i = W sum alpha_ij h_j  (self loops included)
class GATConv : public ConvLayer {
 public:
  GATConv(std::int64_t in, std::int64_t out, util::Rng& rng);
  tensor::VarId forward(tensor::Tape& t, tensor::VarId x,
                        const GraphBatch& b) override;
  std::vector<tensor::Parameter*> params() override;

 private:
  Linear lin_;                 // W
  tensor::Parameter att_src_;  // a_src: [out, 1]
  tensor::Parameter att_dst_;  // a_dst: [out, 1]
  tensor::Parameter bias_;     // [out]
};

/// TransformerConv (Shi et al. 2021), single head, with edge features and
/// a gated residual connection (the paper highlights both, §4.3.1):
///   alpha_ij = softmax((W1 h_i)^T (W2 h_j + W3 e_ij) / sqrt(D))
///   m_i      = sum alpha_ij (W4 h_j + W5 e_ij)
///   r_i      = W6 h_i
///   beta_i   = sigmoid(Wg [r_i || m_i || r_i - m_i])
///   h'_i     = beta_i r_i + (1 - beta_i) m_i
class TransformerConv : public ConvLayer {
 public:
  /// `gated_residual=false` ablates the beta gate to a plain skip
  /// connection (h' = r + m) — bench_ablation measures the difference.
  TransformerConv(std::int64_t in, std::int64_t out, std::int64_t edge_dim,
                  util::Rng& rng, bool gated_residual = true);
  tensor::VarId forward(tensor::Tape& t, tensor::VarId x,
                        const GraphBatch& b) override;
  /// Tape-free forward over the rows `r` selects (inference fast path):
  /// x holds the input rows r's indices refer to, and the result has
  /// r.num_rows rows. With b.conv_rows() it is bit-identical to forward();
  /// with a row plan's layer, every row it computes is bit-identical to
  /// that node's row of the full forward.
  const tensor::Tensor& forward_infer(InferenceSession& s,
                                      const tensor::Tensor& x,
                                      const ConvRows& r);
  std::vector<tensor::Parameter*> params() override;

 private:
  Linear wq_, wk_, wv_, we_k_, we_v_, skip_, gate_;
  std::int64_t out_dim_;
  bool gated_residual_;
};

}  // namespace gnndse::gnn
