#include "gnn/conv.hpp"

#include <cmath>
#include <utility>

#include "obs/metrics.hpp"
#include "tensor/init.hpp"

namespace gnndse::gnn {

using tensor::Tape;
using tensor::Tensor;
using tensor::VarId;

namespace {

/// Telemetry for the message-passing hot loop: one conv application and
/// the number of edge messages it aggregates. Inlined no-op when disabled.
inline void detail_count_message_pass(std::size_t messages) {
  static obs::Counter& c_convs = obs::counter("gnn.conv_forwards");
  static obs::Counter& c_msgs = obs::counter("gnn.edge_messages");
  if (!obs::enabled()) return;
  c_convs.add();
  c_msgs.add(static_cast<std::int64_t>(messages));
}

}  // namespace

SelfLoopEdges self_loop_edges(const GraphBatch& b) {
  SelfLoopEdges sl;
  sl.src = b.src;
  sl.dst = b.dst;
  for (std::int64_t i = 0; i < b.num_nodes; ++i) {
    sl.src.push_back(static_cast<std::int32_t>(i));
    sl.dst.push_back(static_cast<std::int32_t>(i));
  }
  std::vector<float> deg(static_cast<std::size_t>(b.num_nodes), 0.0f);
  for (std::int32_t d : sl.dst) ++deg[static_cast<std::size_t>(d)];
  sl.coeff.reserve(sl.src.size());
  for (std::size_t k = 0; k < sl.src.size(); ++k) {
    const float du = deg[static_cast<std::size_t>(sl.src[k])];
    const float dv = deg[static_cast<std::size_t>(sl.dst[k])];
    sl.coeff.push_back(1.0f / std::sqrt(du * dv));
  }
  return sl;
}

// ---------------------------------------------------------------------------
// GCN.
// ---------------------------------------------------------------------------

GCNConv::GCNConv(std::int64_t in, std::int64_t out, util::Rng& rng)
    : lin_(in, out, rng) {}

VarId GCNConv::forward(Tape& t, VarId x, const GraphBatch& b) {
  SelfLoopEdges sl = self_loop_edges(b);
  detail_count_message_pass(sl.src.size());
  // Aggregate with fixed symmetric-normalized coefficients over the
  // self-loop-augmented edge list, then transform.
  VarId msg = t.gather_rows(x, std::move(sl.src));
  const auto n_edges = static_cast<std::int64_t>(sl.coeff.size());
  VarId weighted =
      t.mul_colbcast(t.constant(Tensor({n_edges, 1}, sl.coeff)), msg);
  VarId agg = t.scatter_add_rows(weighted, std::move(sl.dst), b.num_nodes);
  return lin_.forward(t, agg);
}

std::vector<tensor::Parameter*> GCNConv::params() { return lin_.params(); }

// ---------------------------------------------------------------------------
// GAT.
// ---------------------------------------------------------------------------

GATConv::GATConv(std::int64_t in, std::int64_t out, util::Rng& rng)
    : lin_(in, out, rng, /*bias=*/false),
      att_src_(tensor::xavier_uniform(out, 1, rng)),
      att_dst_(tensor::xavier_uniform(out, 1, rng)),
      bias_(Tensor({out})) {}

VarId GATConv::forward(Tape& t, VarId x, const GraphBatch& b) {
  const SelfLoopEdges sl = self_loop_edges(b);
  detail_count_message_pass(sl.src.size());
  VarId h = lin_.forward(t, x);  // [N, out]
  VarId score_src = t.matmul(h, t.param(att_src_));  // [N, 1]
  VarId score_dst = t.matmul(h, t.param(att_dst_));  // [N, 1]
  VarId e_score =
      t.add(t.gather_rows(score_src, sl.src), t.gather_rows(score_dst, sl.dst));
  e_score = t.leaky_relu(e_score, 0.2f);
  VarId alpha = t.segment_softmax(e_score, sl.dst, b.num_nodes);
  VarId msg = t.mul_colbcast(alpha, t.gather_rows(h, sl.src));
  VarId agg = t.scatter_add_rows(msg, sl.dst, b.num_nodes);
  return t.add_rowvec(agg, t.param(bias_));
}

std::vector<tensor::Parameter*> GATConv::params() {
  auto out = lin_.params();
  out.push_back(&att_src_);
  out.push_back(&att_dst_);
  out.push_back(&bias_);
  return out;
}

// ---------------------------------------------------------------------------
// TransformerConv.
// ---------------------------------------------------------------------------

TransformerConv::TransformerConv(std::int64_t in, std::int64_t out,
                                 std::int64_t edge_dim, util::Rng& rng,
                                 bool gated_residual)
    : wq_(in, out, rng),
      wk_(in, out, rng),
      wv_(in, out, rng),
      we_k_(edge_dim, out, rng, /*bias=*/false),
      we_v_(edge_dim, out, rng, /*bias=*/false),
      skip_(in, out, rng),
      gate_(3 * out, 1, rng),
      out_dim_(out),
      gated_residual_(gated_residual) {}

VarId TransformerConv::forward(Tape& t, VarId x, const GraphBatch& b) {
  // Counted as src + one per node, the size GCN/GAT's self-loop lists have.
  detail_count_message_pass(b.src.size() +
                            static_cast<std::size_t>(b.num_nodes));
  VarId q = wq_.forward(t, x);
  VarId k = wk_.forward(t, x);
  VarId v = wv_.forward(t, x);
  VarId e = t.constant(b.e);
  VarId ek = we_k_.forward(t, e);
  VarId ev = we_v_.forward(t, e);

  VarId k_edge = t.add(t.gather_rows(k, b.src), ek);   // [E, D]
  VarId q_edge = t.gather_rows(q, b.dst);              // [E, D]
  VarId score = t.row_sum(t.mul(q_edge, k_edge));      // [E, 1]
  score = t.scale(score, 1.0f / std::sqrt(static_cast<float>(out_dim_)));
  VarId alpha = t.segment_softmax(score, b.dst, b.num_nodes);

  VarId v_edge = t.add(t.gather_rows(v, b.src), ev);
  VarId msg = t.mul_colbcast(alpha, v_edge);
  VarId m = t.scatter_add_rows(msg, b.dst, b.num_nodes);  // [N, D]

  VarId r = skip_.forward(t, x);
  if (!gated_residual_) return t.add(r, m);  // ablation: plain skip
  VarId beta = t.sigmoid(gate_.forward(t, t.concat_cols({r, m, t.sub(r, m)})));
  // h' = beta * r + (1 - beta) * m  ==  m + beta * (r - m)
  return t.add(m, t.mul_colbcast(beta, t.sub(r, m)));
}

const Tensor& TransformerConv::forward_infer(InferenceSession& s,
                                             const Tensor& x,
                                             const ConvRows& r) {
  detail_count_message_pass(r.src.size() +
                            static_cast<std::size_t>(r.num_rows));
  const Tensor& q = wq_.forward_infer(s, x);
  const Tensor& k = wk_.forward_infer(s, x);
  const Tensor& v = wv_.forward_infer(s, x);
  const Tensor& ek = we_k_.forward_infer(s, *r.edges);
  const Tensor& ev = we_v_.forward_infer(s, *r.edges);

  // Fused attention: no materialized q_edge/k_edge/v_edge/msg buffers; the
  // per-element products and accumulation orders match the tape chain.
  const Tensor& score =
      s.edge_attention_scores(q, k, ek, r.src, r.qrow, r.eid,
                              1.0f / std::sqrt(static_cast<float>(out_dim_)));
  const Tensor& alpha = s.segment_softmax(score, r.dst, r.num_rows);
  const Tensor& m = s.weighted_scatter_add(alpha.data(), v, ev, r.src,
                                           r.dst, r.eid, r.num_rows);

  const Tensor& skip = skip_.forward_infer(s, x);
  if (!gated_residual_) return s.add(skip, m, r.rrow);  // ablation: plain skip
  // (r - m) feeds both the gate input and the residual mix; residual_concat
  // materializes it once inside the gate input and gated_mix reads it back,
  // yielding the same bits as the tape's sub + concat + mul_colbcast + add.
  const Tensor& cat = s.residual_concat(skip, m, r.rrow);
  const Tensor& beta = s.sigmoid(gate_.forward_infer(s, cat));
  // h' = beta * r + (1 - beta) * m  ==  m + beta * (r - m)
  return s.gated_mix(m, beta, cat);
}

std::vector<tensor::Parameter*> TransformerConv::params() {
  std::vector<tensor::Parameter*> out;
  for (Linear* l : {&wq_, &wk_, &wv_, &we_k_, &we_v_, &skip_, &gate_})
    for (auto* p : l->params()) out.push_back(p);
  return out;
}

}  // namespace gnndse::gnn
