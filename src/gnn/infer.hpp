// Tape-free inference engine: forward-only evaluation of the GNN ops with
// preallocated workspace buffers.
//
// The autodiff Tape allocates a node (value tensor + backward closure) per
// op, which the DSE hot loop never uses — prediction only needs the forward
// values. InferenceSession mirrors the Tape forward ops of the layers DSE
// runs (Linear, Mlp, TransformerConv, the pools) bit-for-bit (same
// kernels, same float-accumulation order, same std::exp calls) but writes
// results into a pool of workspace tensors that is reused across forward
// passes: after a warmup pass per batch shape, steady-state forwards
// perform zero heap allocation.
//
// Threading: elementwise and per-row ops (disjoint output writes) fan out
// over util::parallel_for; order-sensitive reductions (scatter_add_rows,
// segment_softmax) stay serial because their float accumulation order
// defines the result bits. linear delegates to tensor::matmul_bias, which
// is already parallel and bit-stable. A session is single-consumer: one
// forward pass at a time per session object (the ops inside parallelize).
//
// Slot references returned by ops stay valid until the next begin() —
// slots_ is a deque, so growing it never moves existing tensors.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"

namespace gnndse::gnn {

class InferenceSession {
 public:
  InferenceSession() = default;
  InferenceSession(const InferenceSession&) = delete;
  InferenceSession& operator=(const InferenceSession&) = delete;

  /// Starts a new forward pass: rewinds the slot cursor so workspace
  /// tensors are reused in the same order. Invalidates references returned
  /// by ops of the previous pass.
  void begin() { cursor_ = 0; }

  /// The values of `a` (a tape result, say) copied into the workspace.
  const tensor::Tensor& copy(const tensor::Tensor& a);

  // Dense ops (forward halves of the Tape ops, bit-identical).
  /// matmul + add_rowvec fused into one sweep (tensor::matmul_bias); pass
  /// bias = nullptr for a plain product. Bit-identical to the two-op
  /// sequence the tape records.
  const tensor::Tensor& linear(const tensor::Tensor& a,
                               const tensor::Tensor& w,
                               const tensor::Tensor* bias);
  /// out[i] = a[arow[i]] + b[i] (arow = nullptr: a[i]); out has b's shape.
  const tensor::Tensor& add(const tensor::Tensor& a, const tensor::Tensor& b,
                            const std::int32_t* arow = nullptr);
  const tensor::Tensor& mul_colbcast(const tensor::Tensor& col,
                                     const tensor::Tensor& x);

  // Nonlinearities.
  const tensor::Tensor& elu(const tensor::Tensor& a, float alpha = 1.0f);
  const tensor::Tensor& sigmoid(const tensor::Tensor& a);

  // Graph primitives.
  /// out[idx[i]] += a[i] in ascending i. With `rows`, adds a[rows[i]]
  /// instead (a row plan's rows gathered into batch-node order); with
  /// `alpha`, adds alpha[i] * a[..], the product rounded before the add:
  /// the bits of mul_colbcast followed by scatter_add_rows.
  const tensor::Tensor& scatter_add_rows(const tensor::Tensor& a,
                                         const std::vector<std::int32_t>& idx,
                                         std::int64_t num_rows,
                                         const std::int32_t* rows = nullptr,
                                         const float* alpha = nullptr);
  const tensor::Tensor& segment_softmax(const tensor::Tensor& scores,
                                        std::span<const std::int32_t> seg,
                                        std::int64_t num_segments);
  /// Elementwise max over `parts`, folded in ascending order. With `rows`
  /// (one map per part; a null map reads row i), output row i folds
  /// parts[k] row rows[k][i] over num_rows output rows: the row-plan JKN,
  /// which with one part is also a row gather.
  const tensor::Tensor& max_list(
      const std::vector<const tensor::Tensor*>& parts,
      const std::vector<const std::int32_t*>& rows = {},
      std::int64_t num_rows = 0);

  // Fused edge-domain kernels. Message passing through the generic ops
  // materializes several [E, D] intermediates per conv layer (gather ->
  // add -> mul -> reduce -> scatter); these fold each chain into one pass
  // while computing the exact same per-element expressions in the exact
  // same order, so results stay bit-identical to the op-by-op tape. They
  // exist only on the inference side — the tape keeps discrete ops because
  // each needs its own backward.

  /// TransformerConv attention logits, fusing the tape chain
  ///   scale(row_sum(mul(gather(q,dst), add(gather(k,src), ek))), c):
  ///   out[e] = (sum_d q[qrow[e]][d] * (k[src[e]][d] + ek[eid[e]][d])) * c
  /// with the sum accumulated in ascending d like row_sum. qrow is the
  /// destination's input row; eid = nullptr reads ek row e.
  const tensor::Tensor& edge_attention_scores(
      const tensor::Tensor& q, const tensor::Tensor& k,
      const tensor::Tensor& ek, std::span<const std::int32_t> src,
      std::span<const std::int32_t> qrow, const std::int32_t* eid, float c);

  /// TransformerConv message aggregation, fusing
  ///   scatter_add_rows(mul_colbcast(alpha, add(gather(v,src), ev)), dst):
  ///   out[dst[e]][:] += alpha[e] * (v[src[e]][:] + ev[eid[e]][:])
  /// in ascending e (the scatter's accumulation-order contract). `alpha`
  /// points at E coefficients (a [E,1] tensor's data); eid = nullptr reads
  /// ev row e.
  const tensor::Tensor& weighted_scatter_add(
      const float* alpha, const tensor::Tensor& v, const tensor::Tensor& ev,
      std::span<const std::int32_t> src, std::span<const std::int32_t> dst,
      const std::int32_t* eid, std::int64_t num_rows);

  /// Gate-input assembly for the gated residual, fusing
  ///   concat_cols({r, m, sub(r, m)}):
  ///   out[i][:] = [ r[ri][:] | m[i][:] | r[ri][:] - m[i][:] ]
  /// with ri = rrow[i] (rrow = nullptr: ri = i), over m's rows. One pass
  /// over r and m instead of a sub pass plus a concat pass; the
  /// difference block holds the same bits as the tape's materialized
  /// sub(r, m), and gated_mix reads it back in place.
  const tensor::Tensor& residual_concat(const tensor::Tensor& r,
                                        const tensor::Tensor& m,
                                        const std::int32_t* rrow = nullptr);

  /// Gated residual mix, fusing add(m, mul_colbcast(beta, d)) where d is
  /// the difference block of a residual_concat result (its last c columns):
  ///   out[i][:] = m[i][:] + beta[i] * cat[i][2c:3c]
  /// (beta is [N,1], cat is [N,3c]). The product rounds before the add —
  /// this file is compiled without fp contraction — matching the tape's
  /// materialized mul_colbcast.
  const tensor::Tensor& gated_mix(const tensor::Tensor& m,
                                  const tensor::Tensor& beta,
                                  const tensor::Tensor& cat);

  /// High-water workspace footprint: sum over slots of the largest tensor
  /// each slot ever held. Constant across steady-state forwards of the
  /// same batch shape (exported as the `gnn.workspace_bytes` gauge).
  std::size_t workspace_bytes() const;
  /// Number of workspace tensors ever allocated (growth == cold pass).
  std::size_t num_slots() const { return slots_.size(); }

 private:
  /// Next workspace tensor, reshaped in place. `zero` clears it; otherwise
  /// the caller overwrites every element.
  tensor::Tensor& next(std::vector<std::int64_t> shape, bool zero);

  std::deque<tensor::Tensor> slots_;
  std::vector<std::size_t> high_water_;  // max numel per slot
  std::size_t cursor_ = 0;
};

}  // namespace gnndse::gnn
