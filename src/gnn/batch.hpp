// Graph batching: disjoint union of program graphs so one forward pass
// covers a whole minibatch (node features stacked, edge indices offset,
// per-node graph ids for pooling).
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"

namespace gnndse::gnn {

/// One graph ready for the GNN: features + edge index. `aux` is an
/// optional per-graph feature row (the pragma-only vector used by the M1
/// baseline).
struct GraphData {
  tensor::Tensor x;  // [N, Fn]
  tensor::Tensor e;  // [E, Fe]
  std::vector<std::int32_t> src;
  std::vector<std::int32_t> dst;
  tensor::Tensor aux;  // [Fa] or empty
};

/// The rows and edges one TransformerConv layer computes, as index arrays
/// into its input rows (the previous layer's output rows) and its output
/// rows.
/// Without a row plan this is the whole batch: input and output row i are
/// batch node i, and every edge is a batch edge.
struct ConvRows {
  std::int64_t num_rows = 0;  // output rows
  /// Edges: source input row, destination output row, and the
  /// destination's own input row (its q); eid picks the edge-feature row
  /// of `edges` (nullptr: edge i reads row i).
  std::span<const std::int32_t> src, dst, qrow;
  const std::int32_t* eid = nullptr;
  const tensor::Tensor* edges = nullptr;
  /// Per output row, the input row of the same node (skip connection);
  /// nullptr: output row i reads input row i.
  const std::int32_t* rrow = nullptr;
};

/// One layer of a RowPlan: the layer-k output rows and their in-edges.
struct LayerRows {
  /// C_k: template nodes whose layer-k rows can differ between configs,
  /// ascending. Output rows are B·|C_k| per-config rows (config b, node
  /// nodes[j] at b·|C_k| + j) followed by one shared row per other node.
  std::vector<std::int32_t> nodes;
  std::int64_t num_rows = 0;
  std::vector<std::int32_t> src, dst, qrow, eid;
  std::vector<std::int32_t> rrow;
  /// Batch node (b·N + n) -> its output row.
  std::vector<std::int32_t> node_row;
};

/// Pragma-delta row plan for a batch of B copies of one template graph
/// whose configurations differ only in the rows of the `varying` nodes
/// (C_0). A node more than k directed hops from every varying node has the
/// same layer-k row in every copy, so layer k computes B rows for each
/// node of C_k = C_{k-1} ∪ {dst(e) : src(e) ∈ C_{k-1}} and one shared row
/// for each other node. Each output row keeps its node's full in-edge list
/// in template order, so every sum accumulates exactly as in the full
/// forward and the results are bit-identical to it.
struct RowPlan {
  /// Plans stop at kMaxDepth layers, the paper's GNN depth, or at the
  /// first layer where C_k stops growing (deeper layers then repeat that
  /// layer's arrays). A model deeper than an unsaturated plan runs the
  /// whole batch instead.
  static constexpr std::size_t kMaxDepth = 6;

  std::int64_t copies = 0;   // B
  std::int64_t nodes = 0;    // N, template nodes
  std::vector<std::int32_t> input_nodes;  // C_0, ascending
  /// Layer-0 input rows: B·|C_0| per-config rows, then the other nodes'
  /// template rows. refresh() copies the per-config rows from the batch.
  tensor::Tensor x;
  tensor::Tensor e;          // template edge features, rows indexed by eid
  std::vector<LayerRows> layers;  // layers[k-1] computes layer k
  bool saturated = false;    // C stopped growing within layers

  bool covers(std::size_t depth) const {
    return saturated || depth <= layers.size();
  }
  /// Layer `l` (0-based conv index) as a ConvRows view.
  ConvRows conv_rows(std::size_t l) const;
  const LayerRows& layer(std::size_t l) const {
    return layers[std::min(l, layers.size() - 1)];
  }
  /// Copies columns [col_begin, col_end) of the varying nodes' rows of
  /// every copy from `x_full` ([B·N, F], the batch's node features) into
  /// x; col_end < 0 means every column.
  void refresh(const tensor::Tensor& x_full, std::int64_t col_begin = 0,
               std::int64_t col_end = -1);
};

/// Disjoint union of a minibatch of graphs.
struct GraphBatch {
  tensor::Tensor x;  // [N_total, Fn]
  tensor::Tensor e;  // [E_total, Fe]
  std::vector<std::int32_t> src, dst;    // edges (no self loops)
  std::vector<std::int32_t> node_graph;  // node -> graph id
  tensor::Tensor aux;                    // [B, Fa] or empty
  std::int64_t num_nodes = 0;
  std::int64_t num_graphs = 0;

  /// Node index ranges per graph (for mapping pooled rows back).
  std::vector<std::int64_t> node_offset;  // size num_graphs + 1

  /// Set by SampleFactory::batch_for on its skeletons; null for batches
  /// of unrelated graphs, which run every row.
  std::shared_ptr<RowPlan> plan;

  /// The whole batch as one conv layer's rows (no plan).
  ConvRows conv_rows() const;
};

/// Builds the batch. All graphs must share feature dimensions.
GraphBatch make_batch(const std::vector<const GraphData*>& graphs);

/// Braced-list convenience: `make_batch({&a, &b})`. Without it such calls
/// are ambiguous between the pointer-vector and span overloads (a span is
/// constructible from an iterator pair).
GraphBatch make_batch(std::initializer_list<const GraphData*> graphs);

/// Same, over a contiguous range — callers with a vector<GraphData> (the
/// DSE chunk loop) skip the pointer-vector indirection.
GraphBatch make_batch(std::span<const GraphData> graphs);

/// Builds the row plan of `copies`, a batch of B copies of one graph
/// (make_batch over B pointers to the same template), for the template
/// nodes in `varying`, with layer-0 rows taken from `copies.x`; after
/// rewriting the varying rows of a batch's x, call RowPlan::refresh().
std::shared_ptr<RowPlan> plan_rows(const GraphBatch& copies,
                                   std::span<const std::int32_t> varying);

}  // namespace gnndse::gnn
