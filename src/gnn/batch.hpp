// Graph batching: disjoint union of program graphs so one forward pass
// covers a whole minibatch (node features stacked, edge indices offset,
// per-node graph ids for pooling).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
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

/// One conv layer of a RowPlan's current chunk: its output rows and their
/// in-edges, as index arrays into the previous layer's rows.
struct LayerRows {
  std::int64_t num_rows = 0;
  std::vector<std::int32_t> src, dst, qrow, eid;
  /// Per output row, the input row of the same node (skip connection).
  std::vector<std::int32_t> rrow;
};

/// What the layers after the convs read for a forward of depth d over a
/// chunk (RowPlan::prepare).
struct Readout {
  /// layer_rows[k-1][i], k = 1..d-1: the layer-k row of the node and copy
  /// that layer-d row i stands for (JKN folds one row per layer-d row).
  std::vector<std::vector<std::int32_t>> layer_rows;
  /// Batch node (b·N + n) -> its layer-d row (the pool's gather).
  std::vector<std::int32_t> node_row;
  bool built = false;
};

struct GraphBatch;
class RowPlan;

/// Builds the row plan of `copies`, a batch of B copies of one graph
/// (make_batch over B pointers to the same template), for the template
/// nodes in `varying`, whose rows may differ between copies in columns
/// [col_begin, col_end) (col_end < 0: every column). The chunk's rows are
/// built from the batch's x on the first prepare(); after rewriting the
/// varying rows, call RowPlan::refresh().
std::shared_ptr<RowPlan> plan_rows(const GraphBatch& copies,
                                   std::span<const std::int32_t> varying,
                                   std::int64_t col_begin = 0,
                                   std::int64_t col_end = -1);

/// Cone-keyed row plan for a batch of B copies of one template graph whose
/// configurations differ only in some columns of the `varying` nodes' rows
/// (C_0). The layer-k row of node v depends only on the rows of the
/// varying nodes in its cone P_k(v) = P_{k-1}(v) ∪ ⋃ P_{k-1}(u) over v's
/// in-neighbours u (P_0(v) = {v} for a varying node, else empty). So the
/// copies of v fall into groups that agree on every varying row of
/// P_k(v), and layer k computes one row per (node, group), reading the
/// inputs of the group's first copy. Each row keeps its node's full in-edge
/// list in template order, so every sum accumulates exactly as in the full
/// forward and every row is bit-identical to the same row there.
///
/// The cones depend only on the template and are built with the plan (once
/// per batch skeleton). The groups, layer-0 rows, edge lists and readouts
/// depend on the configurations and are rebuilt for each chunk: refresh()
/// marks them stale, and the first prepare() after it builds them under
/// the plan's mutex while concurrent callers wait and then reuse them.
class RowPlan {
 public:
  /// Plans stop at kMaxDepth layers, the paper's GNN depth, or at the
  /// first layer whose cones equal the previous layer's (saturated: deeper
  /// layers repeat that layer's arrays). A model deeper than an
  /// unsaturated plan runs the whole batch instead.
  static constexpr std::size_t kMaxDepth = 6;

  /// C_0, ascending.
  const std::vector<std::int32_t>& input_nodes() const { return input_nodes_; }
  /// Planned conv layers.
  std::size_t depth() const { return cone_of_.size() - 1; }
  bool saturated() const { return saturated_; }
  bool covers(std::size_t depth) const {
    return saturated_ || depth <= this->depth();
  }
  /// P_k(v) as ascending indices into input_nodes() (layer 0: C_0 itself).
  const std::vector<std::int32_t>& cone(std::size_t layer,
                                        std::int32_t node) const;

  /// Marks the chunk's rows stale; call after rewriting the varying rows
  /// of the batch's x.
  void refresh();
  /// Builds the chunk's rows from `x_full` ([B·N, F], the batch's node
  /// features) on the first call after refresh(), and the readout of a
  /// depth-`depth` forward on its first request. Thread-safe: concurrent
  /// forwards over one batch share one build. The chunk views below and
  /// the returned readout stay valid until the next refresh().
  const Readout& prepare(const tensor::Tensor& x_full, std::size_t depth);

  /// Layer-0 input rows: one per node and distinct row of that node.
  const tensor::Tensor& x() const { return x_; }
  /// Conv layer `l` (0-based) as a ConvRows view.
  ConvRows conv_rows(std::size_t l) const;
  const LayerRows& layer(std::size_t l) const {
    return layers_[std::min(l, layers_.size() - 1)];
  }
  /// Row of copy b's node `node` among layer `layer`'s rows (0: x()).
  std::int32_t row(std::size_t layer, std::int64_t b, std::int32_t node) const {
    const std::size_t k = std::min(layer, depth());
    const auto c = cone_of_[k][static_cast<std::size_t>(node)];
    return base_[k][static_cast<std::size_t>(node)] +
           group_[static_cast<std::size_t>(c * copies_ + b)];
  }

 private:
  friend std::shared_ptr<RowPlan> plan_rows(const GraphBatch&,
                                            std::span<const std::int32_t>,
                                            std::int64_t, std::int64_t);
  void build(const tensor::Tensor& x_full);  // caller holds mu_
  void build_readout(std::size_t depth, Readout& out) const;

  // Per skeleton.
  std::int64_t copies_ = 0, nodes_ = 0;  // B, N (template nodes)
  std::int64_t col_begin_ = 0, col_end_ = 0;  // columns that vary
  std::vector<std::int32_t> input_nodes_;
  tensor::Tensor e_;  // template edge features, rows indexed by eid
  std::vector<std::int32_t> src_, in_off_, in_edges_;  // template in-CSR
  std::vector<std::vector<std::int32_t>> cones_;       // distinct cones
  std::vector<std::vector<std::int32_t>> cone_of_;  // [layer][node] -> cone
  bool saturated_ = false;

  // Per chunk, rebuilt in place (capacity reused) after each refresh().
  std::mutex mu_;
  bool stale_ = true;
  /// value_[b·|C_0| + j]: copy b's row of input_nodes[j] as an index into
  /// that node's distinct rows (first-occurrence order).
  std::vector<std::int32_t> value_, num_values_;
  /// group_[c·B + b]: copy b's group under cone c, numbered by first copy;
  /// rep_[rep_off_[c] + g]: the first copy of group g.
  std::vector<std::int32_t> group_, rep_, rep_off_, scratch_;
  std::vector<std::vector<std::int32_t>> base_;  // [layer][node] first row
  tensor::Tensor x_;
  std::vector<LayerRows> layers_;
  std::array<Readout, kMaxDepth + 1> readouts_;
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

}  // namespace gnndse::gnn
