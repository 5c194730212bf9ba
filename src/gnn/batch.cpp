#include "gnn/batch.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/parallel.hpp"

namespace gnndse::gnn {

namespace {

/// Shared batch assembly over any indexable graph range: both public
/// overloads funnel here so their outputs are identical by construction.
template <typename GetGraph>
GraphBatch make_batch_impl(std::size_t count, GetGraph&& graph_at) {
  GraphBatch b;
  const std::int64_t fn = graph_at(0).x.cols();
  const std::int64_t fe = graph_at(0).e.cols();
  // Serial prefix pass fixes every graph's node/edge offset so the copy
  // loop below can fan out with each graph writing a disjoint slice.
  std::vector<std::int64_t> n_offs(count + 1, 0);
  std::vector<std::int64_t> e_offs(count + 1, 0);
  for (std::size_t gi = 0; gi < count; ++gi) {
    const GraphData& g = graph_at(gi);
    if (g.x.cols() != fn || g.e.cols() != fe)
      throw std::invalid_argument("make_batch: feature width mismatch");
    n_offs[gi + 1] = n_offs[gi] + g.x.rows();
    e_offs[gi + 1] = e_offs[gi] + g.e.rows();
  }
  const std::int64_t n_total = n_offs.back();
  const std::int64_t e_total = e_offs.back();

  b.x = tensor::Tensor({n_total, fn});
  b.e = tensor::Tensor({e_total, fe});
  b.src.resize(static_cast<std::size_t>(e_total));
  b.dst.resize(static_cast<std::size_t>(e_total));
  b.node_graph.resize(static_cast<std::size_t>(n_total));
  b.num_nodes = n_total;
  b.num_graphs = static_cast<std::int64_t>(count);
  b.node_offset.assign(n_offs.begin(), n_offs.end());

  // Per-graph aux rows (pragma-only features for the M1 baseline).
  const std::int64_t fa = graph_at(0).aux.numel();
  if (fa > 0) b.aux = tensor::Tensor({b.num_graphs, fa});

  util::parallel_for(
      static_cast<std::int64_t>(count), 1,
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t gl = begin; gl < end; ++gl) {
          const auto gi = static_cast<std::size_t>(gl);
          const GraphData& g = graph_at(gi);
          const std::int64_t n_off = n_offs[gi], e_off = e_offs[gi];
          const std::int64_t n = g.x.rows(), e = g.e.rows();
          std::copy_n(g.x.data(), n * fn, b.x.data() + n_off * fn);
          std::copy_n(g.e.data(), e * fe, b.e.data() + e_off * fe);
          for (std::int64_t i = 0; i < n; ++i)
            b.node_graph[static_cast<std::size_t>(n_off + i)] =
                static_cast<std::int32_t>(gi);
          for (std::size_t k = 0; k < g.src.size(); ++k) {
            const auto ek = static_cast<std::size_t>(e_off) + k;
            b.src[ek] = static_cast<std::int32_t>(g.src[k] + n_off);
            b.dst[ek] = static_cast<std::int32_t>(g.dst[k] + n_off);
          }
          if (fa > 0) {
            if (g.aux.numel() != fa)
              throw std::invalid_argument("make_batch: aux width mismatch");
            std::copy_n(g.aux.data(), fa, b.aux.data() + gl * fa);
          }
        }
      });

  return b;
}

}  // namespace

ConvRows GraphBatch::conv_rows() const {
  ConvRows r;
  r.num_rows = num_nodes;
  r.src = src;
  r.dst = dst;
  r.qrow = dst;
  r.edges = &e;
  return r;
}

ConvRows RowPlan::conv_rows(std::size_t l) const {
  const LayerRows& lr = layer(l);
  ConvRows r;
  r.num_rows = lr.num_rows;
  r.src = lr.src;
  r.dst = lr.dst;
  r.qrow = lr.qrow;
  r.eid = lr.eid.data();
  r.edges = &e;
  r.rrow = lr.rrow.data();
  return r;
}

void RowPlan::refresh(const tensor::Tensor& x_full, std::int64_t col_begin,
                      std::int64_t col_end) {
  const std::int64_t f = x.cols();
  if (col_end < 0) col_end = f;
  const auto nv = static_cast<std::int64_t>(input_nodes.size());
  for (std::int64_t b = 0; b < copies; ++b)
    for (std::int64_t j = 0; j < nv; ++j) {
      const float* from =
          x_full.data() + (b * nodes + input_nodes[static_cast<std::size_t>(j)]) * f;
      std::copy(from + col_begin, from + col_end,
                x.data() + (b * nv + j) * f + col_begin);
    }
}

namespace {

/// The rows of one plan layer: node i's row for copy b is b·|C| + pos[i]
/// when i is in the varying set C, else the shared row pos[i] (shared rows
/// follow the B·|C| per-copy rows, both in ascending node order).
struct RowSpace {
  std::vector<char> in;
  std::vector<std::int32_t> pos;
  std::int32_t size = 0;  // |C|

  RowSpace(std::vector<char> member, std::int64_t copies)
      : in(std::move(member)), pos(in.size()) {
    for (std::size_t i = 0; i < in.size(); ++i)
      if (in[i]) pos[i] = size++;
    auto shared = static_cast<std::int32_t>(copies) * size;
    for (std::size_t i = 0; i < in.size(); ++i)
      if (!in[i]) pos[i] = shared++;
  }
  std::int64_t rows(std::int64_t copies) const {
    return copies * size + static_cast<std::int64_t>(in.size()) - size;
  }
  std::int32_t row(std::int64_t b, std::int32_t node) const {
    const auto i = static_cast<std::size_t>(node);
    return in[i] ? static_cast<std::int32_t>(b) * size + pos[i] : pos[i];
  }
};

}  // namespace

std::shared_ptr<RowPlan> plan_rows(const GraphBatch& copies,
                                   std::span<const std::int32_t> varying) {
  auto plan = std::make_shared<RowPlan>();
  const std::int64_t nb = copies.num_graphs;
  const auto n = static_cast<std::size_t>(copies.node_offset[1]);
  const std::size_t ne = copies.src.size() / static_cast<std::size_t>(nb);
  plan->copies = nb;
  plan->nodes = static_cast<std::int64_t>(n);
  // Copy 0's edges and edge features are the template's.
  const std::span<const std::int32_t> src(copies.src.data(), ne);
  const std::span<const std::int32_t> dst(copies.dst.data(), ne);
  const std::int64_t fe = copies.e.cols();
  plan->e = tensor::Tensor({static_cast<std::int64_t>(ne), fe});
  std::copy_n(copies.e.data(), plan->e.numel(), plan->e.data());

  // In-edges per node in ascending edge order (CSR).
  std::vector<std::int32_t> in_off(n + 1, 0), in_edges(ne);
  for (std::int32_t d : dst) ++in_off[static_cast<std::size_t>(d) + 1];
  for (std::size_t i = 0; i < n; ++i) in_off[i + 1] += in_off[i];
  std::vector<std::int32_t> fill(in_off.begin(), in_off.end() - 1);
  for (std::size_t e = 0; e < ne; ++e)
    in_edges[static_cast<std::size_t>(fill[static_cast<std::size_t>(dst[e])]++)] =
        static_cast<std::int32_t>(e);

  std::vector<char> member(n, 0);
  for (std::int32_t v : varying) member[static_cast<std::size_t>(v)] = 1;
  RowSpace prev(member, nb);
  for (std::size_t i = 0; i < n; ++i)
    if (member[i]) plan->input_nodes.push_back(static_cast<std::int32_t>(i));

  // Layer-0 rows: shared rows from the template, per-copy rows by refresh.
  const std::int64_t fx = copies.x.cols();
  plan->x = tensor::Tensor({prev.rows(nb), fx});
  for (std::size_t i = 0; i < n; ++i)
    if (!member[i])
      std::copy_n(copies.x.data() + static_cast<std::int64_t>(i) * fx, fx,
                  plan->x.data() + prev.pos[i] * fx);
  plan->refresh(copies.x);

  while (plan->layers.size() < RowPlan::kMaxDepth) {
    std::vector<char> next = prev.in;
    for (std::size_t e = 0; e < ne; ++e)
      if (prev.in[static_cast<std::size_t>(src[e])])
        next[static_cast<std::size_t>(dst[e])] = 1;
    RowSpace cur(std::move(next), nb);
    LayerRows lr;
    lr.num_rows = cur.rows(nb);
    lr.rrow.resize(static_cast<std::size_t>(lr.num_rows));
    // One output row: its node's in-edges in template order.
    auto emit = [&](std::int64_t b, std::int32_t node) {
      const std::int32_t out = cur.row(b, node);
      const std::int32_t self = prev.row(b, node);
      lr.rrow[static_cast<std::size_t>(out)] = self;
      const auto ni = static_cast<std::size_t>(node);
      for (std::int32_t k = in_off[ni]; k < in_off[ni + 1]; ++k) {
        const std::int32_t e = in_edges[static_cast<std::size_t>(k)];
        const std::int32_t from = prev.row(b, src[static_cast<std::size_t>(e)]);
        lr.src.push_back(from);
        lr.dst.push_back(out);
        lr.qrow.push_back(self);
        lr.eid.push_back(e);
      }
    };
    for (std::size_t i = 0; i < n; ++i)
      if (cur.in[i]) lr.nodes.push_back(static_cast<std::int32_t>(i));
    for (std::int64_t b = 0; b < nb; ++b)
      for (std::int32_t node : lr.nodes) emit(b, node);
    // Shared rows are computed as copy 0's: all their inputs are shared.
    for (std::size_t i = 0; i < n; ++i)
      if (!cur.in[i]) emit(0, static_cast<std::int32_t>(i));
    for (std::int64_t b = 0; b < nb; ++b)
      for (std::size_t i = 0; i < n; ++i)
        lr.node_row.push_back(cur.row(b, static_cast<std::int32_t>(i)));
    const bool grew = cur.size != prev.size;
    plan->layers.push_back(std::move(lr));
    if (!grew) {
      plan->saturated = true;
      break;
    }
    prev = std::move(cur);
  }
  return plan;
}

GraphBatch make_batch(const std::vector<const GraphData*>& graphs) {
  if (graphs.empty()) throw std::invalid_argument("make_batch: empty batch");
  return make_batch_impl(
      graphs.size(),
      [&](std::size_t i) -> const GraphData& { return *graphs[i]; });
}

GraphBatch make_batch(std::initializer_list<const GraphData*> graphs) {
  if (graphs.size() == 0)
    throw std::invalid_argument("make_batch: empty batch");
  return make_batch_impl(
      graphs.size(),
      [&](std::size_t i) -> const GraphData& { return *graphs.begin()[i]; });
}

GraphBatch make_batch(std::span<const GraphData> graphs) {
  if (graphs.empty()) throw std::invalid_argument("make_batch: empty batch");
  return make_batch_impl(
      graphs.size(),
      [&](std::size_t i) -> const GraphData& { return graphs[i]; });
}

}  // namespace gnndse::gnn
