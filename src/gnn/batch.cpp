#include "gnn/batch.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <map>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

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
  r.edges = &e_;
  r.rrow = lr.rrow.data();
  return r;
}

const std::vector<std::int32_t>& RowPlan::cone(std::size_t layer,
                                               std::int32_t node) const {
  const std::size_t k = std::min(layer, depth());
  return cones_[static_cast<std::size_t>(
      cone_of_[k][static_cast<std::size_t>(node)])];
}

void RowPlan::refresh() {
  std::lock_guard<std::mutex> lock(mu_);
  stale_ = true;
}

const Readout& RowPlan::prepare(const tensor::Tensor& x_full,
                                std::size_t depth) {
  static obs::Histogram& h_build = obs::histogram("gnn.row_plan_ms");
  const std::size_t d = std::min(depth, this->depth());
  std::lock_guard<std::mutex> lock(mu_);
  if (stale_) {
    util::Timer timer;
    build(x_full);
    for (Readout& r : readouts_) r.built = false;
    stale_ = false;
    obs::observe(h_build, timer.millis());
  }
  Readout& r = readouts_[d];
  if (!r.built) build_readout(d, r);
  return r;
}

void RowPlan::build(const tensor::Tensor& x_full) {
  const std::int64_t nb = copies_, n = nodes_, f = x_full.cols();
  const auto nv = static_cast<std::int64_t>(input_nodes_.size());
  const auto cols = static_cast<std::size_t>(col_end_ - col_begin_);
  const float* xp = x_full.data();
  auto varying_cols = [&](std::int64_t b, std::int64_t node) {
    return xp + (b * n + node) * f + col_begin_;
  };

  // Layer-0 ids: copy b's varying columns of each input node, interned
  // bytewise (equal bytes, equal row) in first-copy order.
  value_.resize(static_cast<std::size_t>(nb * nv));
  num_values_.assign(static_cast<std::size_t>(nv), 0);
  for (std::int64_t j = 0; j < nv; ++j) {
    const std::int32_t node = input_nodes_[static_cast<std::size_t>(j)];
    scratch_.clear();  // first copy of each distinct value
    for (std::int64_t b = 0; b < nb; ++b) {
      const float* v = varying_cols(b, node);
      std::size_t id = 0;
      while (id < scratch_.size() &&
             std::memcmp(v, varying_cols(scratch_[id], node),
                         cols * sizeof(float)) != 0)
        ++id;
      if (id == scratch_.size())
        scratch_.push_back(static_cast<std::int32_t>(b));
      value_[static_cast<std::size_t>(b * nv + j)] =
          static_cast<std::int32_t>(id);
    }
    num_values_[static_cast<std::size_t>(j)] =
        static_cast<std::int32_t>(scratch_.size());
  }

  // Copy groups per cone: refine by one input node at a time, numbering
  // the pairs (group, value) by first copy, so the numbering is the same
  // in whatever order the cone's nodes are taken.
  const std::size_t nc = cones_.size();
  group_.assign(nc * static_cast<std::size_t>(nb), 0);
  rep_.clear();
  rep_off_.resize(nc + 1);
  for (std::size_t c = 0; c < nc; ++c) {
    std::int32_t* g = group_.data() + c * static_cast<std::size_t>(nb);
    std::int32_t groups = 1;
    for (std::int32_t j : cones_[c]) {
      const std::int32_t kv = num_values_[static_cast<std::size_t>(j)];
      scratch_.assign(static_cast<std::size_t>(groups * kv), -1);
      std::int32_t next = 0;
      for (std::int64_t b = 0; b < nb; ++b) {
        std::int32_t& slot = scratch_[static_cast<std::size_t>(
            g[b] * kv + value_[static_cast<std::size_t>(b * nv + j)])];
        if (slot < 0) slot = next++;
        g[b] = slot;
      }
      groups = next;
    }
    rep_off_[c] = static_cast<std::int32_t>(rep_.size());
    for (std::int64_t b = 0; b < nb; ++b)
      if (g[b] == static_cast<std::int32_t>(rep_.size()) - rep_off_[c])
        rep_.push_back(static_cast<std::int32_t>(b));
  }
  rep_off_[nc] = static_cast<std::int32_t>(rep_.size());

  // Row layout per layer: node v's groups are consecutive rows from
  // base_[k][v], nodes ascending.
  base_.resize(cone_of_.size());
  for (std::size_t k = 0; k < cone_of_.size(); ++k) {
    base_[k].resize(static_cast<std::size_t>(n) + 1);
    base_[k][0] = 0;
    for (std::size_t v = 0; v < static_cast<std::size_t>(n); ++v) {
      const auto c = static_cast<std::size_t>(cone_of_[k][v]);
      base_[k][v + 1] = base_[k][v] + rep_off_[c + 1] - rep_off_[c];
    }
  }
  // The rows of node v at layer k, each with the first copy of its group.
  auto for_rows = [&](std::size_t k, auto&& fn) {
    for (std::int32_t v = 0; v < static_cast<std::int32_t>(n); ++v) {
      const auto c = static_cast<std::size_t>(
          cone_of_[k][static_cast<std::size_t>(v)]);
      for (std::int32_t i = rep_off_[c]; i < rep_off_[c + 1]; ++i)
        fn(v, rep_[static_cast<std::size_t>(i)]);
    }
  };

  x_.reset_({base_[0][static_cast<std::size_t>(n)], f}, /*zero=*/false);
  float* out = x_.data();
  for_rows(0, [&](std::int32_t v, std::int32_t b) {
    out = std::copy_n(xp + (b * n + v) * f, f, out);
  });

  layers_.resize(depth());
  for (std::size_t k = 1; k <= depth(); ++k) {
    LayerRows& lr = layers_[k - 1];
    lr.num_rows = base_[k][static_cast<std::size_t>(n)];
    lr.src.clear();
    lr.dst.clear();
    lr.qrow.clear();
    lr.eid.clear();
    lr.rrow.clear();
    for_rows(k, [&](std::int32_t v, std::int32_t b) {
      const auto out_row = static_cast<std::int32_t>(lr.rrow.size());
      const std::int32_t self = row(k - 1, b, v);
      lr.rrow.push_back(self);
      const auto vi = static_cast<std::size_t>(v);
      for (std::int32_t i = in_off_[vi]; i < in_off_[vi + 1]; ++i) {
        const std::int32_t e = in_edges_[static_cast<std::size_t>(i)];
        lr.src.push_back(row(k - 1, b, src_[static_cast<std::size_t>(e)]));
        lr.dst.push_back(out_row);
        lr.qrow.push_back(self);
        lr.eid.push_back(e);
      }
    });
  }
}

void RowPlan::build_readout(std::size_t d, Readout& r) const {
  const std::int64_t nb = copies_, n = nodes_;
  r.node_row.resize(static_cast<std::size_t>(nb * n));
  for (std::int64_t b = 0; b < nb; ++b)
    for (std::int32_t v = 0; v < static_cast<std::int32_t>(n); ++v)
      r.node_row[static_cast<std::size_t>(b * n + v)] = row(d, b, v);
  // A node's layer-d cone contains its cones at every earlier layer, so
  // the copies of a layer-d row share one row at each earlier layer too.
  r.layer_rows.resize(d > 0 ? d - 1 : 0);
  for (std::size_t k = 1; k < d; ++k) {
    std::vector<std::int32_t>& to = r.layer_rows[k - 1];
    to.clear();
    for (std::int32_t v = 0; v < static_cast<std::int32_t>(n); ++v) {
      const auto c = static_cast<std::size_t>(
          cone_of_[d][static_cast<std::size_t>(v)]);
      for (std::int32_t i = rep_off_[c]; i < rep_off_[c + 1]; ++i)
        to.push_back(row(k, rep_[static_cast<std::size_t>(i)], v));
    }
  }
  r.built = true;
}

std::shared_ptr<RowPlan> plan_rows(const GraphBatch& copies,
                                   std::span<const std::int32_t> varying,
                                   std::int64_t col_begin,
                                   std::int64_t col_end) {
  auto plan = std::make_shared<RowPlan>();
  RowPlan& p = *plan;
  const auto n = static_cast<std::size_t>(copies.node_offset[1]);
  const std::size_t ne =
      copies.src.size() / static_cast<std::size_t>(copies.num_graphs);
  p.copies_ = copies.num_graphs;
  p.nodes_ = static_cast<std::int64_t>(n);
  p.col_begin_ = col_begin;
  p.col_end_ = col_end < 0 ? copies.x.cols() : col_end;
  // Copy 0's edges and edge features are the template's.
  p.src_.assign(copies.src.begin(),
                copies.src.begin() + static_cast<std::ptrdiff_t>(ne));
  const std::int64_t fe = copies.e.cols();
  p.e_ = tensor::Tensor({static_cast<std::int64_t>(ne), fe});
  std::copy_n(copies.e.data(), p.e_.numel(), p.e_.data());

  // In-edges per node in ascending edge order (CSR).
  p.in_off_.assign(n + 1, 0);
  p.in_edges_.resize(ne);
  for (std::size_t e = 0; e < ne; ++e)
    ++p.in_off_[static_cast<std::size_t>(copies.dst[e]) + 1];
  for (std::size_t i = 0; i < n; ++i) p.in_off_[i + 1] += p.in_off_[i];
  std::vector<std::int32_t> fill(p.in_off_.begin(), p.in_off_.end() - 1);
  for (std::size_t e = 0; e < ne; ++e)
    p.in_edges_[static_cast<std::size_t>(
        fill[static_cast<std::size_t>(copies.dst[e])]++)] =
        static_cast<std::int32_t>(e);

  p.input_nodes_.assign(varying.begin(), varying.end());
  std::sort(p.input_nodes_.begin(), p.input_nodes_.end());
  p.input_nodes_.erase(
      std::unique(p.input_nodes_.begin(), p.input_nodes_.end()),
      p.input_nodes_.end());

  // Cones, interned so that nodes and layers with equal cones share one
  // grouping per chunk.
  std::map<std::vector<std::int32_t>, std::int32_t> ids;
  auto intern = [&](std::vector<std::int32_t> cone) {
    auto [it, fresh] =
        ids.emplace(cone, static_cast<std::int32_t>(p.cones_.size()));
    if (fresh) p.cones_.push_back(std::move(cone));
    return it->second;
  };
  std::vector<std::int32_t> layer0(n);
  for (std::size_t v = 0; v < n; ++v) {
    const auto it = std::lower_bound(p.input_nodes_.begin(),
                                     p.input_nodes_.end(),
                                     static_cast<std::int32_t>(v));
    std::vector<std::int32_t> cone;
    if (it != p.input_nodes_.end() && *it == static_cast<std::int32_t>(v))
      cone.push_back(static_cast<std::int32_t>(it - p.input_nodes_.begin()));
    layer0[v] = intern(std::move(cone));
  }
  p.cone_of_.push_back(std::move(layer0));
  while (p.depth() < RowPlan::kMaxDepth) {
    const std::vector<std::int32_t>& prev = p.cone_of_.back();
    std::vector<std::int32_t> cur(n);
    for (std::size_t v = 0; v < n; ++v) {
      std::vector<std::int32_t> cone =
          p.cones_[static_cast<std::size_t>(prev[v])];
      for (std::int32_t i = p.in_off_[v]; i < p.in_off_[v + 1]; ++i) {
        const std::int32_t e = p.in_edges_[static_cast<std::size_t>(i)];
        const auto u = static_cast<std::size_t>(
            p.src_[static_cast<std::size_t>(e)]);
        const auto& from = p.cones_[static_cast<std::size_t>(prev[u])];
        std::vector<std::int32_t> merged;
        std::set_union(cone.begin(), cone.end(), from.begin(), from.end(),
                       std::back_inserter(merged));
        cone = std::move(merged);
      }
      cur[v] = intern(std::move(cone));
    }
    const bool same = cur == prev;
    p.cone_of_.push_back(std::move(cur));
    if (same) {
      p.saturated_ = true;
      break;
    }
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
