#include "gnn/infer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "gnn/infer_simd.hpp"
#include "obs/simd_counters.hpp"
#include "util/parallel.hpp"

namespace gnndse::gnn {

using tensor::Tensor;

namespace {

// Fan-out grains: keep each chunk at ~16k elements so tiny tensors (the
// [E,1] score columns, head activations) run inline while the [N,124]/
// [N,hidden] node matrices split across the pool.
constexpr std::int64_t kElemGrain = 1 << 14;

std::int64_t row_grain(std::int64_t cols) {
  return std::max<std::int64_t>(1, kElemGrain / std::max<std::int64_t>(1, cols));
}

}  // namespace

Tensor& InferenceSession::next(std::vector<std::int64_t> shape, bool zero) {
  if (cursor_ == slots_.size()) {
    slots_.emplace_back();
    high_water_.push_back(0);
  }
  Tensor& t = slots_[cursor_];
  t.reset_(std::move(shape), zero);
  high_water_[cursor_] =
      std::max(high_water_[cursor_], static_cast<std::size_t>(t.numel()));
  ++cursor_;
  return t;
}

std::size_t InferenceSession::workspace_bytes() const {
  std::size_t total = 0;
  for (std::size_t n : high_water_) total += n * sizeof(float);
  return total;
}

// ---------------------------------------------------------------------------
// Dense ops.
// ---------------------------------------------------------------------------

const Tensor& InferenceSession::copy(const Tensor& a) {
  Tensor& out = next(a.shape(), /*zero=*/false);
  std::copy_n(a.data(), a.numel(), out.data());
  return out;
}

const Tensor& InferenceSession::linear(const Tensor& a, const Tensor& w,
                                       const Tensor* bias) {
  Tensor& out = next({a.rows(), w.cols()}, /*zero=*/false);
  tensor::matmul_bias(a, w, bias, out);
  return out;
}

const Tensor& InferenceSession::add(const Tensor& a, const Tensor& b,
                                    const std::int32_t* arow) {
  if (arow ? a.cols() != b.cols() : !a.same_shape(b))
    throw std::invalid_argument("add: shape mismatch " + a.shape_str() +
                                " vs " + b.shape_str());
  const std::int64_t c = b.cols();
  Tensor& out = next(b.shape(), /*zero=*/false);
  const float* ap = a.data();
  const float* bp = b.data();
  float* op = out.data();
  util::parallel_for(b.rows(), row_grain(c), [&](std::int64_t begin,
                                                 std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) {
      const float* arp = ap + (arow ? arow[i] : i) * c;
      for (std::int64_t j = 0; j < c; ++j) op[i * c + j] = arp[j] + bp[i * c + j];
    }
  });
  return out;
}

const Tensor& InferenceSession::mul_colbcast(const Tensor& col,
                                             const Tensor& x) {
  if (col.rows() != x.rows() || col.cols() != 1)
    throw std::invalid_argument("mul_colbcast: col must be [N,1]");
  const std::int64_t r = x.rows(), c = x.cols();
  Tensor& out = next({r, c}, /*zero=*/false);
  const float* cp = col.data();
  const float* xp = x.data();
  float* op = out.data();
  util::parallel_for(r, row_grain(c), [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) {
      const float s = cp[i];
      for (std::int64_t j = 0; j < c; ++j) op[i * c + j] = s * xp[i * c + j];
    }
  });
  return out;
}

const Tensor& InferenceSession::residual_concat(const Tensor& r,
                                                const Tensor& m,
                                                const std::int32_t* rrow) {
  if (rrow ? r.cols() != m.cols() : !r.same_shape(m))
    throw std::invalid_argument("residual_concat: r/m shape mismatch");
  const std::int64_t n = m.rows(), c = m.cols();
  Tensor& out = next({n, 3 * c}, /*zero=*/false);
  const float* rp = r.data();
  const float* mp = m.data();
  float* op = out.data();
  static obs::SimdDispatch dispatch("residual_concat");
  const util::SimdLevel lvl = dispatch.level();
  util::parallel_for(
      n, row_grain(3 * c), [&](std::int64_t begin, std::int64_t end) {
        simd::residual_concat_range(lvl, rp, rrow, mp, op, c, begin, end);
      });
  return out;
}

const Tensor& InferenceSession::gated_mix(const Tensor& m, const Tensor& beta,
                                          const Tensor& cat) {
  if (beta.rows() != m.rows() || beta.cols() != 1)
    throw std::invalid_argument("gated_mix: beta must be [N,1]");
  const std::int64_t r = m.rows(), c = m.cols();
  if (cat.rows() != r || cat.cols() != 3 * c)
    throw std::invalid_argument("gated_mix: cat must be [N,3c]");
  Tensor& out = next({r, c}, /*zero=*/false);
  const float* bp = beta.data();
  const float* mp = m.data();
  const float* dp = cat.data() + 2 * c;  // difference block, row stride 3c
  float* op = out.data();
  static obs::SimdDispatch dispatch("gated_mix");
  const util::SimdLevel lvl = dispatch.level();
  util::parallel_for(r, row_grain(c), [&](std::int64_t begin, std::int64_t end) {
    simd::gated_mix_range(lvl, mp, bp, dp, op, c, begin, end);
  });
  return out;
}

// ---------------------------------------------------------------------------
// Nonlinearities: the exact per-element formulas of the Tape ops.
// ---------------------------------------------------------------------------

namespace {

template <typename F>
const Tensor& map_unary(Tensor& out, const Tensor& in, F f) {
  const float* ip = in.data();
  float* op = out.data();
  util::parallel_for(in.numel(), kElemGrain,
                     [&](std::int64_t begin, std::int64_t end) {
                       for (std::int64_t i = begin; i < end; ++i)
                         op[i] = f(ip[i]);
                     });
  return out;
}

}  // namespace

const Tensor& InferenceSession::elu(const Tensor& a, float alpha) {
  Tensor& out = next(a.shape(), /*zero=*/false);
  return map_unary(out, a, [alpha](float x) {
    return x > 0 ? x : alpha * (std::exp(x) - 1.0f);
  });
}

const Tensor& InferenceSession::sigmoid(const Tensor& a) {
  Tensor& out = next(a.shape(), /*zero=*/false);
  return map_unary(out, a, [](float x) {
    // Branch on sign for numerical stability (same as Tape::sigmoid).
    if (x >= 0) {
      const float e = std::exp(-x);
      return 1.0f / (1.0f + e);
    }
    const float e = std::exp(x);
    return e / (1.0f + e);
  });
}

// ---------------------------------------------------------------------------
// Graph primitives.
// ---------------------------------------------------------------------------

const Tensor& InferenceSession::scatter_add_rows(
    const Tensor& a, const std::vector<std::int32_t>& idx,
    std::int64_t num_rows, const std::int32_t* rows, const float* alpha) {
  if (!rows && static_cast<std::int64_t>(idx.size()) != a.rows())
    throw std::invalid_argument("scatter_add_rows: index length != rows");
  const std::int64_t c = a.cols();
  Tensor& out = next({num_rows, c}, /*zero=*/true);
  const float* ap = a.data();
  float* op = out.data();
  // Serial on purpose: rows colliding on the same destination accumulate
  // in ascending source order, which defines the result bits.
  for (std::size_t i = 0; i < idx.size(); ++i) {
    const float* src = ap + (rows ? rows[i] : static_cast<std::int64_t>(i)) * c;
    float* dst = op + static_cast<std::int64_t>(idx[i]) * c;
    if (alpha) {
      const float s = alpha[i];
      for (std::int64_t j = 0; j < c; ++j) dst[j] += s * src[j];
    } else {
      for (std::int64_t j = 0; j < c; ++j) dst[j] += src[j];
    }
  }
  return out;
}

const Tensor& InferenceSession::segment_softmax(
    const Tensor& scores, std::span<const std::int32_t> seg,
    std::int64_t num_segments) {
  if (scores.cols() != 1 ||
      static_cast<std::int64_t>(seg.size()) != scores.rows())
    throw std::invalid_argument("segment_softmax: scores must be [E,1]");
  const std::int64_t e = scores.rows();
  // Serial, mirroring Tape::segment_softmax: the seg_sum accumulation
  // order is part of the bit-identity contract. The scratch vectors are
  // intentionally local — they are O(num_segments) and cheap next to the
  // [E,*] tensors; promoting them into slots would complicate reuse
  // tracking for no measurable gain.
  std::vector<float> seg_max(static_cast<std::size_t>(num_segments),
                             -std::numeric_limits<float>::infinity());
  for (std::int64_t i = 0; i < e; ++i)
    seg_max[static_cast<std::size_t>(seg[static_cast<std::size_t>(i)])] =
        std::max(seg_max[static_cast<std::size_t>(
                     seg[static_cast<std::size_t>(i)])],
                 scores.at(i, 0));
  Tensor& out = next({e, 1}, /*zero=*/false);
  std::vector<float> seg_sum(static_cast<std::size_t>(num_segments), 0.0f);
  for (std::int64_t i = 0; i < e; ++i) {
    const auto s = static_cast<std::size_t>(seg[static_cast<std::size_t>(i)]);
    const float v = std::exp(scores.at(i, 0) - seg_max[s]);
    out.at(i, 0) = v;
    seg_sum[s] += v;
  }
  // The max and exp/seg_sum passes above stay scalar: seg_sum's
  // accumulation order is part of the bit-identity contract and vector
  // exp approximations don't reproduce std::exp bits (see
  // docs/performance.md). The normalize pass is elementwise over
  // independent edges, so it dispatches.
  static obs::SimdDispatch dispatch("segment_softmax");
  const util::SimdLevel lvl = dispatch.level();
  simd::segment_softmax_normalize(lvl, seg_sum.data(), seg.data(), out.data(),
                                  0, e);
  return out;
}

const Tensor& InferenceSession::max_list(
    const std::vector<const Tensor*>& parts,
    const std::vector<const std::int32_t*>& rows, std::int64_t num_rows) {
  if (parts.empty()) throw std::invalid_argument("max_list: empty input");
  const Tensor& first = *parts[0];
  if (!rows.empty() && rows.size() != parts.size())
    throw std::invalid_argument("max_list: one row map per part");
  for (std::size_t k = 1; k < parts.size(); ++k)
    if (rows.empty() ? !parts[k]->same_shape(first)
                     : parts[k]->cols() != first.cols())
      throw std::invalid_argument("max_list: shape mismatch");
  const std::int64_t c = first.cols();
  Tensor& out = rows.empty() ? next(first.shape(), /*zero=*/false)
                             : next({num_rows, c}, /*zero=*/false);
  float* op = out.data();
  // Per element: copy the first layer, then fold the rest in ascending
  // layer order (same comparison sequence as Tape::max_list).
  util::parallel_for(out.rows(), row_grain(c), [&](std::int64_t begin,
                                                   std::int64_t end) {
    auto row = [&](std::size_t k, std::int64_t i) {
      return parts[k]->data() +
             (rows.empty() || !rows[k] ? i : rows[k][i]) * c;
    };
    for (std::int64_t i = begin; i < end; ++i) {
      float* orow = op + i * c;
      std::copy_n(row(0, i), c, orow);
      for (std::size_t k = 1; k < parts.size(); ++k) {
        const float* vp = row(k, i);
        for (std::int64_t j = 0; j < c; ++j)
          if (vp[j] > orow[j]) orow[j] = vp[j];
      }
    }
  });
  return out;
}

// ---------------------------------------------------------------------------
// Fused edge-domain kernels (see infer.hpp for the op chains they replace).
// ---------------------------------------------------------------------------

const Tensor& InferenceSession::edge_attention_scores(
    const Tensor& q, const Tensor& k, const Tensor& ek,
    std::span<const std::int32_t> src, std::span<const std::int32_t> qrow,
    const std::int32_t* eid, float c) {
  const std::int64_t e = static_cast<std::int64_t>(src.size());
  const std::int64_t d = q.cols();
  if (k.cols() != d || ek.cols() != d ||
      static_cast<std::int64_t>(qrow.size()) != e ||
      (!eid && ek.rows() != e))
    throw std::invalid_argument("edge_attention_scores: shape mismatch");
  Tensor& out = next({e, 1}, /*zero=*/false);
  const float* qp = q.data();
  const float* kp = k.data();
  const float* ep = ek.data();
  float* op = out.data();
  // Disjoint per-edge writes; ascending-d accumulation matches Tape::row_sum.
  static obs::SimdDispatch dispatch("edge_attention_scores");
  const util::SimdLevel lvl = dispatch.level();
  util::parallel_for(e, row_grain(d), [&](std::int64_t begin, std::int64_t end) {
    simd::edge_attention_scores_range(lvl, qp, kp, ep, src.data(), qrow.data(),
                                      eid, d, c, op, begin, end);
  });
  return out;
}

const Tensor& InferenceSession::weighted_scatter_add(
    const float* alpha, const Tensor& v, const Tensor& ev,
    std::span<const std::int32_t> src, std::span<const std::int32_t> dst,
    const std::int32_t* eid, std::int64_t num_rows) {
  const std::int64_t c = v.cols();
  if (ev.cols() != c ||
      (!eid && ev.rows() != static_cast<std::int64_t>(src.size())))
    throw std::invalid_argument("weighted_scatter_add: ev shape mismatch");
  Tensor& out = next({num_rows, c}, /*zero=*/true);
  const float* vp = v.data();
  const float* ep = ev.data();
  float* op = out.data();
  // Serial over edges on purpose: colliding destinations accumulate in
  // ascending edge order, which defines the result bits (same as
  // scatter_add_rows). Only the per-edge column sweep vectorizes.
  static obs::SimdDispatch dispatch("weighted_scatter_add");
  const util::SimdLevel lvl = dispatch.level();
  simd::weighted_scatter_add_edges(lvl, alpha, vp, ep, src.data(), dst.data(),
                                   eid, c, op,
                                   static_cast<std::int64_t>(src.size()));
  return out;
}

}  // namespace gnndse::gnn
