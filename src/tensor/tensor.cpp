#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/simd_counters.hpp"
#include "tensor/simd.hpp"
#include "util/parallel.hpp"

namespace gnndse::tensor {
namespace {

std::size_t volume(const std::vector<std::int64_t>& shape) {
  std::size_t v = 1;
  for (auto d : shape) {
    if (d < 0) throw std::invalid_argument("Tensor: negative dimension");
    v *= static_cast<std::size_t>(d);
  }
  return v;
}

}  // namespace

Tensor::Tensor(std::vector<std::int64_t> shape)
    : shape_(std::move(shape)), data_(volume(shape_), 0.0f) {}

Tensor::Tensor(std::vector<std::int64_t> shape, const std::vector<float>& data)
    : shape_(std::move(shape)), data_(data.begin(), data.end()) {
  if (data_.size() != volume(shape_))
    throw std::invalid_argument("Tensor: data size does not match shape");
}


Tensor Tensor::full(std::vector<std::int64_t> shape, float value) {
  Tensor t(std::move(shape));
  t.fill_(value);
  return t;
}

Tensor Tensor::reshaped(std::vector<std::int64_t> shape) const {
  if (static_cast<std::int64_t>(volume(shape)) != numel())
    throw std::invalid_argument("Tensor::reshaped: volume mismatch");
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_ = data_;
  return t;
}

void Tensor::reset_(std::vector<std::int64_t> shape, bool zero) {
  const std::size_t v = volume(shape);
  if (zero)
    data_.assign(v, 0.0f);
  else
    data_.resize(v);
  shape_ = std::move(shape);
}

void Tensor::add_(const Tensor& other) {
  if (!same_shape(other))
    throw std::invalid_argument("Tensor::add_: shape mismatch " + shape_str() +
                                " vs " + other.shape_str());
  const float* src = other.data();
  float* dst = data();
  const std::int64_t n = numel();
  for (std::int64_t i = 0; i < n; ++i) dst[i] += src[i];
}

void Tensor::scale_(float s) {
  for (auto& v : data_) v *= s;
}

void Tensor::fill_(float v) { std::fill(data_.begin(), data_.end(), v); }

float Tensor::sum() const {
  return std::accumulate(data_.begin(), data_.end(), 0.0f);
}

float Tensor::min() const {
  if (data_.empty()) throw std::runtime_error("Tensor::min on empty tensor");
  return *std::min_element(data_.begin(), data_.end());
}

float Tensor::max() const {
  if (data_.empty()) throw std::runtime_error("Tensor::max on empty tensor");
  return *std::max_element(data_.begin(), data_.end());
}

float Tensor::mean() const {
  if (data_.empty()) return 0.0f;
  return sum() / static_cast<float>(data_.size());
}

float Tensor::norm() const {
  double acc = 0.0;
  for (float v : data_) acc += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(acc));
}

std::string Tensor::shape_str() const {
  std::ostringstream oss;
  oss << '[';
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i) oss << ", ";
    oss << shape_[i];
  }
  oss << ']';
  return oss.str();
}

std::ostream& operator<<(std::ostream& os, const Tensor& t) {
  os << "Tensor" << t.shape_str() << " {";
  const std::int64_t n = std::min<std::int64_t>(t.numel(), 8);
  for (std::int64_t i = 0; i < n; ++i) {
    if (i) os << ", ";
    os << t.at(i);
  }
  if (t.numel() > n) os << ", ...";
  os << "}";
  return os;
}

// ---------------------------------------------------------------------------
// Matmul.
// ---------------------------------------------------------------------------

namespace {

struct MatView {
  const float* p;
  std::int64_t rows, cols;
  bool trans;
  std::int64_t r() const { return trans ? cols : rows; }
  std::int64_t c() const { return trans ? rows : cols; }
  float at(std::int64_t i, std::int64_t j) const {
    return trans ? p[j * cols + i] : p[i * cols + j];
  }
};

MatView view2d(const Tensor& t, bool trans) {
  if (t.rank() != 2)
    throw std::invalid_argument("matmul requires rank-2 tensors, got " +
                                t.shape_str());
  return MatView{t.data(), t.dim(0), t.dim(1), trans};
}

/// Transpose-pack scratch reused across calls: the backward pass hits the
/// trans_a/trans_b paths on every step, and a fresh heap allocation per
/// call dominated small-batch gradient time. Thread-local so concurrent
/// matmuls (e.g. from parallel DSE stages) never share a buffer; the
/// operands are packed once by the caller, then read-only for all chunks
/// of the row-parallel loop below.
thread_local std::vector<float> tl_pack_a;
thread_local std::vector<float> tl_pack_b;

/// Fan out only when the product is worth a pool round-trip, and size the
/// row grain so each chunk carries at least this many FLOPs.
constexpr std::int64_t kParallelFlops = std::int64_t{1} << 20;

}  // namespace

namespace {

void matmul_impl(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b,
                 Tensor& out, bool init, const float* bias) {
  MatView av = view2d(a, trans_a);
  MatView bv = view2d(b, trans_b);
  const std::int64_t m = av.r(), k = av.c(), n = bv.c();
  if (bv.r() != k)
    throw std::invalid_argument("matmul: inner dims mismatch " +
                                a.shape_str() + " x " + b.shape_str());
  if (out.rank() != 2 || out.dim(0) != m || out.dim(1) != n)
    throw std::invalid_argument("matmul_acc: bad output shape");

  float* o = out.data();
  // Hot layout: A [m,k] row-major, B [k,n] row-major -> i-k-j loop keeps B
  // row accesses contiguous and vectorizable. Other layouts pack once into
  // the thread-local scratch so the hot loop always runs on row-major
  // operands.
  const float* ap = a.data();
  const float* bp = b.data();
  if (trans_a) {
    tl_pack_a.resize(static_cast<std::size_t>(m) * k);
    for (std::int64_t i = 0; i < m; ++i)
      for (std::int64_t x = 0; x < k; ++x) tl_pack_a[i * k + x] = av.at(i, x);
    ap = tl_pack_a.data();
  }
  if (trans_b) {
    tl_pack_b.resize(static_cast<std::size_t>(k) * n);
    for (std::int64_t x = 0; x < k; ++x)
      for (std::int64_t j = 0; j < n; ++j) tl_pack_b[x * n + j] = bv.at(x, j);
    bp = tl_pack_b.data();
  }

  // SIMD level resolved once per matmul (simd::matmul_rows walks the k
  // panels and register tiles; see tensor/simd.hpp — bit-identical at
  // every level) and shared by all row chunks.
  static obs::SimdDispatch dispatch("matmul");
  const util::SimdLevel lvl = dispatch.level();

  const std::int64_t flops = 2 * m * k * n;
  if (flops >= kParallelFlops && !util::in_parallel_region()) {
    static obs::Counter& c_par = obs::counter("tensor.parallel_matmuls");
    obs::add(c_par);
    const std::int64_t grain = std::max<std::int64_t>(
        1, kParallelFlops / std::max<std::int64_t>(1, 2 * k * n));
    util::parallel_for(m, grain, [&](std::int64_t i0, std::int64_t i1) {
      simd::matmul_rows(lvl, ap, bp, o, i0, i1, k, n, init, bias);
    });
  } else {
    simd::matmul_rows(lvl, ap, bp, o, 0, m, k, n, init, bias);
  }
}

}  // namespace

void matmul_acc(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b,
                Tensor& out) {
  matmul_impl(a, b, trans_a, trans_b, out, /*init=*/false, /*bias=*/nullptr);
}

void matmul_bias(const Tensor& a, const Tensor& b, const Tensor* bias,
                 Tensor& out) {
  if (bias != nullptr && bias->numel() != view2d(b, false).c())
    throw std::invalid_argument("matmul_bias: bias length != cols");
  matmul_impl(a, b, false, false, out, /*init=*/true,
              bias != nullptr ? bias->data() : nullptr);
}

Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  MatView av = view2d(a, trans_a);
  MatView bv = view2d(b, trans_b);
  Tensor out({av.r(), bv.c()});
  matmul_acc(a, b, trans_a, trans_b, out);
  return out;
}

// ---------------------------------------------------------------------------
// Elementwise and structured ops.
// ---------------------------------------------------------------------------

namespace {

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  if (!a.same_shape(b))
    throw std::invalid_argument(std::string(op) + ": shape mismatch " +
                                a.shape_str() + " vs " + b.shape_str());
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add");
  Tensor out = a;
  out.add_(b);
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "sub");
  Tensor out = a;
  const float* bp = b.data();
  float* op = out.data();
  for (std::int64_t i = 0; i < out.numel(); ++i) op[i] -= bp[i];
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mul");
  Tensor out = a;
  const float* bp = b.data();
  float* op = out.data();
  for (std::int64_t i = 0; i < out.numel(); ++i) op[i] *= bp[i];
  return out;
}

Tensor add_rowvec(const Tensor& a, const Tensor& bias) {
  if (bias.numel() != a.cols())
    throw std::invalid_argument("add_rowvec: bias length != cols");
  Tensor out = a;
  const std::int64_t r = a.rows(), c = a.cols();
  const float* bp = bias.data();
  float* op = out.data();
  for (std::int64_t i = 0; i < r; ++i)
    for (std::int64_t j = 0; j < c; ++j) op[i * c + j] += bp[j];
  return out;
}

Tensor gather_rows(const Tensor& a, const std::vector<std::int32_t>& idx) {
  const std::int64_t c = a.cols();
  Tensor out({static_cast<std::int64_t>(idx.size()), c});
  const float* ap = a.data();
  float* op = out.data();
  for (std::size_t i = 0; i < idx.size(); ++i) {
    assert(idx[i] >= 0 && idx[i] < a.rows());
    std::copy_n(ap + static_cast<std::int64_t>(idx[i]) * c, c,
                op + static_cast<std::int64_t>(i) * c);
  }
  return out;
}

Tensor scatter_add_rows(const Tensor& a, const std::vector<std::int32_t>& idx,
                        std::int64_t num_rows) {
  if (static_cast<std::int64_t>(idx.size()) != a.rows())
    throw std::invalid_argument("scatter_add_rows: index length != rows");
  const std::int64_t c = a.cols();
  Tensor out({num_rows, c});
  const float* ap = a.data();
  float* op = out.data();
  for (std::size_t i = 0; i < idx.size(); ++i) {
    assert(idx[i] >= 0 && idx[i] < num_rows);
    const float* src = ap + static_cast<std::int64_t>(i) * c;
    float* dst = op + static_cast<std::int64_t>(idx[i]) * c;
    for (std::int64_t j = 0; j < c; ++j) dst[j] += src[j];
  }
  return out;
}

Tensor concat_cols(const std::vector<const Tensor*>& parts) {
  if (parts.empty()) throw std::invalid_argument("concat_cols: empty input");
  const std::int64_t r = parts[0]->rows();
  std::int64_t total_c = 0;
  for (const Tensor* p : parts) {
    if (p->rows() != r)
      throw std::invalid_argument("concat_cols: row count mismatch");
    total_c += p->cols();
  }
  Tensor out({r, total_c});
  float* op = out.data();
  for (std::int64_t i = 0; i < r; ++i) {
    std::int64_t off = 0;
    for (const Tensor* p : parts) {
      const std::int64_t c = p->cols();
      std::copy_n(p->data() + i * c, c, op + i * total_c + off);
      off += c;
    }
  }
  return out;
}

}  // namespace gnndse::tensor
