// Dense row-major float32 tensor used throughout the GNN stack.
//
// Scope: 1-D and 2-D tensors are the workhorses (node-feature matrices,
// weight matrices, per-edge score columns). The class stores a flat
// std::vector<float> with value semantics; all autodiff lives in tape.hpp.
#pragma once

#include <cassert>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/aligned.hpp"

namespace gnndse::tensor {

class Tensor {
 public:
  /// Backing store: 64-byte-aligned so the SIMD kernel layer's full-width
  /// vector loads on tensor bases never straddle cache lines.
  using Storage = util::AlignedVector<float>;

  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(std::vector<std::int64_t> shape);

  /// Tensor with explicit contents; data.size() must equal the shape volume
  /// (copied into aligned storage).
  Tensor(std::vector<std::int64_t> shape, const std::vector<float>& data);

  static Tensor zeros(std::vector<std::int64_t> shape) {
    return Tensor(std::move(shape));
  }
  static Tensor full(std::vector<std::int64_t> shape, float value);
  static Tensor scalar(float value) { return Tensor({1}, {value}); }

  const std::vector<std::int64_t>& shape() const { return shape_; }
  std::int64_t dim(std::size_t i) const {
    assert(i < shape_.size());
    return shape_[i];
  }
  std::size_t rank() const { return shape_.size(); }
  std::int64_t numel() const { return static_cast<std::int64_t>(data_.size()); }

  /// Rows/cols of a 2-D tensor (rows of a 1-D tensor = numel, cols = 1).
  /// Inline: at(r, c) calls cols() per element, so these sit on the hot
  /// path of every row-indexed kernel.
  std::int64_t rows() const {
    return shape_.empty() ? 0 : shape_[0];
  }
  std::int64_t cols() const {
    if (shape_.empty()) return 0;
    std::int64_t c = 1;
    for (std::size_t i = 1; i < shape_.size(); ++i) c *= shape_[i];
    return c;
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float& at(std::int64_t i) { return data_[static_cast<std::size_t>(i)]; }
  float at(std::int64_t i) const { return data_[static_cast<std::size_t>(i)]; }
  float& at(std::int64_t r, std::int64_t c) {
    return data_[static_cast<std::size_t>(r * cols() + c)];
  }
  float at(std::int64_t r, std::int64_t c) const {
    return data_[static_cast<std::size_t>(r * cols() + c)];
  }

  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

  /// Reshape without copying; new volume must match.
  Tensor reshaped(std::vector<std::int64_t> shape) const;

  /// In-place reshape that reuses the existing allocation whenever the
  /// new volume fits the current capacity (the workspace-slot reuse in
  /// gnn::InferenceSession depends on this being allocation-free in steady
  /// state). `zero` clears the contents; otherwise they are unspecified
  /// and the caller must overwrite every element.
  void reset_(std::vector<std::int64_t> shape, bool zero);

  /// In-place accumulation: *this += other (shapes must match).
  void add_(const Tensor& other);
  /// In-place scaling: *this *= s.
  void scale_(float s);
  /// Set all entries to v.
  void fill_(float v);

  float sum() const;
  float min() const;
  float max() const;
  float mean() const;
  /// Frobenius / L2 norm.
  float norm() const;

  std::string shape_str() const;

 private:
  std::vector<std::int64_t> shape_;
  Storage data_;
};

std::ostream& operator<<(std::ostream& os, const Tensor& t);

// ---------------------------------------------------------------------------
// Raw (non-autodiff) kernels. The tape ops in tape.cpp call into these for
// both forward values and gradient accumulation.
// ---------------------------------------------------------------------------

/// C = op(A) x op(B) where op is optional transpose. Shapes are checked.
Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a = false,
              bool trans_b = false);

/// C += op(A) x op(B) into an existing output (used for grad accumulation).
/// Above a FLOP threshold, rows of the output are split across the global
/// thread pool (util/parallel.hpp) with an L2-blocked kernel; per-element
/// accumulation order is fixed, so results are bit-identical at every
/// thread count. Transposed operands are packed once into thread-local
/// scratch shared read-only by all row chunks.
void matmul_acc(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b,
                Tensor& out);

/// C = A x B (+ bias per row), overwriting `out` — no zero fill needed.
/// Per-element arithmetic is the same ascending-k sum from zero as
/// matmul_acc on a zeroed output, followed by the same single bias add as
/// add_rowvec, so results are bit-identical to that two-op sequence; this
/// entry just skips the memset and the extra memory sweep (the inference
/// fast path's Linear uses it).
void matmul_bias(const Tensor& a, const Tensor& b, const Tensor* bias,
                 Tensor& out);

/// Elementwise binary ops (shapes must match).
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);

/// out[r, :] = a[r, :] + bias[:]  (bias is 1-D of length a.cols()).
Tensor add_rowvec(const Tensor& a, const Tensor& bias);

/// Gather rows: out[i, :] = a[idx[i], :].
Tensor gather_rows(const Tensor& a, const std::vector<std::int32_t>& idx);

/// Scatter-add rows: out[idx[i], :] += a[i, :]; out has `num_rows` rows.
Tensor scatter_add_rows(const Tensor& a, const std::vector<std::int32_t>& idx,
                        std::int64_t num_rows);

/// Concatenate along columns; all inputs must share the row count.
Tensor concat_cols(const std::vector<const Tensor*>& parts);

}  // namespace gnndse::tensor
