#include "gnn/layers.hpp"

#include <stdexcept>

#include "tensor/init.hpp"

namespace gnndse::gnn {

using tensor::Tape;
using tensor::VarId;

Linear::Linear(std::int64_t in, std::int64_t out, util::Rng& rng, bool bias)
    : w_(tensor::xavier_uniform(in, out, rng)),
      b_(tensor::Tensor({out})),
      has_bias_(bias) {}

VarId Linear::forward(Tape& t, VarId x) {
  VarId y = t.matmul(x, t.param(w_));
  if (has_bias_) y = t.add_rowvec(y, t.param(b_));
  return y;
}

const tensor::Tensor& Linear::forward_infer(InferenceSession& s,
                                            const tensor::Tensor& x) {
  return s.linear(x, w_.value, has_bias_ ? &b_.value : nullptr);
}

std::vector<tensor::Parameter*> Linear::params() {
  if (has_bias_) return {&w_, &b_};
  return {&w_};
}

Mlp::Mlp(const std::vector<std::int64_t>& dims, util::Rng& rng) {
  if (dims.size() < 2) throw std::invalid_argument("Mlp: need >= 2 dims");
  layers_.reserve(dims.size() - 1);
  for (std::size_t i = 0; i + 1 < dims.size(); ++i)
    layers_.emplace_back(dims[i], dims[i + 1], rng);
}

VarId Mlp::forward(Tape& t, VarId x) {
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (i > 0) x = t.elu(x);
    x = layers_[i].forward(t, x);
  }
  return x;
}

const tensor::Tensor& Mlp::forward_infer(InferenceSession& s,
                                         const tensor::Tensor& x) {
  const tensor::Tensor* h = &x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (i > 0) h = &s.elu(*h);
    h = &layers_[i].forward_infer(s, *h);
  }
  return *h;
}

std::vector<tensor::Parameter*> Mlp::params() {
  std::vector<tensor::Parameter*> out;
  for (auto& l : layers_)
    for (auto* p : l.params()) out.push_back(p);
  return out;
}

}  // namespace gnndse::gnn
