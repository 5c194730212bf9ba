// Dense building blocks: Linear and MLP modules over the autodiff tape.
#pragma once

#include <cstdint>
#include <vector>

#include "gnn/infer.hpp"
#include "tensor/adam.hpp"
#include "tensor/tape.hpp"
#include "util/rng.hpp"

namespace gnndse::gnn {

/// Every trainable module exposes its parameters for the optimizer.
class Module {
 public:
  virtual ~Module() = default;
  virtual std::vector<tensor::Parameter*> params() = 0;
};

/// y = x W + b.
class Linear : public Module {
 public:
  Linear(std::int64_t in, std::int64_t out, util::Rng& rng, bool bias = true);

  tensor::VarId forward(tensor::Tape& t, tensor::VarId x);
  /// Tape-free forward (bit-identical to forward); the returned reference
  /// lives in the session's workspace until its next begin().
  const tensor::Tensor& forward_infer(InferenceSession& s,
                                      const tensor::Tensor& x);
  std::vector<tensor::Parameter*> params() override;

  std::int64_t in_features() const { return w_.value.dim(0); }
  std::int64_t out_features() const { return w_.value.dim(1); }

 private:
  tensor::Parameter w_;
  tensor::Parameter b_;
  bool has_bias_;
};

/// Multi-layer perceptron: Linear layers with ELU between them and no
/// output activation (paper: 4 MLP prediction layers, §5.1).
class Mlp : public Module {
 public:
  /// dims = {in, h1, ..., out}.
  Mlp(const std::vector<std::int64_t>& dims, util::Rng& rng);

  tensor::VarId forward(tensor::Tape& t, tensor::VarId x);
  const tensor::Tensor& forward_infer(InferenceSession& s,
                                      const tensor::Tensor& x);
  std::vector<tensor::Parameter*> params() override;

 private:
  std::vector<Linear> layers_;
};

}  // namespace gnndse::gnn
