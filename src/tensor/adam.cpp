#include "tensor/adam.hpp"

#include <cmath>

namespace gnndse::tensor {

void Adam::register_param(Parameter& p) {
  slots_.push_back(Slot{&p, Tensor(p.value.shape()), Tensor(p.value.shape())});
}

void Adam::register_params(const std::vector<Parameter*>& ps) {
  for (Parameter* p : ps) register_param(*p);
}

void Adam::step() {
  ++step_count_;
  const float b1 = config_.beta1, b2 = config_.beta2;
  const float bc1 = 1.0f - std::pow(b1, static_cast<float>(step_count_));
  const float bc2 = 1.0f - std::pow(b2, static_cast<float>(step_count_));
  for (Slot& s : slots_) {
    float* w = s.param->value.data();
    const float* g = s.param->grad.data();
    float* m = s.m.data();
    float* v = s.v.data();
    const std::int64_t n = s.param->numel();
    for (std::int64_t i = 0; i < n; ++i) {
      float gi = g[i];
      if (config_.weight_decay != 0.0f) gi += config_.weight_decay * w[i];
      m[i] = b1 * m[i] + (1.0f - b1) * gi;
      v[i] = b2 * v[i] + (1.0f - b2) * gi * gi;
      const float mhat = m[i] / bc1;
      const float vhat = v[i] / bc2;
      w[i] -= config_.lr * mhat / (std::sqrt(vhat) + config_.eps);
    }
  }
}

void Adam::zero_grad() {
  for (Slot& s : slots_) s.param->zero_grad();
}

}  // namespace gnndse::tensor
