#include "nn/optimizer.h"

#include <cmath>

namespace birnn::nn {

void RmsProp::Step(const std::vector<Parameter*>& params) {
  for (Parameter* p : params) {
    BIRNN_CHECK(p->grad.shape() == p->value.shape());
    Tensor& cache = cache_[p];
    if (cache.shape() != p->value.shape()) {
      cache = Tensor(p->value.shape());
    }
    for (size_t i = 0; i < p->value.size(); ++i) {
      const float g = p->grad[i];
      cache[i] = rho_ * cache[i] + (1.0f - rho_) * g * g;
      p->value[i] -= lr_ * g / (std::sqrt(cache[i]) + eps_);
    }
  }
}

void ZeroGrads(const std::vector<Parameter*>& params) {
  for (Parameter* p : params) p->ZeroGrad();
}

size_t CountWeights(const std::vector<Parameter*>& params) {
  size_t n = 0;
  for (const Parameter* p : params) n += p->value.size();
  return n;
}

}  // namespace birnn::nn
