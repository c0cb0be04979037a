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

std::vector<Tensor> RmsProp::ExportState(
    const std::vector<Parameter*>& params) const {
  std::vector<Tensor> state(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    auto it = cache_.find(params[i]);
    if (it != cache_.end()) state[i] = it->second;
  }
  return state;
}

void RmsProp::ImportState(const std::vector<Parameter*>& params,
                          const std::vector<Tensor>& state) {
  BIRNN_CHECK(state.size() == params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    if (state[i].size() == 0) continue;
    BIRNN_CHECK(state[i].shape() == params[i]->value.shape());
    cache_[params[i]] = state[i];
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
