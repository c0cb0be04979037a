#ifndef BIRNN_NN_OPTIMIZER_H_
#define BIRNN_NN_OPTIMIZER_H_

#include <unordered_map>
#include <vector>

#include "nn/parameter.h"

namespace birnn::nn {

/// RMSprop — the optimizer the paper trains with (§5.2). Keras defaults:
///   cache = rho * cache + (1-rho) * grad^2
///   value -= lr * grad / (sqrt(cache) + eps)
class RmsProp {
 public:
  explicit RmsProp(float lr = 1e-3f, float rho = 0.9f, float eps = 1e-7f)
      : lr_(lr), rho_(rho), eps_(eps) {}

  /// Applies one update step to all `params` from their `grad`; the
  /// caller then typically zeroes the gradients.
  void Step(const std::vector<Parameter*>& params);

 private:
  float lr_;
  float rho_;
  float eps_;
  std::unordered_map<Parameter*, Tensor> cache_;
};

/// Zeroes the gradient of every parameter.
void ZeroGrads(const std::vector<Parameter*>& params);

/// Total number of scalar weights across `params`.
size_t CountWeights(const std::vector<Parameter*>& params);

}  // namespace birnn::nn

#endif  // BIRNN_NN_OPTIMIZER_H_
