#ifndef BIRNN_SAMPLING_SAMPLER_H_
#define BIRNN_SAMPLING_SAMPLER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/prepare.h"
#include "util/rng.h"
#include "util/status.h"

namespace birnn::sampling {

/// Selects which tuples the user should label for training (paper §4.2).
/// Implementations return tuple ids ('id_') from the long-format frame.
class TrainsetSampler {
 public:
  virtual ~TrainsetSampler() = default;

  virtual std::string name() const = 0;

  /// Selects `n_obs` distinct tuple ids from `frame` (clamped to the number
  /// of tuples). Only value_x-derived information may be used — never the
  /// labels (the user has not labeled anything yet).
  virtual StatusOr<std::vector<int64_t>> Select(const data::CellFrame& frame,
                                                int n_obs, Rng* rng) = 0;
};

/// Algorithm 1 — RandomSet: uniform sample of tuple ids.
class RandomSetSampler : public TrainsetSampler {
 public:
  std::string name() const override { return "RandomSet"; }
  StatusOr<std::vector<int64_t>> Select(const data::CellFrame& frame,
                                        int n_obs, Rng* rng) override;
};

/// Algorithm 3 — DiverSet: greedily picks the tuple with the most
/// attribute values not seen in previously picked tuples; ties broken by
/// the most empty values, then randomly. After each pick, every cell whose
/// 'concat' key (attribute name + value_x) was covered is removed from
/// consideration.
class DiverSetSampler : public TrainsetSampler {
 public:
  std::string name() const override { return "DiverSet"; }
  StatusOr<std::vector<int64_t>> Select(const data::CellFrame& frame,
                                        int n_obs, Rng* rng) override;
};

/// Algorithm 2 — RahaSet: delegates to the Raha reimplementation's
/// cluster-aware sampling (strategies -> feature vectors -> clustering ->
/// cluster-coverage-maximizing tuple picks).
class RahaSetSampler : public TrainsetSampler {
 public:
  std::string name() const override { return "RahaSet"; }
  StatusOr<std::vector<int64_t>> Select(const data::CellFrame& frame,
                                        int n_obs, Rng* rng) override;
};

/// Factory by name ("randomset" | "diverset" | "rahaset", case-insensitive).
StatusOr<std::unique_ptr<TrainsetSampler>> MakeSampler(
    const std::string& name);

}  // namespace birnn::sampling

#endif  // BIRNN_SAMPLING_SAMPLER_H_
