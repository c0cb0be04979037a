#include "raha/features.h"

namespace birnn::raha {

FeatureMatrix BuildFeatures(
    const data::Table& table,
    const std::vector<std::unique_ptr<Strategy>>& strategies,
    ThreadPool* pool) {
  FeatureMatrix fm;
  fm.n_rows = table.num_rows();
  fm.n_cols = table.num_columns();
  fm.n_strategies = static_cast<int>(strategies.size());
  const size_t n_cells = static_cast<size_t>(fm.n_rows) * fm.n_cols;
  fm.bits.assign(n_cells * fm.n_strategies, 0);

  // One task per strategy: strategy s owns exactly the byte slots
  // bits[cell * n_strategies + s], so tasks never write the same address
  // and the result cannot depend on scheduling order.
  const auto run_strategy = [&](int64_t s) {
    DetectionMask mask(n_cells, 0);
    strategies[static_cast<size_t>(s)]->Detect(table, &mask);
    for (size_t cell = 0; cell < n_cells; ++cell) {
      fm.bits[cell * strategies.size() + static_cast<size_t>(s)] = mask[cell];
    }
  };

  ParallelFor(pool, static_cast<int64_t>(strategies.size()), run_strategy);
  return fm;
}

int HammingDistance(const uint8_t* a, const uint8_t* b, int n) {
  int d = 0;
  for (int i = 0; i < n; ++i) d += (a[i] != b[i]) ? 1 : 0;
  return d;
}

}  // namespace birnn::raha
