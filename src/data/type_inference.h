#ifndef BIRNN_DATA_TYPE_INFERENCE_H_
#define BIRNN_DATA_TYPE_INFERENCE_H_

#include <string>
#include <vector>

#include "data/table.h"

namespace birnn::data {

/// Coarse value types for relational columns, used by the rule-based
/// strategies (outlier detection needs to know whether a column is
/// numeric).
enum class ValueType {
  kEmpty,    ///< "" / NaN spellings.
  kInteger,  ///< optional sign, digits only.
  kDecimal,  ///< parses as a number but not an integer.
  kDate,     ///< common date shapes ("12/02/2011", "22-Mar", "1 June 2005").
  kTime,     ///< clock times ("6:55 a.m.", "18:55").
  kText,     ///< everything else.
};

const char* ValueTypeName(ValueType type);

/// Classifies a single value.
ValueType ClassifyValue(const std::string& value);

/// Distribution of value types in one column plus the inferred dominant
/// type (ignoring empties) and its share of the non-empty values.
struct ColumnTypeInfo {
  ValueType dominant = ValueType::kText;
  double dominance = 0.0;  ///< dominant count / non-empty count.
  int64_t empty_count = 0;
  int64_t total_count = 0;
  std::vector<int64_t> counts;  ///< indexed by ValueType.

  /// True when the column is numerically typed strongly enough for
  /// statistical outlier detection.
  bool IsNumeric(double min_dominance = 0.6) const {
    return (dominant == ValueType::kInteger ||
            dominant == ValueType::kDecimal) &&
           dominance >= min_dominance;
  }
};

/// Infers the type profile of column `col`.
ColumnTypeInfo InferColumnType(const Table& table, int col);

}  // namespace birnn::data

#endif  // BIRNN_DATA_TYPE_INFERENCE_H_
