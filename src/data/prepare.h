#ifndef BIRNN_DATA_PREPARE_H_
#define BIRNN_DATA_PREPARE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "data/table.h"
#include "util/status.h"

namespace birnn::data {

/// One cell of the long-format dataset `df` produced by the paper's §4.1
/// merge step. A tuple (`row_id`) contributes one record per attribute.
/// The merge's 'value_y' column only derives `label` and is not stored.
/// Its 'concat' column (attribute name + value_x) is DiverSet's key, which
/// `DiverSetSampler` interns from the attribute's name and `value`.
struct CellRecord {
  std::string value;        ///< 'value_x': dirty value (truncated).
  int64_t row_id = 0;       ///< 'id_': sequence number of the tuple.
  int attr = 0;             ///< attribute index (column position).
  int label = 0;            ///< 0 = correct, 1 = wrong.
  float length_norm = 0.f;  ///< len(value_x) / max len of this attribute.
  bool empty = false;       ///< 'empty': value_x has no content.
};

/// Long-format view of a dirty/clean table pair: `num_tuples() * num_attrs()`
/// cell records in (tuple-major) order, plus attribute metadata.
class CellFrame {
 public:
  CellFrame() = default;
  CellFrame(std::vector<std::string> attr_names,
            std::vector<CellRecord> cells);

  int num_attrs() const { return static_cast<int>(attr_names_.size()); }
  int64_t num_tuples() const {
    return attr_names_.empty()
               ? 0
               : static_cast<int64_t>(cells_.size()) / num_attrs();
  }
  int64_t num_cells() const { return static_cast<int64_t>(cells_.size()); }

  const std::vector<std::string>& attr_names() const { return attr_names_; }
  const std::vector<CellRecord>& cells() const { return cells_; }

  /// Record for tuple `row_id`, attribute `attr`.
  const CellRecord& cell(int64_t row_id, int attr) const;

  /// Fraction of cells with label 1 (the dataset's error rate).
  double ErrorRate() const;

  /// Number of distinct characters across all value_x (the value-dictionary
  /// size the paper reports in Table 2).
  int DistinctCharacters() const;

  /// Longest value_x length (after truncation).
  int MaxValueLength() const;

 private:
  std::vector<std::string> attr_names_;
  std::vector<CellRecord> cells_;  // tuple-major: id*num_attrs + attr
};

/// Options for the data-preparation pipeline.
struct PrepareOptions {
  /// Values longer than this are cut off (paper: 128, which "achieves good
  /// F1-score results and reduced the training time").
  int max_value_len = 128;
  /// Structure transformation: remove preceding whitespace.
  bool trim_leading_whitespace = true;
  /// Treat the literal string "NaN" as an empty value for the 'empty'
  /// column (pandas renders missing values as NaN).
  bool treat_nan_as_empty = true;
};

/// The 'empty' column's rule for a trimmed, truncated value: no content,
/// or the literal "NaN"/"nan" when `options.treat_nan_as_empty`.
bool IsEmptyValue(std::string_view value, const PrepareOptions& options);

/// Runs the paper's data-preparation process (§4.1, Fig. 3): structure
/// transformation, merge into long format, label derivation
/// (value_x != value_y), truncation, and computation of the 'empty' and
/// 'length_norm' columns.
///
/// `dirty` and `clean` must have the same shape; dirty columns are aligned
/// to clean columns by position (the renaming step).
StatusOr<CellFrame> PrepareData(const Table& dirty, const Table& clean,
                                const PrepareOptions& options = {});

/// Prepares a dirty table without ground truth (deployment mode: labels are
/// all 0 and meaningless; used when real users label sampled tuples).
StatusOr<CellFrame> PrepareDirtyOnly(const Table& dirty,
                                     const PrepareOptions& options = {});

}  // namespace birnn::data

#endif  // BIRNN_DATA_PREPARE_H_
