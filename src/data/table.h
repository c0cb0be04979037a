#ifndef BIRNN_DATA_TABLE_H_
#define BIRNN_DATA_TABLE_H_

#include <string>
#include <vector>

#include "util/status.h"

namespace birnn::data {

/// A relational table in wide format: named columns, string-typed cells
/// (values in dirty real-world data are strings regardless of the intended
/// type, which is exactly what the paper's character-level models consume).
class Table {
 public:
  Table() = default;
  explicit Table(std::vector<std::string> column_names)
      : columns_(std::move(column_names)) {}

  int num_columns() const { return static_cast<int>(columns_.size()); }
  int num_rows() const { return static_cast<int>(rows_.size()); }

  const std::vector<std::string>& column_names() const { return columns_; }

  /// Index of the named column, or -1 if absent.
  int ColumnIndex(const std::string& name) const;

  /// Appends a row; must have exactly num_columns() cells.
  Status AppendRow(std::vector<std::string> cells);

  const std::vector<std::string>& row(int r) const {
    return rows_[static_cast<size_t>(r)];
  }

  const std::string& cell(int r, int c) const {
    return rows_[static_cast<size_t>(r)][static_cast<size_t>(c)];
  }
  void set_cell(int r, int c, std::string value) {
    rows_[static_cast<size_t>(r)][static_cast<size_t>(c)] = std::move(value);
  }

  /// All values of one column, in row order.
  std::vector<std::string> Column(int c) const;

  /// True if both tables have identical headers and cells.
  bool Equals(const Table& other) const;

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace birnn::data

#endif  // BIRNN_DATA_TABLE_H_
