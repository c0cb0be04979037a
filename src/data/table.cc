#include "data/table.h"

namespace birnn::data {

int Table::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

Status Table::AppendRow(std::vector<std::string> cells) {
  if (static_cast<int>(cells.size()) != num_columns()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(cells.size()) + " cells, table has " +
        std::to_string(num_columns()) + " columns");
  }
  rows_.push_back(std::move(cells));
  return Status::OK();
}

std::vector<std::string> Table::Column(int c) const {
  std::vector<std::string> out;
  out.reserve(rows_.size());
  for (const auto& row : rows_) out.push_back(row[static_cast<size_t>(c)]);
  return out;
}

bool Table::Equals(const Table& other) const {
  return columns_ == other.columns_ && rows_ == other.rows_;
}

}  // namespace birnn::data
