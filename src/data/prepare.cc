#include "data/prepare.h"

#include <algorithm>
#include <set>
#include <string_view>

#include "util/logging.h"
#include "util/string_util.h"

namespace birnn::data {

CellFrame::CellFrame(std::vector<std::string> attr_names,
                     std::vector<CellRecord> cells)
    : attr_names_(std::move(attr_names)), cells_(std::move(cells)) {
  BIRNN_CHECK(!attr_names_.empty());
  BIRNN_CHECK_EQ(cells_.size() % attr_names_.size(), 0u);
}

const CellRecord& CellFrame::cell(int64_t row_id, int attr) const {
  BIRNN_CHECK_GE(row_id, 0);
  BIRNN_CHECK_LT(row_id, num_tuples());
  BIRNN_CHECK_GE(attr, 0);
  BIRNN_CHECK_LT(attr, num_attrs());
  return cells_[static_cast<size_t>(row_id) * num_attrs() +
                static_cast<size_t>(attr)];
}

double CellFrame::ErrorRate() const {
  if (cells_.empty()) return 0.0;
  int64_t wrong = 0;
  for (const auto& c : cells_) wrong += c.label;
  return static_cast<double>(wrong) / static_cast<double>(cells_.size());
}

int CellFrame::DistinctCharacters() const {
  std::set<char> chars;
  for (const auto& c : cells_) {
    for (char ch : c.value) chars.insert(ch);
  }
  return static_cast<int>(chars.size());
}

int CellFrame::MaxValueLength() const {
  size_t mx = 0;
  for (const auto& c : cells_) mx = std::max(mx, c.value.size());
  return static_cast<int>(mx);
}

bool IsEmptyValue(std::string_view v, const PrepareOptions& options) {
  if (v.empty()) return true;
  if (options.treat_nan_as_empty && (v == "NaN" || v == "nan")) return true;
  return false;
}

namespace {

/// Builds the long-format frame. `clean` may be null (deployment mode).
StatusOr<CellFrame> BuildFrame(const Table& dirty, const Table* clean,
                               const PrepareOptions& options) {
  if (dirty.num_columns() == 0) {
    return Status::InvalidArgument("dirty table has no columns");
  }
  if (clean != nullptr) {
    if (clean->num_columns() != dirty.num_columns()) {
      return Status::InvalidArgument(
          "dirty and clean tables have different column counts");
    }
    if (clean->num_rows() != dirty.num_rows()) {
      return Status::InvalidArgument(
          "dirty and clean tables have different row counts");
    }
  }

  // Structure transformation: the dirty columns take the clean dataset's
  // names so both sides merge on identical attributes.
  const std::vector<std::string>& attr_names =
      clean != nullptr ? clean->column_names() : dirty.column_names();

  const int n_attrs = dirty.num_columns();
  const int n_rows = dirty.num_rows();
  const size_t max_value_len =
      static_cast<size_t>(std::max(0, options.max_value_len));
  const auto trim = [&options](std::string_view v) {
    return options.trim_leading_whitespace ? TrimLeftView(v) : v;
  };
  std::vector<CellRecord> cells(static_cast<size_t>(n_rows) * n_attrs);

  size_t i = 0;
  for (int r = 0; r < n_rows; ++r) {
    for (int a = 0; a < n_attrs; ++a, ++i) {
      CellRecord& rec = cells[i];
      rec.row_id = r;
      rec.attr = a;
      std::string_view vx = trim(dirty.cell(r, a));
      // Label from the untruncated values; truncation only affects the
      // model input. value_y is not kept past this compare.
      rec.label = (clean != nullptr && vx != trim(clean->cell(r, a))) ? 1 : 0;
      vx = vx.substr(0, max_value_len);
      rec.empty = IsEmptyValue(vx, options);
      rec.value.assign(vx);
    }
  }

  // length_norm: value length relative to the longest value per attribute.
  std::vector<size_t> max_len(static_cast<size_t>(n_attrs), 0);
  for (const auto& c : cells) {
    max_len[static_cast<size_t>(c.attr)] =
        std::max(max_len[static_cast<size_t>(c.attr)], c.value.size());
  }
  for (auto& c : cells) {
    const size_t mx = max_len[static_cast<size_t>(c.attr)];
    c.length_norm =
        mx == 0 ? 0.0f
                : static_cast<float>(c.value.size()) / static_cast<float>(mx);
  }

  return CellFrame(attr_names, std::move(cells));
}

}  // namespace

StatusOr<CellFrame> PrepareData(const Table& dirty, const Table& clean,
                                const PrepareOptions& options) {
  return BuildFrame(dirty, &clean, options);
}

StatusOr<CellFrame> PrepareDirtyOnly(const Table& dirty,
                                     const PrepareOptions& options) {
  return BuildFrame(dirty, nullptr, options);
}

}  // namespace birnn::data
