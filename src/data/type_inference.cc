#include "data/type_inference.h"

#include <cctype>

#include "util/string_util.h"

namespace birnn::data {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kEmpty:
      return "empty";
    case ValueType::kInteger:
      return "integer";
    case ValueType::kDecimal:
      return "decimal";
    case ValueType::kDate:
      return "date";
    case ValueType::kTime:
      return "time";
    case ValueType::kText:
      return "text";
  }
  return "?";
}

namespace {

bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)) != 0; }

/// "H:MM ..." or "HH:MM" clock time.
bool LooksLikeTime(const std::string& v) {
  const size_t colon = v.find(':');
  if (colon == std::string::npos || colon == 0 || colon > 2) return false;
  for (size_t i = 0; i < colon; ++i) {
    if (!IsDigit(v[i])) return false;
  }
  if (colon + 3 > v.size()) return false;  // need two minute digits
  if (!IsDigit(v[colon + 1]) || !IsDigit(v[colon + 2])) return false;
  // Anything after the minutes must be am/pm-ish or empty.
  const std::string rest = ToLower(Trim(v.substr(colon + 3)));
  return rest.empty() || rest == "a.m." || rest == "p.m." || rest == "am" ||
         rest == "pm";
}

/// "NN/NN/NNNN", "NN-Mon"/"Mon-NN", or "D Month YYYY".
bool LooksLikeDate(const std::string& v) {
  static const char* kMonths[] = {"jan", "feb", "mar", "apr", "may", "jun",
                                  "jul", "aug", "sep", "oct", "nov", "dec"};
  const std::string lower = ToLower(v);
  // NN/NN/NNNN (optionally followed by a time, which makes it a datetime —
  // still date-shaped for our purposes).
  if (lower.size() >= 10 && IsDigit(lower[0]) && IsDigit(lower[1]) &&
      lower[2] == '/' && IsDigit(lower[3]) && IsDigit(lower[4]) &&
      lower[5] == '/' && IsDigit(lower[6]) && IsDigit(lower[7]) &&
      IsDigit(lower[8]) && IsDigit(lower[9])) {
    return true;
  }
  // Month-name containing short forms: "22-mar", "mar-22", "1 june 2005".
  for (const char* month : kMonths) {
    const size_t pos = lower.find(month);
    if (pos == std::string::npos) continue;
    // Needs at least one digit elsewhere in the value.
    for (char c : lower) {
      if (IsDigit(c)) return true;
    }
  }
  return false;
}

}  // namespace

ValueType ClassifyValue(const std::string& value) {
  const std::string v = Trim(value);
  if (v.empty()) return ValueType::kEmpty;
  const std::string lower = ToLower(v);
  if (lower == "nan" || lower == "n/a" || lower == "null" || lower == "-" ||
      lower == "none") {
    return ValueType::kEmpty;
  }
  if (LooksLikeTime(v)) return ValueType::kTime;
  if (LooksLikeDate(v)) return ValueType::kDate;
  std::string unsigned_part = v;
  if (unsigned_part[0] == '+' || unsigned_part[0] == '-') {
    unsigned_part = unsigned_part.substr(1);
  }
  if (IsAllDigits(unsigned_part)) return ValueType::kInteger;
  double parsed = 0.0;
  if (ParseDouble(v, &parsed)) return ValueType::kDecimal;
  return ValueType::kText;
}

ColumnTypeInfo InferColumnType(const Table& table, int col) {
  ColumnTypeInfo info;
  info.counts.assign(6, 0);
  for (int r = 0; r < table.num_rows(); ++r) {
    const ValueType type = ClassifyValue(table.cell(r, col));
    info.counts[static_cast<size_t>(type)]++;
    ++info.total_count;
    if (type == ValueType::kEmpty) ++info.empty_count;
  }
  const int64_t non_empty = info.total_count - info.empty_count;
  if (non_empty == 0) {
    info.dominant = ValueType::kEmpty;
    info.dominance = 1.0;
    return info;
  }
  // Integers count toward a decimal-dominant column (ints are decimals).
  int64_t best = -1;
  for (int t = 1; t < 6; ++t) {
    int64_t count = info.counts[static_cast<size_t>(t)];
    if (t == static_cast<int>(ValueType::kDecimal)) {
      count += info.counts[static_cast<size_t>(ValueType::kInteger)];
    }
    if (count > best) {
      best = count;
      info.dominant = static_cast<ValueType>(t);
    }
  }
  // Prefer the plain integer label when the column has no true decimals.
  if (info.dominant == ValueType::kDecimal &&
      info.counts[static_cast<size_t>(ValueType::kDecimal)] == 0) {
    info.dominant = ValueType::kInteger;
  }
  info.dominance = static_cast<double>(best) / static_cast<double>(non_empty);
  return info;
}

}  // namespace birnn::data
