#include "util/string_util.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace birnn {

namespace {
bool IsSpaceChar(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}
}  // namespace

std::string_view TrimLeftView(std::string_view s) {
  size_t i = 0;
  while (i < s.size() && IsSpaceChar(s[i])) ++i;
  return s.substr(i);
}

std::string TrimLeft(std::string_view s) {
  return std::string(TrimLeftView(s));
}

std::string TrimRight(std::string_view s) {
  size_t n = s.size();
  while (n > 0 && IsSpaceChar(s[n - 1])) --n;
  return std::string(s.substr(0, n));
}

std::string Trim(std::string_view s) { return TrimRight(TrimLeft(s)); }

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string ToUpper(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::toupper(c));
  });
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool IsAllDigits(std::string_view s) {
  if (s.empty()) return false;
  return std::all_of(s.begin(), s.end(), [](unsigned char c) {
    return std::isdigit(c) != 0;
  });
}

bool ParseDouble(std::string_view s, double* out) {
  std::string t = Trim(s);
  if (t.empty()) return false;
  char* end = nullptr;
  // strtod handles "1e3", "-.5", "inf"; we reject inf/nan spellings below.
  const double v = std::strtod(t.c_str(), &end);
  if (end != t.c_str() + t.size()) return false;
  // Reject textual inf/nan — data values like "nan" must not parse as numbers.
  for (char c : t) {
    if (std::isalpha(static_cast<unsigned char>(c)) && c != 'e' && c != 'E') {
      return false;
    }
  }
  *out = v;
  return true;
}

size_t EditDistance(std::string_view a, std::string_view b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0) return m;
  if (m == 0) return n;
  std::vector<size_t> prev(m + 1);
  std::vector<size_t> cur(m + 1);
  for (size_t j = 0; j <= m; ++j) prev[j] = j;
  for (size_t i = 1; i <= n; ++i) {
    cur[0] = i;
    for (size_t j = 1; j <= m; ++j) {
      const size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost});
    }
    std::swap(prev, cur);
  }
  return prev[m];
}

std::string FormatFixed(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return std::string(buf);
}

}  // namespace birnn
