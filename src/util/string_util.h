#ifndef BIRNN_UTIL_STRING_UTIL_H_
#define BIRNN_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace birnn {

/// Removes leading whitespace (space, tab, CR, LF).
std::string TrimLeft(std::string_view s);

/// TrimLeft without the copy: the suffix of `s` after its leading
/// whitespace (the same set), viewing `s`'s bytes.
std::string_view TrimLeftView(std::string_view s);

/// Removes trailing whitespace.
std::string TrimRight(std::string_view s);

/// Removes leading and trailing whitespace.
std::string Trim(std::string_view s);

/// Splits on `sep`; empty fields are preserved ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins with `sep` between elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// ASCII lowercase copy.
std::string ToLower(std::string_view s);

/// ASCII uppercase copy.
std::string ToUpper(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// True if every character is an ASCII digit (and s is non-empty).
bool IsAllDigits(std::string_view s);

/// Parses a double, accepting surrounding whitespace. Returns false on any
/// trailing garbage.
bool ParseDouble(std::string_view s, double* out);

/// Levenshtein edit distance; O(|a|*|b|).
size_t EditDistance(std::string_view a, std::string_view b);

/// Formats a double with `digits` fixed decimals ("0.85").
std::string FormatFixed(double value, int digits);

}  // namespace birnn

#endif  // BIRNN_UTIL_STRING_UTIL_H_
