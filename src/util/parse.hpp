// Strict number parsing for command-line flags and spec strings.
#pragma once

#include <charconv>
#include <string_view>
#include <system_error>

namespace dqma::util {

/// Parses all of `text` as one decimal number of type T (std::from_chars):
/// false, leaving `out` untouched, for empty text, trailing characters
/// ("7x", "5s"), a sign on an unsigned type, or an out-of-range value.
template <typename T>
bool parse_number(std::string_view text, T& out) {
  const char* last = text.data() + text.size();
  T value{};
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (text.empty() || ec != std::errc() || end != last) {
    return false;
  }
  out = value;
  return true;
}

}  // namespace dqma::util
