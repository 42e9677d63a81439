// Strict number ⇄ text conversion for config values and their grammars.
//
// A value parses only if the whole text is one number: no sign on unsigned
// values, no trailing characters, no overflow, and (for reals) a finite
// result. Reals format in the shortest form that parses back to the same
// double, so format → parse is the identity.
#pragma once

#include <charconv>
#include <cmath>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace erapid::util {

/// Decimal unsigned integer spanning all of `text`; nullopt otherwise.
template <class T>
[[nodiscard]] std::optional<T> parse_unsigned(std::string_view text) {
  static_assert(std::is_unsigned_v<T>);
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return v;
}

/// Finite real spanning all of `text`; nullopt otherwise.
[[nodiscard]] inline std::optional<double> parse_real(std::string_view text) {
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || !std::isfinite(v)) return std::nullopt;
  return v;
}

/// Shortest text that parses back to exactly `v` (integers print plainly).
/// 32 bytes hold any uint64 or shortest-form double, so to_chars cannot fail.
template <class T>
[[nodiscard]] std::string format_number(const T& v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

}  // namespace erapid::util
