// Strict number ⇄ text conversion for config values, command-line flags
// and their grammars.
//
// A value parses only if the whole text is one number: no sign on unsigned
// values, no trailing characters, no overflow, and (for reals) a finite
// result. Booleans take exactly the kBoolSpellings words. Reals format in
// the shortest form that parses back to the same double, so format → parse
// is the identity.
#pragma once

#include <charconv>
#include <cmath>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace erapid::util {

namespace detail {

/// `T` spanning all of `text` per std::from_chars; nullopt otherwise.
template <class T>
[[nodiscard]] std::optional<T> parse_whole(std::string_view text) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return v;
}

}  // namespace detail

/// Decimal unsigned integer spanning all of `text`; nullopt otherwise.
template <class T>
[[nodiscard]] std::optional<T> parse_unsigned(std::string_view text) {
  static_assert(std::is_unsigned_v<T>);
  return detail::parse_whole<T>(text);
}

/// Decimal signed integer (optional leading '-') spanning all of `text`;
/// nullopt otherwise.
template <class T>
[[nodiscard]] std::optional<T> parse_signed(std::string_view text) {
  static_assert(std::is_integral_v<T> && std::is_signed_v<T>);
  return detail::parse_whole<T>(text);
}

/// Finite real spanning all of `text`; nullopt otherwise.
[[nodiscard]] inline std::optional<double> parse_real(std::string_view text) {
  const auto v = detail::parse_whole<double>(text);
  if (!v || !std::isfinite(*v)) return std::nullopt;
  return v;
}

/// The accepted boolean spellings, for error messages.
inline constexpr std::string_view kBoolSpellings = "true|false|1|0|yes|no|on|off";

/// Boolean spelled exactly as one of kBoolSpellings; nullopt otherwise.
[[nodiscard]] inline std::optional<bool> parse_bool(std::string_view text) {
  if (text == "true" || text == "1" || text == "yes" || text == "on") return true;
  if (text == "false" || text == "0" || text == "no" || text == "off") return false;
  return std::nullopt;
}

/// Shortest text that parses back to exactly `v` (integers print plainly).
/// 32 bytes hold any uint64 or shortest-form double, so to_chars cannot fail.
template <class T>
[[nodiscard]] std::string format_number(const T& v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

}  // namespace erapid::util
