// Tiny command-line flag parser for examples and bench binaries.
//
// Supports `--key=value`, `--key value` and boolean `--flag` forms; anything
// it does not recognize is left in `positional()` (google-benchmark flags
// pass through untouched because benches call parse() on a filtered copy).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace erapid::util {

/// Parsed command line: key/value flags plus positional arguments.
class Cli {
 public:
  Cli() = default;

  /// Parses argv; unknown tokens that do not start with "--" are positional.
  static Cli parse(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const { return flags_.count(key) > 0; }

  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;
  [[nodiscard]] std::string get_or(const std::string& key, const std::string& def) const;
  /// Typed getters return `def` when the flag is absent. A present value
  /// must spell the whole type (util/number_text.hpp rules); anything else
  /// throws ModelInvariantError naming the flag.
  [[nodiscard]] long get_int(const std::string& key, long def) const;
  [[nodiscard]] double get_double(const std::string& key, double def) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool def) const;

  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace erapid::util
