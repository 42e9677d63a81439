// Minimal INI parser/writer for experiment configuration files.
//
// Syntax:
//   ; comment        # comment
//   [section]
//   key = value
//
// Keys are addressed "section.key"; values are raw strings (a comment must
// sit on its own line). Typed decoding lives with the consumer
// (sim/options_io's key table). This backs the `--config file.ini` option
// of the examples, so whole experiment setups are reproducible from a
// checked-in file.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <istream>
#include <map>
#include <optional>
#include <ostream>
#include <string>

namespace erapid::util {

/// Parsed INI document.
class Ini {
 public:
  Ini() = default;

  static Ini parse(std::istream& in);
  static Ini parse_string(const std::string& text);
  static Ini load_file(const std::string& path);

  [[nodiscard]] bool has(const std::string& key) const { return values_.count(key) > 0; }
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;

  void set(const std::string& key, const std::string& value) { values_[key] = value; }

  /// Serializes grouped by section, keys sorted (stable round-trip).
  void save(std::ostream& out) const;
  void save_file(const std::string& path) const;

  [[nodiscard]] std::size_t size() const { return values_.size(); }

  /// All entries, keyed "section.key" (used for strict key validation).
  [[nodiscard]] const std::map<std::string, std::string>& entries() const { return values_; }

 private:
  std::map<std::string, std::string> values_;  ///< "section.key" -> value
};

}  // namespace erapid::util
