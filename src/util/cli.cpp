#include "util/cli.hpp"

#include "util/expect.hpp"
#include "util/number_text.hpp"

namespace erapid::util {

Cli Cli::parse(int argc, const char* const* argv) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    std::string tok = argv[i];
    if (tok.rfind("--", 0) != 0) {
      cli.positional_.push_back(tok);
      continue;
    }
    tok = tok.substr(2);
    auto eq = tok.find('=');
    if (eq != std::string::npos) {
      cli.flags_[tok.substr(0, eq)] = tok.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      cli.flags_[tok] = argv[++i];
    } else {
      cli.flags_[tok] = "true";
    }
  }
  return cli;
}

std::optional<std::string> Cli::get(const std::string& key) const {
  auto it = flags_.find(key);
  if (it == flags_.end()) return std::nullopt;
  return it->second;
}

std::string Cli::get_or(const std::string& key, const std::string& def) const {
  return get(key).value_or(def);
}

long Cli::get_int(const std::string& key, long def) const {
  const auto v = get(key);
  if (!v) return def;
  const auto n = parse_signed<long>(*v);
  ERAPID_EXPECT(n.has_value(), "--" << key << " must be an integer, got '" << *v << "'");
  return *n;
}

double Cli::get_double(const std::string& key, double def) const {
  const auto v = get(key);
  if (!v) return def;
  const auto x = parse_real(*v);
  ERAPID_EXPECT(x.has_value(), "--" << key << " must be a finite real, got '" << *v << "'");
  return *x;
}

bool Cli::get_bool(const std::string& key, bool def) const {
  const auto v = get(key);
  if (!v) return def;
  const auto b = parse_bool(*v);
  ERAPID_EXPECT(b.has_value(),
                "--" << key << " must be " << kBoolSpellings << ", got '" << *v << "'");
  return *b;
}

}  // namespace erapid::util
