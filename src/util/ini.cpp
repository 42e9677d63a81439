#include "util/ini.hpp"

#include <fstream>
#include <sstream>

#include "util/expect.hpp"

namespace erapid::util {

namespace {
std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}
}  // namespace

Ini Ini::parse(std::istream& in) {
  Ini ini;
  std::string line;
  std::string section;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string t = trim(line);
    if (t.empty() || t[0] == ';' || t[0] == '#') continue;
    if (t.front() == '[') {
      ERAPID_EXPECT(t.back() == ']', "unterminated section at line " + std::to_string(lineno));
      section = trim(t.substr(1, t.size() - 2));
      ERAPID_EXPECT(!section.empty(), "empty section name at line " + std::to_string(lineno));
      continue;
    }
    const auto eq = t.find('=');
    ERAPID_EXPECT(eq != std::string::npos,
                  "expected key=value at line " + std::to_string(lineno) + ": '" + t + "'");
    const std::string key = trim(t.substr(0, eq));
    const std::string value = trim(t.substr(eq + 1));
    ERAPID_EXPECT(!key.empty(), "empty key at line " + std::to_string(lineno));
    ini.values_[section.empty() ? key : section + "." + key] = value;
  }
  return ini;
}

Ini Ini::parse_string(const std::string& text) {
  std::istringstream in(text);
  return parse(in);
}

Ini Ini::load_file(const std::string& path) {
  std::ifstream in(path);
  ERAPID_EXPECT(static_cast<bool>(in), "cannot open config file: " + path);
  return parse(in);
}

std::optional<std::string> Ini::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

void Ini::save(std::ostream& out) const {
  // Sectionless keys must precede every [section] header, or a reparse
  // would attribute them to whatever section happened to be open.
  bool wrote_any = false;
  for (const auto& [key, value] : values_) {
    if (key.find('.') == std::string::npos) {
      out << key << " = " << value << '\n';
      wrote_any = true;
    }
  }
  std::string current_section;
  bool in_section = false;
  for (const auto& [key, value] : values_) {
    const auto dot = key.find('.');
    if (dot == std::string::npos) continue;
    const std::string section = key.substr(0, dot);
    if (!in_section || section != current_section) {
      if (wrote_any) out << '\n';
      out << '[' << section << "]\n";
      current_section = section;
      in_section = true;
      wrote_any = true;
    }
    out << key.substr(dot + 1) << " = " << value << '\n';
  }
}

void Ini::save_file(const std::string& path) const {
  std::ofstream out(path);
  ERAPID_EXPECT(static_cast<bool>(out), "cannot open config file for writing: " + path);
  save(out);
}

}  // namespace erapid::util
