// SimOptions ⇄ INI config files.
//
// A full experiment point (system shape, Table-1 timing overrides,
// reconfiguration policy, workload) round-trips through a plain INI file,
// so experiments are reproducible from checked-in configs:
//
//   [system]
//   boards = 8
//   nodes_per_board = 8
//   [reconfig]
//   ; mode: NP-NB | P-NB | NP-B | P-B
//   mode = P-B
//   window = 2000
//   ; dpm_strategy: threshold | hysteresis | ewma
//   dpm_strategy = threshold
//   [workload]
//   pattern = complement
//   load = 0.6
//   seed = 1
//
// Every key is one row of a table in options_io.cpp; parsing, the
// unknown-key check and serialization all loop over it. Values are
// strict: an unknown key, a malformed number (sign on an unsigned key,
// trailing text, non-finite real), an unlisted bool spelling or an
// out-of-range value throws ModelInvariantError. A comment must sit on
// its own line. options_from_ini(options_to_ini(o)) reproduces `o`
// exactly: reals print in shortest round-trip form.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulation.hpp"
#include "util/ini.hpp"

namespace erapid::sim {

/// Builds options from a parsed INI; keys not present keep defaults.
[[nodiscard]] SimOptions options_from_ini(const util::Ini& ini);

/// Convenience: load_file + options_from_ini.
[[nodiscard]] SimOptions load_options(const std::string& path);

/// Serializes the option set (current values). Keys whose value means
/// "off" (empty lists and paths, unset policies, the degrade section
/// with no policy) are left out.
[[nodiscard]] util::Ini options_to_ini(const SimOptions& opts);

/// Writes options_to_ini to a file.
void save_options(const std::string& path, const SimOptions& opts);

/// How a key's value is spelled.
enum class ValueKind : std::uint8_t { Unsigned, Real, Bool, Text };

/// One config key as the table declares it.
struct OptionKey {
  std::string name;  ///< "section.key"
  ValueKind kind = ValueKind::Text;
  std::string default_value;  ///< SimOptions{} value, serialized ("" = off)
};

/// Every config key, in the order options_from_ini applies them.
[[nodiscard]] std::vector<OptionKey> option_keys();

}  // namespace erapid::sim
