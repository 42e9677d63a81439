// Machine-readable result export.
//
// SimResult → JSON, for downstream plotting or regression tracking without
// scraping the console tables. Hand-rolled emitter (flat structs only; a
// JSON library dependency is not warranted).
//
// Two formats live here: the full report (to_json, results_to_json) and
// the erapid-bench-1 point and document that the benches, the campaign
// worker and tools/obs/compare_runs.py share (bench_point_json,
// bench_doc_json). Every erapid-bench-1 point in the tree is written by
// bench_point_json.
#pragma once

#include <compare>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulation.hpp"

namespace erapid::sim {

/// JSON object for one result.
[[nodiscard]] std::string to_json(const SimResult& r, int indent = 0);

/// JSON document: {"results": [{"name": ..., ...result fields...}, ...]}.
[[nodiscard]] std::string results_to_json(
    const std::vector<std::pair<std::string, SimResult>>& named);

/// Writes results_to_json to a file (throws ModelInvariantError on I/O).
void write_results_json(const std::string& path,
                        const std::vector<std::pair<std::string, SimResult>>& named);

/// Identity of one erapid-bench-1 point: the fields compare_runs.py matches
/// a baseline point to a candidate point on. Member order is the sort
/// order of points in a document.
struct PointKey {
  std::string pattern;  ///< traffic pattern, or the workload kind name
  std::string mode;     ///< network configuration (NP-NB, P-NB, NP-B, P-B)
  std::optional<double> cap_mw;  ///< power cap; brownout sweeps only
  double load = 0.0;    ///< offered load (x N_c), or the phase rate
  std::uint64_t seed = 0;

  auto operator<=>(const PointKey&) const = default;
};

/// Key of the point `o` ran, with result `r`. A non-Bernoulli workload
/// names the pattern by its kind; the load is what the run offered
/// (workload.load, or workload.phase_rate for completion-bounded kinds).
[[nodiscard]] PointKey point_key(const SimOptions& o, const SimResult& r);

/// One erapid-bench-1 point object on a single line. Fields, in order:
///   pattern, mode, [cap_mw], load, seed,
///   [completed, makespan_cycles, worst_phase_cycles, worst_episode_cycles]
///                    — iff the run was a completion-bounded workload,
///   throughput_xNc, latency_avg_cycles, latency_p99_cycles, power_avg_mw,
///   active_power_avg_mw, energy_per_packet_mw_cycles, drained,
///   [monitors_ok, monitor_violations] — iff monitors ran,
///   [resilience {...}]                — iff a degrade policy ran,
///   wall_ms.
/// Floats print with 15 significant digits.
[[nodiscard]] std::string bench_point_json(const PointKey& key, const SimResult& r,
                                           double wall_ms);

/// One measured point: its result and the harness-measured wall time.
struct BenchRun {
  SimResult result;
  double wall_ms = 0.0;
};

/// A document's points, kept in key order.
using BenchPoints = std::map<PointKey, BenchRun>;

/// Header of an erapid-bench-1 document. The provenance fields (des_queue,
/// obs_*) say what produced the points; compare_runs.py never gates on
/// them.
struct BenchDoc {
  std::string bench;    ///< bench title
  std::string pattern;  ///< doc-level traffic label ("workload" for kind sweeps)
  std::string git_rev;  ///< producing revision, supplied by the harness
  std::string des_queue = "heap";
  bool obs_enabled = false;
  bool obs_trace = false;
  bool obs_monitors = false;
  bool obs_telemetry = false;
  bool obs_flight_recorder = false;

  /// Folds the configuration of one point into the provenance: the queue
  /// kind of the last point, each obs feature if any point had it live.
  void stamp(const SimOptions& o);
};

/// The whole erapid-bench-1 document: header, one bench_point_json line
/// per point, then wall_ms_sum (serial cost) and wall_ms_max (the critical
/// path of a perfectly parallel run).
[[nodiscard]] std::string bench_doc_json(const BenchDoc& doc, const BenchPoints& points);

}  // namespace erapid::sim
