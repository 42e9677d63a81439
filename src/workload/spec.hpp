// Workload specifications — the strictly-validated `workload.*` surface.
//
// The paper evaluates E-RAPID only under Bernoulli-injected synthetic
// permutations; "To Reconfigure or Not to Reconfigure" (arXiv 2602.10468)
// argues that phase-structured collectives are where reconfigurable optics
// win or lose. This module describes those workloads declaratively:
//
//   kind = bernoulli     the paper's open-loop Bernoulli sources (default)
//   kind = allreduce     ring all-reduce: 2(N-1) neighbor phases/episode
//   kind = alltoall      all-to-all: N-1 shifted-permutation phases/episode
//   kind = phases        generic schedule from the workload.phases grammar
//   kind = ptrans        HPCC PTRANS: bursty transpose episodes with gaps
//   kind = fft           FFT butterfly: log2(N) XOR-exchange stages/episode
//   kind = randomaccess  HPCC RandomAccess: fine-grained (1-flit) uniform
//   kind = beff          b_eff-style message-size sweep at fixed byte volume
//   kind = tenants       N tenants x seeded session arrivals x pattern mix
//   kind = trace         replay of a committed trace file to completion
//
// All kinds except bernoulli/tenants are completion-bounded: the run ends
// when every injected packet is delivered (delivered-byte accounting), not
// after a fixed measurement window. Every field is validated on parse so a
// bad sweep config fails before any simulation runs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "traffic/patterns.hpp"
#include "util/types.hpp"

namespace erapid::workload {

enum class WorkloadKind : std::uint8_t {
  Bernoulli,
  AllReduce,
  AllToAll,
  Phases,
  Ptrans,
  Fft,
  RandomAccess,
  Beff,
  Tenants,
  Trace,
};

[[nodiscard]] std::string_view kind_name(WorkloadKind k);
[[nodiscard]] std::optional<WorkloadKind> parse_kind(std::string_view name);

/// One entry of the `workload.phases` grammar:
///   pattern:volume[:rate[:gap]]
/// e.g. "transpose:32:0.8:512" — 32 packets/node of transpose traffic at
/// 0.8 x capacity, then a 512-cycle gap before the next phase.
struct PhaseSpec {
  traffic::PatternKind pattern = traffic::PatternKind::Uniform;
  std::uint32_t volume_packets = 0;  ///< packets injected per node
  double rate = 0.0;                 ///< fraction of N_c; 0 = workload.phase_rate
  CycleDelta gap_after = 0;          ///< idle cycles before the next phase

  friend bool operator==(const PhaseSpec&, const PhaseSpec&) = default;
};

/// The `workload.*` INI section beyond the legacy Bernoulli knobs.
struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::Bernoulli;
  /// Episodes (collective iterations / kernel timesteps) per run.
  std::uint32_t episodes = 2;
  /// Packets per node per phase for the built-in kinds.
  std::uint32_t volume_packets = 16;
  /// Injection rate of each phase as a fraction of capacity N_c.
  double phase_rate = 0.9;
  /// Compute gap between episodes for the bursty kinds (ptrans).
  CycleDelta gap_cycles = 256;
  /// Generic schedule (kind = phases only; see PhaseSpec).
  std::vector<PhaseSpec> phases;
  /// Tenant count for kind = tenants.
  std::uint32_t tenants = 4;
  /// Per-tenant offered load while a session is active (fraction of N_c).
  double tenant_load = 0.25;
  /// Patterns a tenant session draws from, uniformly per session.
  std::vector<traffic::PatternKind> tenant_mix{traffic::PatternKind::Uniform};
  /// Length of one tenant session in cycles.
  CycleDelta session_cycles = 4000;
  /// Mean geometric gap between one tenant's session arrivals.
  CycleDelta session_gap_mean = 2000;
  /// Hard cap on completion-bounded runs — a workload that has not
  /// completed by this cycle is reported incomplete instead of hanging.
  Cycle horizon_cycles = 200000;
  /// Trace to replay for kind = trace (erapid-trace v1 format).
  std::string trace_file;

  /// True when this spec replaces the legacy Bernoulli traffic path.
  [[nodiscard]] bool active() const { return kind != WorkloadKind::Bernoulli; }

  /// True for kinds that run to delivered-byte completion rather than over
  /// a fixed warmup/measure window.
  [[nodiscard]] bool completion_bounded() const {
    return active() && kind != WorkloadKind::Tenants;
  }

  /// Cross-field validation; throws ModelInvariantError on the first
  /// violated constraint. Called by options_from_ini and the Simulation.
  void validate() const;

  friend bool operator==(const WorkloadSpec&, const WorkloadSpec&) = default;
};

/// Parses the `workload.phases` grammar (comma-separated PhaseSpec list).
[[nodiscard]] std::vector<PhaseSpec> parse_phase_specs(const std::string& text);
/// Inverse of parse_phase_specs: parse(format(x)) == x (rates print in
/// shortest round-trip form).
[[nodiscard]] std::string format_phase_specs(const std::vector<PhaseSpec>& specs);

/// Parses the `workload.tenant_mix` grammar (comma-separated pattern names).
[[nodiscard]] std::vector<traffic::PatternKind> parse_pattern_mix(const std::string& text);
[[nodiscard]] std::string format_pattern_mix(const std::vector<traffic::PatternKind>& mix);

}  // namespace erapid::workload
