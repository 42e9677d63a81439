// Shared harness for the workload benches (bench_ml_collectives,
// bench_hpc_kernels).
//
// Unlike the figure benches — which sweep offered load for one traffic
// pattern — a workload bench sweeps *workload kinds* across the four
// network configurations NP-NB / P-NB / NP-B / P-B. Every point is one
// completion-bounded run: the schedule injects a fixed byte volume and the
// simulation ends when the last packet resolves, so the headline metric is
// the makespan (completion cycle), not a steady-state throughput. Points
// go through the shared point store (bench_common.hpp), keyed (pattern =
// workload kind, mode, load = phase_rate, seed), and their erapid-bench-1
// records carry the completion fields compare_runs.py gates.
//
// ERAPID_BENCH_JSON=<dir> writes BENCH_<slug>.json there; ERAPID_GIT_REV
// stamps the producing revision; ERAPID_BENCH_TINY=1 shrinks the volume
// for sanitizer CI runs (tiny artifacts are NOT comparable to committed
// full-size ones — CI compares tiny-vs-tiny self-runs only).
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "workload/spec.hpp"

namespace erapid::bench {

/// True when ERAPID_BENCH_TINY=1: one episode of minimal volume, for
/// ASan/UBSan smoke runs where full volumes would dominate CI time.
inline bool tiny_bench() {
  const char* v = std::getenv("ERAPID_BENCH_TINY");
  return v != nullptr && std::string(v) == "1";
}

/// Baseline options for every workload bench point: a 16-node R(1,4,4)
/// system (power-of-two node count, required by ptrans/fft) at a phase
/// rate high enough to stress reconfiguration without saturating.
inline sim::SimOptions workload_bench_options(workload::WorkloadKind kind) {
  sim::SimOptions o;
  o.system.boards = 4;
  o.system.nodes_per_board = 4;
  o.seed = 1;
  o.workload.kind = kind;
  o.workload.episodes = tiny_bench() ? 1 : 2;
  o.workload.volume_packets = tiny_bench() ? 2 : 8;
  o.workload.phase_rate = 0.7;
  o.workload.horizon_cycles = 400000;
  return o;
}

/// Runs one (kind, mode) point to completion and records it.
inline void run_workload_point(benchmark::State& state, workload::WorkloadKind kind,
                               const reconfig::NetworkMode& mode) {
  sim::SimOptions o = workload_bench_options(kind);
  o.reconfig.mode = mode;
  const sim::SimResult& result = store().run(state, o);
  state.counters["makespan_cyc"] = static_cast<double>(result.end_cycle);
  state.counters["completed"] = result.workload.completed ? 1.0 : 0.0;
  state.counters["power_mW"] = result.active_power_avg_mw;
}

/// Prints one row per workload kind, one column per mode: the makespan
/// panel (the headline), then worst phase, throughput and active power.
inline void print_workloads(const std::string& title) {
  const auto panel = [&](const std::string& name, auto metric) {
    store().print_panel(
        title + ": " + name, "workload", [](const sim::PointKey& k) { return k.pattern; },
        metric);
  };
  panel("makespan (cycles to completion; horizon if incomplete)",
        [](const sim::SimResult& r) { return static_cast<double>(r.end_cycle); });
  panel("worst phase (cycles)", [](const sim::SimResult& r) {
    return static_cast<double>(r.workload.worst_phase_cycles);
  });
  panel("accepted throughput (fraction of N_c over the makespan)",
        [](const sim::SimResult& r) { return r.accepted_fraction; });
  panel("active optical power (mW)",
        [](const sim::SimResult& r) { return r.active_power_avg_mw; });
}

/// Standard main body for a workload bench: the kinds × 4-mode sweep.
/// Exits non-zero if any point failed to complete within its horizon, so
/// CI catches deadlocks even without the JSON gate.
inline int workload_main(int argc, char** argv,
                         const std::vector<workload::WorkloadKind>& kinds,
                         const std::string& title) {
  benchmark::Initialize(&argc, argv);
  for (const auto kind : kinds) {
    for (const auto& mode : all_modes()) {
      register_point(
          std::string(workload::kind_name(kind)) + "/" + std::string(mode.name),
          [kind, mode](benchmark::State& st) { run_workload_point(st, kind, mode); });
    }
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (store().points().empty()) return 0;
  print_workloads(title);
  store().write_json(bench_slug(title), title, "workload");
  for (const auto& [key, point] : store().points()) {
    if (!point.result.workload.completed) {
      std::cerr << "\nbench: at least one workload point hit its horizon without "
                   "completing\n";
      return 1;
    }
  }
  return 0;
}

}  // namespace erapid::bench
