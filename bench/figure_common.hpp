// Shared harness for the figure-reproduction benches.
//
// Each Fig. 5 / Fig. 6 panel in the paper plots one metric (throughput,
// latency, power) against offered load 0.1..0.9 × N_c for the four network
// configurations NP-NB / P-NB / NP-B / P-B on one traffic pattern. A
// figure bench runs one point per (mode, load) through the shared point
// store (bench_common.hpp) and finally prints the panels as aligned
// tables — the same series the paper reports. ERAPID_BENCH_JSON=<dir>
// writes the BENCH_<slug>.json artifact (schema erapid-bench-1).
#pragma once

#include <string>
#include <vector>

#include "bench_common.hpp"

namespace erapid::bench {

inline const std::vector<double>& default_loads() {
  static const std::vector<double> loads = {0.1, 0.2, 0.3, 0.4, 0.5,
                                            0.6, 0.7, 0.8, 0.9};
  return loads;
}

/// Baseline options used by every figure bench: the paper's 64-node
/// R(1,8,8) system, moderately sized measurement windows.
inline sim::SimOptions figure_options() {
  sim::SimOptions o;           // R(1,8,8) defaults
  o.warmup_cycles = 10000;     // ≥ several reconfiguration windows
  o.measure_cycles = 15000;
  o.drain_limit = 50000;
  o.seed = 1;
  return o;
}

/// Runs one (mode, load) point and records it.
inline void run_point(benchmark::State& state, traffic::PatternKind pattern,
                      const reconfig::NetworkMode& mode, double load) {
  sim::SimOptions o = figure_options();
  o.pattern = pattern;
  o.load_fraction = load;
  o.reconfig.mode = mode;
  const sim::SimResult& result = store().run(state, o);
  state.counters["thru_xNc"] = result.accepted_fraction;
  state.counters["lat_cyc"] = result.latency_avg;
  state.counters["power_mW"] = result.power_avg_mw;
}

/// Prints the paper's panels (throughput, latency, power).
inline void print_figure(const std::string& figure, const std::string& pattern) {
  const auto panel = [&](const std::string& title, auto metric) {
    store().print_panel(
        figure + " (" + pattern + "): " + title, "load(xN_c)",
        [](const sim::PointKey& k) { return util::TablePrinter::fixed(k.load, 1); }, metric);
  };
  panel("accepted throughput (fraction of N_c)",
        [](const sim::SimResult& r) { return r.accepted_fraction; });
  panel("average latency (cycles)", [](const sim::SimResult& r) { return r.latency_avg; });
  panel("active optical power (mW) — the paper's power panel",
        [](const sim::SimResult& r) { return r.active_power_avg_mw; });
  panel("total optical power incl. lit-idle lanes (mW)",
        [](const sim::SimResult& r) { return r.power_avg_mw; });
}

/// Standard main body for a figure bench: the full 4-mode × 9-load sweep
/// for one pattern.
inline int figure_main(int argc, char** argv, traffic::PatternKind pattern,
                       const std::string& figure) {
  benchmark::Initialize(&argc, argv);
  const std::string pattern_str(traffic::pattern_name(pattern));
  for (const auto& mode : all_modes()) {
    for (double load : default_loads()) {
      register_point(pattern_str + "/" + std::string(mode.name) +
                         "/load=" + util::TablePrinter::fixed(load, 1),
                     [pattern, mode, load](benchmark::State& st) {
                       run_point(st, pattern, mode, load);
                     });
    }
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (store().points().empty()) return 0;
  print_figure(figure, pattern_str);
  store().write_json(bench_slug(figure), figure, pattern_str);
  return 0;
}

}  // namespace erapid::bench
