// Shared harness for the benches that write erapid-bench-1 artifacts: the
// figure sweeps (figure_common.hpp), the workload sweeps
// (workload_common.hpp) and the brownout ladder.
//
// A bench registers one google-benchmark per point (Iterations(1): the
// simulation *is* the measured unit of work) and runs it through
// store().run, which records the SimResult and its wall time under the
// point's sim::PointKey. Each bench prints its own console panels from the
// store. Setting ERAPID_BENCH_JSON=<dir> additionally writes
// BENCH_<slug>.json there through sim::bench_doc_json, the one
// erapid-bench-1 writer; ERAPID_GIT_REV stamps the producing revision.
// Wall time is measured here in the harness, around the whole simulation —
// never inside the simulator, which must stay wall-clock free.
#pragma once

#include <benchmark/benchmark.h>

#include <cctype>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "sim/report.hpp"
#include "sim/simulation.hpp"
#include "util/table.hpp"

namespace erapid::bench {

inline std::vector<reconfig::NetworkMode> all_modes() {
  return {reconfig::NetworkMode::np_nb(), reconfig::NetworkMode::p_nb(),
          reconfig::NetworkMode::np_b(), reconfig::NetworkMode::p_b()};
}

/// Filename-safe slug for the JSON artifact name.
inline std::string bench_slug(const std::string& title) {
  std::string slug;
  for (char c : title) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
      slug += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!slug.empty() && slug.back() != '_') {
      slug += '_';
    }
  }
  while (!slug.empty() && slug.back() == '_') slug.pop_back();
  return slug;
}

/// Collects one binary's points, keyed and ordered by sim::PointKey.
class PointStore {
 public:
  /// Runs `o` as the benchmark's measured work, records the point (with
  /// `cap_mw` in its key if given) and returns its result.
  const sim::SimResult& run(benchmark::State& state, const sim::SimOptions& o,
                            std::optional<double> cap_mw = std::nullopt) {
    sim::BenchRun point;
    for (auto _ : state) {
      const auto wall_start = std::chrono::steady_clock::now();
      sim::Simulation s(o);
      point.result = s.run();
      // The pointer form: DoNotOptimize(<double lvalue>) miscompiles with
      // some gcc / google-benchmark combinations.
      benchmark::DoNotOptimize(&point.result);
      point.wall_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - wall_start)
                          .count();
    }
    doc_.stamp(o);
    sim::PointKey key = sim::point_key(o, point.result);
    key.cap_mw = cap_mw;
    return points_.insert_or_assign(std::move(key), std::move(point)).first->second.result;
  }

  [[nodiscard]] const sim::BenchPoints& points() const { return points_; }

  /// Prints one metric as a table: a row per distinct `row_of(key)` label
  /// (sorted), a column per network mode present, in canonical order.
  template <class RowOf, class Metric>
  void print_panel(const std::string& heading, const std::string& row_header, RowOf row_of,
                   Metric metric) const {
    std::set<std::string> rows;
    std::set<std::string> modes;
    for (const auto& [key, point] : points_) {
      rows.insert(row_of(key));
      modes.insert(key.mode);
    }
    std::vector<std::string> header = {row_header};
    for (const auto& mode : all_modes()) {
      if (modes.count(std::string(mode.name)) > 0) header.emplace_back(mode.name);
    }
    std::cout << "\n== " << heading << " ==\n";
    util::TablePrinter t(header);
    for (const auto& row : rows) {
      std::vector<std::string> cells = {row};
      for (std::size_t c = 1; c < header.size(); ++c) {
        std::string cell = "-";
        for (const auto& [key, point] : points_) {
          if (key.mode == header[c] && row_of(key) == row)
            cell = util::TablePrinter::fixed(metric(point.result), 3);
        }
        cells.push_back(std::move(cell));
      }
      t.row(std::move(cells));
    }
    t.print(std::cout);
  }

  /// With ERAPID_BENCH_JSON=<dir> set and at least one point recorded,
  /// writes <dir>/BENCH_<slug>.json for bench `title`, whose doc-level
  /// traffic label is `pattern`.
  void write_json(const std::string& slug, const std::string& title,
                  const std::string& pattern) const {
    const char* dir = std::getenv("ERAPID_BENCH_JSON");
    if (dir == nullptr || *dir == '\0' || points_.empty()) return;
    sim::BenchDoc doc = doc_;
    doc.bench = title;
    doc.pattern = pattern;
    const char* rev = std::getenv("ERAPID_GIT_REV");
    doc.git_rev = rev != nullptr ? rev : "unknown";
    const std::string path = std::string(dir) + "/BENCH_" + slug + ".json";
    std::ofstream out(path);
    if (!out) {
      std::cerr << "bench: cannot open " << path << " for writing\n";
      return;
    }
    out << sim::bench_doc_json(doc, points_);
    std::cout << "\nbench JSON written to " << path << "\n";
  }

 private:
  sim::BenchPoints points_;
  sim::BenchDoc doc_;
};

inline PointStore& store() {
  static PointStore s;
  return s;
}

/// Registers one single-iteration, millisecond-unit benchmark.
template <class Fn>
void register_point(const std::string& name, Fn fn) {
  benchmark::RegisterBenchmark(name.c_str(), fn)->Iterations(1)->Unit(benchmark::kMillisecond);
}

}  // namespace erapid::bench
