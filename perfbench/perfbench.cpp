// Benchmark driver for the E-RAPID simulator.
//
// Runs one named workload as a sequence of sim::Simulation points, one
// point at a time on a single thread, and times only the public calls: the
// Simulation constructor (set-up) and run(). A run repeats the workload in
// passes until --seconds is spent and reports medians over passes.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//   perfbench --list-tags      (the event-tag -> layer map, "tag layer" lines)
//
// --trace 0 reports the end-to-end metrics from untraced passes. --trace 1
// alternates untraced and traced passes; a traced pass installs LayerTracer
// as the engine's DispatchHook, which charges each event's host time to the
// layer its tag names and forwards to the obs hub when the run has one.
// Every point is checked (drain / completion, monitors, and a rendered
// result that is byte-identical across passes, traced or not). The last
// line of stdout is one JSON object: correct, attempted, failed, metrics.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "reconfig/policy.hpp"
#include "sim/report.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace erapid;
using Clock = std::chrono::steady_clock;
static_assert(std::is_same_v<Clock::duration, std::chrono::nanoseconds>,
              "TagTimes counts steady_clock ticks as nanoseconds");

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Event tag -> layer map. Every tag passed to Engine::schedule/schedule_at
// under src/ must appear here: the traced run throws on an unnamed tag, and
// run.py checks this list against the tags found in the sources.

enum class Layer { Router, Optical, Reconfig, Workload, Telemetry, Fault, Untagged };

/// Indexed by Layer.
constexpr std::array<std::string_view, 7> kLayerNames = {
    "router", "optical", "reconfig", "workload", "telemetry", "fault", "untagged"};
constexpr std::size_t kLayers = kLayerNames.size();

struct TagLayer {
  std::string_view tag;
  Layer layer;
};

constexpr std::array kTagMap = {
    TagLayer{"clock.tick", Layer::Router},
    TagLayer{"lane.tx_done", Layer::Optical},
    TagLayer{"lane.deliver", Layer::Optical},
    TagLayer{"lane.relock", Layer::Optical},
    TagLayer{"optical.arq_retx", Layer::Optical},
    TagLayer{"reconfig.window", Layer::Reconfig},
    TagLayer{"reconfig.dpm_apply", Layer::Reconfig},
    TagLayer{"reconfig.dbr_resolve", Layer::Reconfig},
    TagLayer{"reconfig.dbr_apply", Layer::Reconfig},
    TagLayer{"workload.inject", Layer::Workload},
    TagLayer{"workload.phase", Layer::Workload},
    TagLayer{"workload.tenant_inject", Layer::Workload},
    TagLayer{"workload.arrival", Layer::Workload},
    TagLayer{"workload.session_end", Layer::Workload},
    TagLayer{"obs.telemetry_window", Layer::Telemetry},
    TagLayer{"recorder.sample", Layer::Telemetry},
    TagLayer{"fault.inject", Layer::Fault},
    TagLayer{"fault.repair", Layer::Fault},
    TagLayer{"fault.cap_clear", Layer::Fault},
    TagLayer{"fault.rc_repair", Layer::Fault},
};
/// Slot of untagged events in the per-tag tables (after the named tags).
constexpr std::size_t kUntaggedSlot = kTagMap.size();
constexpr std::size_t kSlots = kTagMap.size() + 1;

std::size_t slot_of(std::string_view tag) {
  for (std::size_t i = 0; i < kTagMap.size(); ++i) {
    if (kTagMap[i].tag == tag) return i;
  }
  throw std::runtime_error("event tag '" + std::string(tag) +
                           "' is not in the perfbench tag -> layer map");
}

Layer layer_of_slot(std::size_t slot) {
  return slot == kUntaggedSlot ? Layer::Untagged : kTagMap[slot].layer;
}

/// Host time and event count per tag slot, plus the hub's forwarded share.
struct TagTimes {
  std::array<std::int64_t, kSlots> ns{};
  std::array<std::uint64_t, kSlots> events{};
  std::int64_t hub_ns = 0;
  std::size_t depth_max = 0;
  double depth_sum = 0.0;
};

/// DispatchHook that times every event callback under its tag. When the
/// Simulation has an obs hub (which the constructor installed as the
/// engine's hook), the tracer takes its place and forwards to it, timing
/// the hub's share separately so obs-on runs keep their behaviour.
class LayerTracer final : public des::Engine::DispatchHook {
 public:
  LayerTracer(TagTimes& out, obs::Hub* hub) : out_(out), hub_(hub) {}
  LayerTracer(const LayerTracer&) = delete;
  LayerTracer& operator=(const LayerTracer&) = delete;

  void on_dispatch_begin(const char* tag, Cycle now) override {
    slot_ = lookup(tag);
    Clock::time_point t = Clock::now();
    if (hub_ != nullptr) {
      hub_->on_dispatch_begin(tag, now);
      const Clock::time_point t1 = Clock::now();
      out_.hub_ns += (t1 - t).count();
      t = t1;
    }
    start_ = t;
  }

  void on_dispatch_end(const char* tag, Cycle now, std::size_t queue_size,
                       std::uint64_t executed) override {
    const Clock::time_point t = Clock::now();
    out_.ns[slot_] += (t - start_).count();
    ++out_.events[slot_];
    out_.depth_max = std::max(out_.depth_max, queue_size);
    out_.depth_sum += static_cast<double>(queue_size);
    if (hub_ != nullptr) {
      hub_->on_dispatch_end(tag, now, queue_size, executed);
      out_.hub_ns += (Clock::now() - t).count();
    }
  }

 private:
  /// Tags are string literals: cache by pointer, resolve by text on a miss.
  std::size_t lookup(const char* tag) {
    if (tag == nullptr) return kUntaggedSlot;
    for (const auto& [ptr, slot] : seen_) {
      if (ptr == tag) return slot;
    }
    const std::size_t slot = slot_of(tag);
    seen_.emplace_back(tag, slot);
    return slot;
  }

  TagTimes& out_;
  obs::Hub* hub_;
  std::vector<std::pair<const char*, std::size_t>> seen_;
  std::size_t slot_ = kUntaggedSlot;
  Clock::time_point start_{};
};

// ---------------------------------------------------------------------------
// Workloads.

struct Point {
  std::string name;
  sim::SimOptions opts;
  bool headline = false;  ///< the P-B point whose modelled results are reported
};

std::vector<Point> uniform_points(double load) {
  std::vector<Point> pts;
  for (const auto& mode : {reconfig::NetworkMode::np_nb(), reconfig::NetworkMode::p_nb(),
                           reconfig::NetworkMode::np_b(), reconfig::NetworkMode::p_b()}) {
    Point p;
    p.name = std::string(mode.name);
    p.opts.load_fraction = load;
    p.opts.reconfig.mode = mode;
    p.headline = mode.power_aware && mode.bandwidth_reconfig;
    pts.push_back(std::move(p));
  }
  return pts;
}

std::vector<Point> alltoall_points(const std::string& out_dir) {
  Point p;
  p.name = "P-B";
  p.headline = true;
  sim::SimOptions& o = p.opts;
  o.system.boards = 16;
  o.system.nodes_per_board = 4;
  o.reconfig.mode = reconfig::NetworkMode::p_b();
  o.workload.kind = workload::WorkloadKind::AllToAll;
  // One episode of 8 packets per node per phase: ~167k simulated cycles,
  // inside the default horizon. The schedule itself does not use the seed.
  o.workload.episodes = 1;
  o.workload.volume_packets = 8;
  o.obs.enabled = true;
  o.obs.telemetry_path = out_dir + "/alltoall_telemetry.jsonl";
  o.obs.flight_recorder_depth = 256;
  o.obs.flight_recorder_path = out_dir + "/alltoall_flight_recorder.json";
  // Envelopes the run must hold: completion within the horizon, and DBR
  // re-solves settling within four LS windows.
  o.obs.monitors.workload_deadline = o.workload.horizon_cycles;
  o.obs.monitors.quiescence_deadline = 4 * o.reconfig.window;
  return {p};
}

std::vector<Point> make_points(const std::string& workload, std::uint64_t seed,
                               const std::string& out_dir) {
  std::vector<Point> pts;
  if (workload == "uniform_r188_low") {
    pts = uniform_points(0.1);
  } else if (workload == "uniform_r188_high") {
    pts = uniform_points(0.8);
  } else if (workload == "alltoall_r1164_obs") {
    pts = alltoall_points(out_dir);
  } else {
    throw std::runtime_error("unknown workload '" + workload + "'");
  }
  for (Point& p : pts) p.opts.seed = seed;
  return pts;
}

/// Why a point's result is wrong, or empty when it passes.
std::string check_result(const sim::SimOptions& o, const sim::SimResult& r) {
  if (o.workload.completion_bounded()) {
    if (!r.workload.completed) return "workload did not complete";
  } else {
    if (!r.drained) return "did not drain";
    if (r.labelled_generated == 0) return "no labelled packets";
    if (r.labelled_delivered != r.labelled_generated) {
      return "labelled delivered " + std::to_string(r.labelled_delivered) +
             " != generated " + std::to_string(r.labelled_generated);
    }
  }
  if (o.obs.enabled && o.obs.monitors.any()) {
    if (r.monitors.empty()) return "configured monitors reported nothing";
    if (!r.monitors_ok()) {
      return std::to_string(r.monitor_violations) + " monitor violation(s)";
    }
  }
  return {};
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Passes.

/// Constructor timings per point per pass (set-up is sub-millisecond).
constexpr int kSetupReps = 9;

/// Public counters read after a traced point.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t sim_cycles = 0;
  router::RouterCounters router;
  reconfig::ControlCounters control;
  std::uint64_t arq_retransmits = 0;
};

struct Pass {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t sim_cycles = 0;
  TagTimes tags;     ///< traced passes only
  Counters counters; ///< traced passes only
};

class Runner {
 public:
  explicit Runner(std::vector<Point> points)
      : points_(std::move(points)), rendered_(points_.size()) {}

  /// Runs every point once.
  Pass run_pass(bool traced) {
    Pass pass;
    for (std::size_t i = 0; i < points_.size(); ++i) run_point(i, traced, pass);
    return pass;
  }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  /// The headline (P-B) point's result from the first pass.
  [[nodiscard]] const sim::SimResult& headline() const { return headline_; }

 private:
  void run_point(std::size_t i, bool traced, Pass& pass) {
    const Point& pt = points_[i];
    const sim::SimOptions& opts = pt.opts;
    ++attempted_;
    std::string why;
    try {
      std::vector<double> setups;
      for (int rep = 1; rep < kSetupReps; ++rep) {
        const Clock::time_point t0 = Clock::now();
        const sim::Simulation spare(opts);
        setups.push_back(seconds_since(t0));
      }
      // Declared before `sim`, whose engine holds a pointer to it.
      std::unique_ptr<LayerTracer> tracer;
      const Clock::time_point t0 = Clock::now();
      sim::Simulation sim(opts);
      setups.push_back(seconds_since(t0));
      pass.setup_s += median(setups);

      if (traced) {
        tracer = std::make_unique<LayerTracer>(pass.tags, sim.hub());
        sim.engine().set_dispatch_hook(tracer.get());
      }
      const Clock::time_point t1 = Clock::now();
      const sim::SimResult r = sim.run();
      const double wall_s = seconds_since(t1);
      pass.wall_s += wall_s;
      pass.sim_cycles += sim.engine().now();
      if (traced) read_counters(sim, pass.counters);

      why = check_result(opts, r);
      // Every later run of the point, traced or not, must render the same
      // result as the first.
      const std::string text = sim::to_json(r);
      std::string& first = rendered_[i];
      if (first.empty()) {
        first = text;
        if (pt.headline) headline_ = r;
      } else if (text != first) {
        why = "rendered result differs from the first pass";
      }
      std::printf("point %-5s seed %-6llu %s cycles %-7llu run %8.4f s digest %016llx\n",
                  pt.name.c_str(), static_cast<unsigned long long>(opts.seed),
                  traced ? "traced  " : "untraced",
                  static_cast<unsigned long long>(sim.engine().now()), wall_s,
                  static_cast<unsigned long long>(fnv1a(text)));
    } catch (const std::exception& e) {
      why = std::string("threw: ") + e.what();
    }
    if (!why.empty()) {
      ++failed_;
      std::cerr << "point " << pt.name << " seed " << opts.seed << " FAILED: " << why << "\n";
    }
  }

  static void read_counters(sim::Simulation& sim, Counters& c) {
    c.events += sim.engine().events_executed();
    c.sim_cycles += sim.engine().now();
    auto& net = sim.network();
    const std::uint32_t boards = net.config().num_boards_total();
    for (std::uint32_t b = 0; b < boards; ++b) {
      const router::RouterCounters& rc = net.board_router(BoardId{b}).counters();
      c.router.flits_out += rc.flits_out;
      c.router.va_grants += rc.va_grants;
      c.router.sa_grants += rc.sa_grants;
      c.router.sa_conflicts += rc.sa_conflicts;
      c.arq_retransmits += net.terminal(BoardId{b}).arq_retransmits();
    }
    const reconfig::ControlCounters& cc = net.reconfig_manager().counters();
    c.control.lane_grants += cc.lane_grants;
    c.control.level_changes += cc.level_changes;
    c.control.ring_hops += cc.ring_hops;
  }

  std::vector<Point> points_;
  std::vector<std::string> rendered_;  ///< first pass's to_json per point
  sim::SimResult headline_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string render_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-28s %18s %s\n", m.name.c_str(), render_number(m.value).c_str(),
                m.unit.c_str());
  }
  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) js << ", ";
    js << "\"" << metrics[i].name << "\": {\"value\": " << render_number(metrics[i].value)
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  std::fflush(stdout);
}

/// Peak resident memory of this program image (VmHWM). getrusage's
/// ru_maxrss would not do: it keeps the launcher's peak across exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // in kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Host timings are medians over passes; modelled results come from the
/// headline (P-B) point.
std::vector<Metric> end_to_end(const std::vector<Pass>& passes, const sim::SimResult& h) {
  std::vector<double> wall, rate, setup;
  for (const Pass& p : passes) {
    wall.push_back(p.wall_s);
    rate.push_back(static_cast<double>(p.sim_cycles) / p.wall_s);
    setup.push_back(p.setup_s);
  }
  return {
      {"wall_s", median(wall), "s"},
      {"sim_cycles_per_s", median(rate), "1/s"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"sim.throughput_xNc", h.accepted_fraction, "xNc"},
      {"sim.latency_p50_cycles", h.latency_p50, "cycles"},
      {"sim.active_power_mw", h.active_power_avg_mw, "mW"},
      {"sim.makespan_cycles", static_cast<double>(h.end_cycle), "cycles"},
  };
}

/// Per-layer metrics, per pass, averaged over the traced passes. Throws
/// when the split fails to account for the traced wall.
std::vector<Metric> per_layer(const std::vector<Pass>& untraced,
                              const std::vector<Pass>& traced, const sim::SimResult& h) {
  const auto n = static_cast<double>(traced.size());
  std::array<double, kSlots> tag_s{};
  std::array<double, kSlots> tag_n{};
  double hub_s = 0.0, wall_s = 0.0, untraced_wall_s = 0.0, depth_sum = 0.0;
  double depth_max = 0.0;
  for (const Pass& p : traced) {
    for (std::size_t s = 0; s < kSlots; ++s) {
      tag_s[s] += 1e-9 * static_cast<double>(p.tags.ns[s]) / n;
      tag_n[s] += static_cast<double>(p.tags.events[s]) / n;
    }
    hub_s += 1e-9 * static_cast<double>(p.tags.hub_ns) / n;
    wall_s += p.wall_s / n;
    depth_sum += p.tags.depth_sum / n;
    depth_max = std::max(depth_max, static_cast<double>(p.tags.depth_max));
  }
  for (const Pass& p : untraced) {
    untraced_wall_s += p.wall_s / static_cast<double>(untraced.size());
  }
  // Every pass runs the same seeds, so the first traced pass's counters
  // stand for all.
  const Counters& c = traced.front().counters;

  std::array<double, kLayers> layer_s{};
  std::array<double, kLayers> layer_n{};
  double events_seen = 0.0;
  for (std::size_t s = 0; s < kSlots; ++s) {
    layer_s[static_cast<std::size_t>(layer_of_slot(s))] += tag_s[s];
    layer_n[static_cast<std::size_t>(layer_of_slot(s))] += tag_n[s];
    events_seen += tag_n[s];
  }
  double callbacks_s = 0.0;
  for (const double s : layer_s) callbacks_s += s;
  const double engine_self_s = wall_s - callbacks_s - hub_s;
  const auto events = static_cast<double>(c.events);
  const auto cycles = static_cast<double>(c.sim_cycles);
  if (engine_self_s < 0.0) {
    throw std::runtime_error("layer times exceed the traced wall (nested dispatch?)");
  }
  if (events_seen != events) {
    throw std::runtime_error("hook saw " + render_number(events_seen) + " events, engine ran " +
                             render_number(events));
  }

  std::printf("layer split of the traced wall (%.4f s):", wall_s);
  for (std::size_t l = 0; l < kLayers; ++l) {
    std::printf(" %s %.1f%%,", std::string(kLayerNames[l]).c_str(), 100.0 * layer_s[l] / wall_s);
  }
  std::printf(" obs hook %.1f%%, engine self %.1f%%\n", 100.0 * hub_s / wall_s,
              100.0 * engine_self_s / wall_s);

  const auto L = [&](Layer l) { return layer_s[static_cast<std::size_t>(l)]; };
  const auto N = [&](Layer l) { return layer_n[static_cast<std::size_t>(l)]; };
  const auto T = [&](std::string_view tag) { return tag_n[slot_of(tag)]; };
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const double ticks = T("clock.tick");
  const double windows = T("reconfig.window");
  const auto sa_attempts = static_cast<double>(c.router.sa_grants + c.router.sa_conflicts);

  return {
      {"des.sim_cycles", cycles, "cycles"},
      {"des.events", events, "count"},
      {"des.events_per_sim_cycle", ratio(events, cycles), "1/cycle"},
      {"des.events_per_s", ratio(events, wall_s), "1/s"},
      {"des.queue_depth_max", depth_max, "count"},
      {"des.queue_depth_mean", ratio(depth_sum, events), "count"},
      {"des.engine_self_s", engine_self_s, "s"},
      {"des.untagged_s", L(Layer::Untagged), "s"},
      {"des.untagged_events", N(Layer::Untagged), "count"},
      {"router.tick_s", L(Layer::Router), "s"},
      {"router.ticks", ticks, "count"},
      {"router.ticks_per_sim_cycle", ratio(ticks, cycles), "1/cycle"},
      {"router.tick_ns", 1e9 * ratio(L(Layer::Router), ticks), "ns"},
      {"router.flits_out", static_cast<double>(c.router.flits_out), "count"},
      {"router.va_grants", static_cast<double>(c.router.va_grants), "count"},
      {"router.sa_grants", static_cast<double>(c.router.sa_grants), "count"},
      {"router.sa_attempts", sa_attempts, "count"},
      {"router.sa_grant_ratio", ratio(static_cast<double>(c.router.sa_grants), sa_attempts),
       "ratio"},
      {"optical.dispatch_s", L(Layer::Optical), "s"},
      {"optical.events", N(Layer::Optical), "count"},
      {"optical.relocks", T("lane.relock"), "count"},
      {"optical.arq_retransmits", static_cast<double>(c.arq_retransmits), "count"},
      {"reconfig.dispatch_s", L(Layer::Reconfig), "s"},
      {"reconfig.windows", windows, "count"},
      {"reconfig.window_us", 1e6 * ratio(tag_s[slot_of("reconfig.window")], windows), "us"},
      {"reconfig.dbr_applies", T("reconfig.dbr_apply"), "count"},
      {"reconfig.dpm_applies", T("reconfig.dpm_apply"), "count"},
      {"reconfig.lane_grants", static_cast<double>(c.control.lane_grants), "count"},
      {"reconfig.level_changes", static_cast<double>(c.control.level_changes), "count"},
      {"reconfig.ring_hops", static_cast<double>(c.control.ring_hops), "count"},
      {"workload.dispatch_s", L(Layer::Workload), "s"},
      {"workload.injects", T("workload.inject"), "count"},
      {"workload.phases", T("workload.phase"), "count"},
      {"obs.hook_s", hub_s, "s"},
      {"obs.telemetry_s", L(Layer::Telemetry), "s"},
      {"obs.windows", T("obs.telemetry_window"), "count"},
      {"fault.dispatch_s", L(Layer::Fault), "s"},
      {"trace.wall_s", wall_s, "s"},
      {"trace.untraced_wall_s", untraced_wall_s, "s"},
      {"trace.overhead_share", ratio(wall_s, untraced_wall_s) - 1.0, "ratio"},
      // Not an end-to-end metric: at 0.8 N_c the P-B p99 of one seed lies up
      // to ±40% from the next seed's, wider than any regression bound.
      {"sim.latency_p99_cycles", h.latency_p99, "cycles"},
  };
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool list_tags = false;
  std::string out_dir = ".";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--list-tags") {
      a.list_tags = true;
      continue;
    }
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else {
      throw std::runtime_error("unknown argument " + k);
    }
  }
  return a;
}

int run(const Args& a) {
  std::filesystem::create_directories(a.out_dir);
  Runner runner(make_points(a.workload, a.seed, a.out_dir));

  // Whole units (one untraced pass, or an untraced + traced pair) until the
  // next unit would overrun --seconds; always at least one unit.
  std::vector<Pass> untraced, traced;
  const Clock::time_point start = Clock::now();
  double last_unit_s = 0.0;
  do {
    const Clock::time_point t0 = Clock::now();
    untraced.push_back(runner.run_pass(false));
    if (a.trace) traced.push_back(runner.run_pass(true));
    last_unit_s = seconds_since(t0);
  } while (runner.failed() == 0 && seconds_since(start) + last_unit_s <= a.seconds);
  std::printf("passes: %zu untraced, %zu traced\n", untraced.size(), traced.size());

  std::vector<Metric> metrics;
  bool ok = runner.failed() == 0;
  if (ok) {
    try {
      metrics = a.trace ? per_layer(untraced, traced, runner.headline())
                        : end_to_end(untraced, runner.headline());
    } catch (const std::exception& e) {
      std::cerr << "trace accounting FAILED: " << e.what() << "\n";
      ok = false;
    }
  }
  print_result(ok, runner.attempted(), ok ? 0 : std::max<std::uint64_t>(runner.failed(), 1),
               metrics);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    if (a.list_tags) {
      for (const TagLayer& t : kTagMap) {
        std::printf("%s %s\n", std::string(t.tag).c_str(),
                    std::string(kLayerNames[static_cast<std::size_t>(t.layer)]).c_str());
      }
      return 0;
    }
    return run(a);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
