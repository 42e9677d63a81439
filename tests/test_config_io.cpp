// Tests for the INI parser, SimOptions config round-trip, the recorder
// time-series sampler, and the JSON result export.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/options_io.hpp"
#include "sim/recorder.hpp"
#include "sim/report.hpp"
#include "util/ini.hpp"

namespace {

using erapid::sim::load_options;
using erapid::sim::options_from_ini;
using erapid::sim::options_to_ini;
using erapid::sim::SimOptions;
using erapid::util::Ini;

// ---- Ini ------------------------------------------------------------------

TEST(Ini, ParsesSectionsAndKeys) {
  const auto ini = Ini::parse_string("[system]\nboards = 8\n\n[workload]\nload = 0.5\n");
  EXPECT_EQ(ini.get("system.boards"), "8");
  EXPECT_EQ(ini.get("workload.load"), "0.5");
  EXPECT_FALSE(ini.has("system.load"));
}

TEST(Ini, CommentsAndWhitespaceIgnored) {
  const auto ini = Ini::parse_string("; top\n# also\n[ s ]\n  k =  v  \n");
  EXPECT_EQ(ini.get("s.k"), "v");
}

TEST(Ini, SectionlessKeysWork) {
  const auto ini = Ini::parse_string("alpha = 3\n");
  EXPECT_EQ(ini.get("alpha"), "3");
}

TEST(Ini, MalformedLinesThrow) {
  EXPECT_THROW(Ini::parse_string("[unterminated\n"), erapid::ModelInvariantError);
  EXPECT_THROW(Ini::parse_string("no equals sign\n"), erapid::ModelInvariantError);
  EXPECT_THROW(Ini::parse_string("= novalue\n"), erapid::ModelInvariantError);
}

TEST(Ini, SaveParsesBack) {
  Ini ini;
  ini.set("b.two", "2");
  ini.set("a.one", "1");
  ini.set("plain", "x");
  std::ostringstream os;
  ini.save(os);
  const auto back = Ini::parse_string(os.str());
  EXPECT_EQ(back.get("a.one"), "1");
  EXPECT_EQ(back.get("b.two"), "2");
  EXPECT_EQ(back.get("plain"), "x");
  EXPECT_EQ(back.size(), 3u);
}

TEST(Ini, MissingFileThrows) {
  EXPECT_THROW(Ini::load_file("/nonexistent/x.ini"), erapid::ModelInvariantError);
}

// ---- options round-trip ------------------------------------------------------

TEST(OptionsIo, DefaultsSurviveRoundTrip) {
  SimOptions def;
  const auto ini = options_to_ini(def);
  const auto back = options_from_ini(ini);
  EXPECT_EQ(back.system.boards, def.system.boards);
  EXPECT_EQ(back.system.nodes_per_board, def.system.nodes_per_board);
  EXPECT_EQ(back.reconfig.window, def.reconfig.window);
  EXPECT_EQ(back.pattern, def.pattern);
  EXPECT_DOUBLE_EQ(back.load_fraction, def.load_fraction);
  EXPECT_EQ(back.reconfig.mode.name, def.reconfig.mode.name);
}

TEST(OptionsIo, CustomValuesSurviveRoundTrip) {
  SimOptions o;
  o.system.boards = 4;
  o.system.nodes_per_board = 2;
  o.pattern = erapid::traffic::PatternKind::Complement;
  o.load_fraction = 0.65;
  o.seed = 99;
  o.reconfig.mode = erapid::reconfig::NetworkMode::p_b();
  o.reconfig.mode.dbr.max_lanes_per_flow = 3;
  o.reconfig.window = 4000;
  o.reconfig.dpm_strategy = erapid::reconfig::DpmStrategyKind::Ewma;
  o.reconfig.dpm_params.ewma_alpha = 0.25;

  const auto back = options_from_ini(options_to_ini(o));
  EXPECT_EQ(back.system.boards, 4u);
  EXPECT_EQ(back.pattern, erapid::traffic::PatternKind::Complement);
  EXPECT_DOUBLE_EQ(back.load_fraction, 0.65);
  EXPECT_EQ(back.seed, 99u);
  EXPECT_EQ(back.reconfig.mode.name, "P-B");
  EXPECT_EQ(back.reconfig.mode.dbr.max_lanes_per_flow, 3u);
  EXPECT_EQ(back.reconfig.window, 4000u);
  EXPECT_EQ(back.reconfig.dpm_strategy, erapid::reconfig::DpmStrategyKind::Ewma);
  EXPECT_DOUBLE_EQ(back.reconfig.dpm_params.ewma_alpha, 0.25);
}

TEST(OptionsIo, DesQueueRoundTripsAndRejectsUnknown) {
  SimOptions def;
  EXPECT_EQ(def.des_queue, erapid::des::QueueKind::Heap);
  def.des_queue = erapid::des::QueueKind::Calendar;
  const auto ini = options_to_ini(def);
  EXPECT_EQ(ini.get("des.queue").value_or(""), "calendar");
  EXPECT_EQ(options_from_ini(ini).des_queue, erapid::des::QueueKind::Calendar);

  erapid::util::Ini text = erapid::util::Ini::parse_string("[des]\nqueue = heap\n");
  EXPECT_EQ(options_from_ini(text).des_queue, erapid::des::QueueKind::Heap);
  erapid::util::Ini bad = erapid::util::Ini::parse_string("[des]\nqueue = splay\n");
  EXPECT_THROW(options_from_ini(bad), erapid::ModelInvariantError);
}

// Determinism contract (DESIGN.md §7): every options struct must be fully
// initialized by default construction — an indeterminate member would make
// two "identical" runs diverge. Default-construct each one, read every
// scalar back (uninitialized reads are UB and trip MSan/valgrind in the
// sanitizer CI job), and check the documented defaults.
TEST(OptionsIo, EveryOptionsStructDefaultConstructsInitialized) {
  const erapid::topology::SystemConfig sys;
  EXPECT_EQ(sys.clusters, 1u);
  EXPECT_EQ(sys.boards, 8u);
  EXPECT_EQ(sys.nodes_per_board, 8u);
  EXPECT_DOUBLE_EQ(sys.router_clock_ghz, 0.4);
  EXPECT_EQ(sys.channel_width_bits, 16u);
  EXPECT_EQ(sys.flit_bits, 64u);
  EXPECT_EQ(sys.packet_flits, 8u);
  EXPECT_EQ(sys.num_vcs, 4u);
  EXPECT_EQ(sys.vc_buffer_flits, 8u);
  EXPECT_EQ(sys.credit_delay, 1u);
  EXPECT_EQ(sys.tx_queue_packets, 16u);
  EXPECT_EQ(sys.rx_queue_packets, 8u);
  EXPECT_EQ(sys.fiber_delay_cycles, 8u);
  EXPECT_EQ(sys.tx_feed_cycles_per_flit, 1u);
  EXPECT_EQ(sys.injection_queue_packets, 64u);
  EXPECT_NO_THROW(sys.validate());

  const erapid::reconfig::DpmPolicy dpm;
  EXPECT_DOUBLE_EQ(dpm.l_min, 0.7);
  EXPECT_DOUBLE_EQ(dpm.l_max, 0.9);
  EXPECT_DOUBLE_EQ(dpm.b_max, 0.3);
  EXPECT_TRUE(dpm.require_buffer_for_upscale);
  EXPECT_TRUE(dpm.shutdown_idle);

  const erapid::reconfig::DbrPolicy dbr;
  EXPECT_DOUBLE_EQ(dbr.b_min, 0.0);
  EXPECT_DOUBLE_EQ(dbr.b_max, 0.3);
  EXPECT_EQ(dbr.max_lanes_per_flow, 0u);

  const erapid::reconfig::DpmStrategyParams params;
  EXPECT_EQ(params.hysteresis_windows, 2u);
  EXPECT_DOUBLE_EQ(params.ewma_alpha, 0.5);

  const erapid::reconfig::ReconfigConfig rc;
  EXPECT_EQ(rc.window, 2000u);
  EXPECT_EQ(rc.ring_hop_cycles, 16u);
  EXPECT_EQ(rc.lc_hop_cycles, 4u);
  EXPECT_EQ(rc.mode.name, "NP-NB");
  EXPECT_EQ(rc.grant_level, erapid::power::PowerLevel::High);
  EXPECT_EQ(rc.dpm_strategy, erapid::reconfig::DpmStrategyKind::Threshold);
  EXPECT_EQ(rc.ctrl_retry_limit, 3u);

  const erapid::power::LinkPowerModel pw;
  EXPECT_DOUBLE_EQ(pw.power_mw(erapid::power::PowerLevel::Off).value(), 0.0);
  EXPECT_DOUBLE_EQ(pw.power_mw(erapid::power::PowerLevel::High).value(), 43.03);
  EXPECT_EQ(pw.voltage_transition_cycles(), 65u);
  EXPECT_EQ(pw.freq_relock_cycles(), 12u);

  const erapid::fault::FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_DOUBLE_EQ(plan.ctrl_drop_prob, 0.0);

  const SimOptions def;
  EXPECT_EQ(def.pattern, erapid::traffic::PatternKind::Uniform);
  EXPECT_DOUBLE_EQ(def.hotspot_fraction, 0.2);
  EXPECT_EQ(def.hotspot_node, 0u);
  EXPECT_DOUBLE_EQ(def.load_fraction, 0.5);
  EXPECT_EQ(def.seed, 1u);
  EXPECT_EQ(def.warmup_cycles, 20000u);
  EXPECT_EQ(def.measure_cycles, 30000u);
  EXPECT_EQ(def.drain_limit, 150000u);
}

// Serialize → parse → serialize must be a fixed point: any field dropped or
// renamed by one direction of the round-trip shows up as INI-text drift.
TEST(OptionsIo, SerializeParseSerializeIsIdempotent) {
  SimOptions o;
  o.system.boards = 4;
  o.reconfig.mode = erapid::reconfig::NetworkMode::p_b();
  o.reconfig.dpm_strategy = erapid::reconfig::DpmStrategyKind::Hysteresis;
  o.fault = erapid::fault::FaultPlan::parse_events("lane_fail@5000:d2:w1");

  std::ostringstream first, second;
  options_to_ini(o).save(first);
  options_to_ini(options_from_ini(options_to_ini(o))).save(second);
  EXPECT_EQ(first.str(), second.str());
}

// Same fixed point with the survivability section populated: every
// degrade.* key must serialize, parse back, and serialize again to the
// exact same text. The section only appears when a policy is set.
TEST(OptionsIo, DegradeKeysSurviveSerializeParseSerialize) {
  SimOptions o;
  o.reconfig.mode = erapid::reconfig::NetworkMode::p_b();
  o.obs.enabled = true;
  o.obs.monitors.power_cap_mw = 250.0;
  o.obs.monitors.throughput_floor = 0.4;
  o.degrade.power_cap = erapid::resilience::ResponsePolicy::Shed;
  o.degrade.throughput_floor = erapid::resilience::ResponsePolicy::Record;
  o.degrade.cooldown_cycles = 1500;
  o.degrade.recover_margin = 0.75;
  o.degrade.recover_cycles = 6000;
  o.degrade.shed_step = 3;
  o.degrade.max_shed_fraction = 0.25;

  std::ostringstream first, second;
  options_to_ini(o).save(first);
  options_to_ini(options_from_ini(options_to_ini(o))).save(second);
  EXPECT_EQ(first.str(), second.str());
  EXPECT_NE(first.str().find("[degrade]"), std::string::npos);

  const auto back = options_from_ini(options_to_ini(o));
  EXPECT_EQ(back.degrade.power_cap, o.degrade.power_cap);
  EXPECT_EQ(back.degrade.throughput_floor, o.degrade.throughput_floor);
  EXPECT_EQ(back.degrade.cooldown_cycles, 1500u);
  EXPECT_EQ(back.degrade.recover_margin, 0.75);
  EXPECT_EQ(back.degrade.recover_cycles, 6000u);
  EXPECT_EQ(back.degrade.shed_step, 3u);
  EXPECT_EQ(back.degrade.max_shed_fraction, 0.25);
}

TEST(OptionsIo, NoDegradePolicyMeansNoDegradeSection) {
  // The degrade section is serialized only when a policy is configured —
  // a policy-free options object keeps its INI byte-identical to one
  // produced before the section existed.
  const auto text = [] {
    std::ostringstream os;
    options_to_ini(SimOptions{}).save(os);
    return os.str();
  }();
  EXPECT_EQ(text.find("[degrade]"), std::string::npos);
  EXPECT_EQ(text.find("degrade."), std::string::npos);
}

TEST(OptionsIo, UnknownKeyThrows) {
  const auto ini = Ini::parse_string("[system]\nbords = 8\n");  // typo
  EXPECT_THROW(options_from_ini(ini), erapid::ModelInvariantError);
}

TEST(OptionsIo, UnknownObsOrMonitorKeyThrows) {
  EXPECT_THROW(options_from_ini(Ini::parse_string("[obs]\ncounter_intervl = 100\n")),
               erapid::ModelInvariantError);
  EXPECT_THROW(options_from_ini(Ini::parse_string("[monitor]\npower_cap = 100\n")),
               erapid::ModelInvariantError);
}

TEST(OptionsIo, NonPositiveCounterIntervalRejectedAtParseTime) {
  EXPECT_THROW(options_from_ini(Ini::parse_string("[obs]\ncounter_interval = 0\n")),
               erapid::ModelInvariantError);
  EXPECT_THROW(options_from_ini(Ini::parse_string("[obs]\ncounter_interval = -5\n")),
               erapid::ModelInvariantError);
  const auto ok = options_from_ini(Ini::parse_string("[obs]\ncounter_interval = 250\n"));
  EXPECT_EQ(ok.obs.counter_interval, 250u);
}

TEST(OptionsIo, MonitorKeysSurviveRoundTrip) {
  SimOptions o;
  o.obs.monitors.power_cap_mw = 2500.5;
  o.obs.monitors.throughput_floor = 0.35;
  o.obs.monitors.p99_latency_ceiling = 900.0;
  o.obs.monitors.quiescence_deadline = 1200;
  o.obs.monitor_fail_fast = true;
  const auto back = options_from_ini(options_to_ini(o));
  EXPECT_DOUBLE_EQ(back.obs.monitors.power_cap_mw, 2500.5);
  EXPECT_DOUBLE_EQ(back.obs.monitors.throughput_floor, 0.35);
  EXPECT_DOUBLE_EQ(back.obs.monitors.p99_latency_ceiling, 900.0);
  EXPECT_EQ(back.obs.monitors.quiescence_deadline, 1200u);
  EXPECT_TRUE(back.obs.monitor_fail_fast);
  EXPECT_TRUE(back.obs.monitors.any());
}

TEST(OptionsIo, MonitorKeysParseFromIniText) {
  const auto o = options_from_ini(Ini::parse_string(
      "[monitor]\npower_cap_mw = 3000\nquiescence_deadline = 800\n"
      "[obs]\nmonitor_fail_fast = true\n"));
  EXPECT_DOUBLE_EQ(o.obs.monitors.power_cap_mw, 3000.0);
  EXPECT_EQ(o.obs.monitors.quiescence_deadline, 800u);
  EXPECT_DOUBLE_EQ(o.obs.monitors.throughput_floor, 0.0);  // stays disabled
  EXPECT_TRUE(o.obs.monitor_fail_fast);
}

TEST(OptionsIo, NegativeMonitorThresholdsThrow) {
  EXPECT_THROW(options_from_ini(Ini::parse_string("[monitor]\npower_cap_mw = -1\n")),
               erapid::ModelInvariantError);
  EXPECT_THROW(
      options_from_ini(Ini::parse_string("[monitor]\nquiescence_deadline = -10\n")),
      erapid::ModelInvariantError);
}

TEST(OptionsIo, DefaultMonitorsAreAllDisabled) {
  const SimOptions o;
  EXPECT_FALSE(o.obs.monitors.any());
  EXPECT_FALSE(o.obs.monitor_fail_fast);
}

TEST(OptionsIo, TelemetryKeysSurviveRoundTrip) {
  SimOptions o;
  o.obs.enabled = true;
  o.obs.telemetry_path = "run.telemetry.jsonl";
  o.obs.telemetry_window = 1500;
  o.obs.telemetry_top_k = 4;
  o.obs.telemetry_ewma_alpha = 0.4;
  o.obs.telemetry_phase_alpha = 0.3;
  o.obs.telemetry_phase_slack = 0.02;
  o.obs.telemetry_phase_threshold = 0.5;
  o.obs.flight_recorder_depth = 256;
  o.obs.flight_recorder_path = "blackbox.json";
  const auto back = options_from_ini(options_to_ini(o));
  EXPECT_EQ(back.obs.telemetry_path, "run.telemetry.jsonl");
  EXPECT_EQ(back.obs.telemetry_window, 1500u);
  EXPECT_EQ(back.obs.telemetry_top_k, 4u);
  EXPECT_DOUBLE_EQ(back.obs.telemetry_ewma_alpha, 0.4);
  EXPECT_DOUBLE_EQ(back.obs.telemetry_phase_alpha, 0.3);
  EXPECT_DOUBLE_EQ(back.obs.telemetry_phase_slack, 0.02);
  EXPECT_DOUBLE_EQ(back.obs.telemetry_phase_threshold, 0.5);
  EXPECT_EQ(back.obs.flight_recorder_depth, 256u);
  EXPECT_EQ(back.obs.flight_recorder_path, "blackbox.json");
  EXPECT_TRUE(back.obs.telemetry_on());
  EXPECT_TRUE(back.obs.flight_recorder_on());
}

TEST(OptionsIo, TelemetryKeysParseFromIniText) {
  const auto o = options_from_ini(Ini::parse_string(
      "[obs]\nenabled = true\ntelemetry = t.jsonl\ntelemetry_window = 800\n"
      "flight_recorder_depth = 32\nflight_recorder = fr.json\n"));
  EXPECT_EQ(o.obs.telemetry_path, "t.jsonl");
  EXPECT_EQ(o.obs.telemetry_window, 800u);
  EXPECT_EQ(o.obs.flight_recorder_depth, 32u);
  EXPECT_EQ(o.obs.flight_recorder_path, "fr.json");
  EXPECT_TRUE(o.obs.telemetry_on());
}

TEST(OptionsIo, InvalidTelemetryKeysThrow) {
  EXPECT_THROW(options_from_ini(Ini::parse_string("[obs]\ntelemetry_window = 0\n")),
               erapid::ModelInvariantError);
  EXPECT_THROW(options_from_ini(Ini::parse_string("[obs]\ntelemetry_top_k = -1\n")),
               erapid::ModelInvariantError);
  EXPECT_THROW(
      options_from_ini(Ini::parse_string("[obs]\ntelemetry_ewma_alpha = 1.5\n")),
      erapid::ModelInvariantError);
  EXPECT_THROW(
      options_from_ini(Ini::parse_string("[obs]\ntelemetry_phase_slack = -0.1\n")),
      erapid::ModelInvariantError);
  EXPECT_THROW(
      options_from_ini(Ini::parse_string("[obs]\ntelemetry_phase_threshold = 0\n")),
      erapid::ModelInvariantError);
  EXPECT_THROW(
      options_from_ini(Ini::parse_string("[obs]\nflight_recorder_depth = -2\n")),
      erapid::ModelInvariantError);
  // A misspelt telemetry key is rejected like any other unknown key.
  EXPECT_THROW(options_from_ini(Ini::parse_string("[obs]\ntelemetry_windw = 100\n")),
               erapid::ModelInvariantError);
}

TEST(OptionsIo, DefaultTelemetryIsOff) {
  const SimOptions o;
  EXPECT_FALSE(o.obs.telemetry_on());
  EXPECT_FALSE(o.obs.flight_recorder_on());
}

TEST(OptionsIo, BadModeThrows) {
  const auto ini = Ini::parse_string("[reconfig]\nmode = FULL-POWER\n");
  EXPECT_THROW(options_from_ini(ini), erapid::ModelInvariantError);
}

TEST(OptionsIo, BadPatternThrows) {
  const auto ini = Ini::parse_string("[workload]\npattern = zigzag\n");
  EXPECT_THROW(options_from_ini(ini), erapid::ModelInvariantError);
}

TEST(OptionsIo, ThresholdOverridesApplyOnTopOfMode) {
  const auto ini = Ini::parse_string("[reconfig]\nmode = P-B\nl_max = 0.8\n");
  const auto o = options_from_ini(ini);
  EXPECT_DOUBLE_EQ(o.reconfig.mode.dpm.l_max, 0.8);     // overridden
  EXPECT_DOUBLE_EQ(o.reconfig.mode.dpm.l_min, 0.7);     // P-B default kept
}

TEST(OptionsIo, HotspotParamsRoundTrip) {
  SimOptions o;
  o.pattern = erapid::traffic::PatternKind::Hotspot;
  o.hotspot_fraction = 0.35;
  o.hotspot_node = 17;
  const auto back = options_from_ini(options_to_ini(o));
  EXPECT_EQ(back.pattern, erapid::traffic::PatternKind::Hotspot);
  EXPECT_DOUBLE_EQ(back.hotspot_fraction, 0.35);
  EXPECT_EQ(back.hotspot_node, 17u);
}

TEST(OptionsIo, FaultPlanSurvivesRoundTrip) {
  SimOptions o;
  o.fault = erapid::fault::FaultPlan::parse_events(
      "lane_fail@5000:d2:w1 laser_degrade@8000:d3:w2:low:4000 "
      "ctrl_drop@6000:ring:b1:n2 ctrl_drop@7000:chain:b0");
  o.fault.ctrl_drop_prob = 0.125;
  o.fault.seed = 77;
  o.reconfig.ctrl_retry_limit = 5;

  const auto back = options_from_ini(options_to_ini(o));
  ASSERT_EQ(back.fault.events.size(), 4u);
  EXPECT_EQ(back.fault.events, o.fault.events);
  EXPECT_EQ(back.fault.format_events(), o.fault.format_events());
  EXPECT_DOUBLE_EQ(back.fault.ctrl_drop_prob, 0.125);
  EXPECT_EQ(back.fault.seed, 77u);
  EXPECT_EQ(back.reconfig.ctrl_retry_limit, 5u);
}

TEST(OptionsIo, FaultKeysParseFromIniText) {
  const auto ini = Ini::parse_string(
      "[fault]\nevents = lane_fail@100:d1:w1\nctrl_drop_prob = 0.01\nseed = 3\n"
      "[reconfig]\nctrl_retry_limit = 2\n");
  const auto o = options_from_ini(ini);
  ASSERT_EQ(o.fault.events.size(), 1u);
  EXPECT_EQ(o.fault.events[0].kind, erapid::fault::FaultKind::LaneFail);
  EXPECT_DOUBLE_EQ(o.fault.ctrl_drop_prob, 0.01);
  EXPECT_EQ(o.fault.seed, 3u);
  EXPECT_EQ(o.reconfig.ctrl_retry_limit, 2u);
  EXPECT_FALSE(o.fault.empty());

  // Defaults: no fault section at all means an empty (inert) plan.
  const auto clean = options_from_ini(Ini::parse_string(""));
  EXPECT_TRUE(clean.fault.empty());
}

TEST(OptionsIo, SelfHealingKeysSurviveRoundTrip) {
  SimOptions o;
  o.fault = erapid::fault::FaultPlan::parse_events(
      "lane_fail@5000:d2:w1:r9000 bit_error@4500:d2:w2:p0.0005:6000 "
      "rc_crash@7000:b2:r11000");
  o.system.arq_retry_limit = 7;
  o.system.arq_backoff_cycles = 64;
  o.system.arq_nak_cycles = 12;
  o.reconfig.rc_watchdog_cycles = 256;
  o.obs.monitors.max_recovery_cycles = 9000;

  const auto back = options_from_ini(options_to_ini(o));
  ASSERT_EQ(back.fault.events.size(), 3u);
  EXPECT_EQ(back.fault.events, o.fault.events);
  EXPECT_EQ(back.fault.format_events(), o.fault.format_events());
  EXPECT_EQ(back.system.arq_retry_limit, 7u);
  EXPECT_EQ(back.system.arq_backoff_cycles, 64u);
  EXPECT_EQ(back.system.arq_nak_cycles, 12u);
  EXPECT_EQ(back.reconfig.rc_watchdog_cycles, 256u);
  EXPECT_EQ(back.obs.monitors.max_recovery_cycles, 9000u);
  EXPECT_TRUE(back.obs.monitors.any());

  // The serialize → parse → serialize fixed point holds for the new keys.
  std::ostringstream first, second;
  options_to_ini(o).save(first);
  options_to_ini(back).save(second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(OptionsIo, SelfHealingKeysParseFromIniText) {
  const auto o = options_from_ini(Ini::parse_string(
      "[link]\narq_retry_limit = 2\narq_backoff_cycles = 16\narq_nak_cycles = 4\n"
      "[reconfig]\nrc_watchdog_cycles = 96\n"
      "[monitor]\nmax_recovery_cycles = 12000\n"
      "[fault]\nevents = lane_fail@100:d1:w1:r300\n"));
  EXPECT_EQ(o.system.arq_retry_limit, 2u);
  EXPECT_EQ(o.system.arq_backoff_cycles, 16u);
  EXPECT_EQ(o.system.arq_nak_cycles, 4u);
  EXPECT_EQ(o.reconfig.rc_watchdog_cycles, 96u);
  EXPECT_EQ(o.obs.monitors.max_recovery_cycles, 12000u);
  ASSERT_EQ(o.fault.events.size(), 1u);
  EXPECT_EQ(o.fault.events[0].repair_at, 300u);

  EXPECT_THROW(options_from_ini(Ini::parse_string("[link]\narq_retrylimit = 2\n")),
               erapid::ModelInvariantError);
  EXPECT_THROW(
      options_from_ini(Ini::parse_string("[monitor]\nmax_recovery_cycles = -1\n")),
      erapid::ModelInvariantError);
}

TEST(OptionsIo, MalformedFaultEventsThrow) {
  const auto ini = Ini::parse_string("[fault]\nevents = lane_fail@abc:d1:w1\n");
  EXPECT_THROW(options_from_ini(ini), erapid::ModelInvariantError);
}

// ---- workload keys -----------------------------------------------------------

TEST(OptionsIo, WorkloadKeysSurviveRoundTrip) {
  SimOptions o;
  o.workload.kind = erapid::workload::WorkloadKind::AllReduce;
  o.workload.episodes = 5;
  o.workload.volume_packets = 32;
  o.workload.phase_rate = 0.7;
  o.workload.gap_cycles = 512;
  o.workload.horizon_cycles = 90000;
  const auto back = options_from_ini(options_to_ini(o));
  EXPECT_EQ(back.workload, o.workload);

  SimOptions t;
  t.workload.kind = erapid::workload::WorkloadKind::Tenants;
  t.workload.tenants = 7;
  t.workload.tenant_load = 0.15;
  t.workload.tenant_mix = {erapid::traffic::PatternKind::Uniform,
                           erapid::traffic::PatternKind::Transpose,
                           erapid::traffic::PatternKind::Hotspot};
  t.workload.session_cycles = 2500;
  t.workload.session_gap_mean = 900;
  const auto tback = options_from_ini(options_to_ini(t));
  EXPECT_EQ(tback.workload, t.workload);
}

TEST(OptionsIo, WorkloadPhasesGrammarSurvivesRoundTrip) {
  SimOptions o;
  o.workload.kind = erapid::workload::WorkloadKind::Phases;
  o.workload.phases =
      erapid::workload::parse_phase_specs("transpose:32:0.8:512,uniform:4,bitrev:8:0.5");
  const auto back = options_from_ini(options_to_ini(o));
  EXPECT_EQ(back.workload.phases, o.workload.phases);

  std::ostringstream first, second;
  options_to_ini(o).save(first);
  options_to_ini(options_from_ini(options_to_ini(o))).save(second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(OptionsIo, WorkloadSerializeParseSerializeIsIdempotent) {
  SimOptions o;
  o.workload.kind = erapid::workload::WorkloadKind::Beff;
  o.workload.phase_rate = 0.65;
  o.obs.monitors.workload_deadline = 40000;
  std::ostringstream first, second;
  options_to_ini(o).save(first);
  options_to_ini(options_from_ini(options_to_ini(o))).save(second);
  EXPECT_EQ(first.str(), second.str());
  EXPECT_NE(first.str().find("workload_deadline"), std::string::npos);
}

TEST(OptionsIo, UnknownWorkloadKeyOrKindThrows) {
  EXPECT_THROW(options_from_ini(Ini::parse_string("[workload]\nknd = allreduce\n")),
               erapid::ModelInvariantError);
  EXPECT_THROW(options_from_ini(Ini::parse_string("[workload]\nkind = ringreduce\n")),
               erapid::ModelInvariantError);
  EXPECT_THROW(options_from_ini(Ini::parse_string("[workload]\ntenant_mixx = uniform\n")),
               erapid::ModelInvariantError);
}

TEST(OptionsIo, WorkloadCrossFieldValidationRejectsBadConfigs) {
  // phases without kind = phases (and vice versa).
  EXPECT_THROW(
      options_from_ini(Ini::parse_string("[workload]\nphases = uniform:4\n")),
      erapid::ModelInvariantError);
  EXPECT_THROW(options_from_ini(Ini::parse_string("[workload]\nkind = phases\n")),
               erapid::ModelInvariantError);
  // trace_file is exclusive to kind = trace.
  EXPECT_THROW(
      options_from_ini(Ini::parse_string("[workload]\nkind = trace\n")),
      erapid::ModelInvariantError);
  EXPECT_THROW(options_from_ini(Ini::parse_string(
                   "[workload]\nkind = allreduce\ntrace_file = /tmp/x.trace\n")),
               erapid::ModelInvariantError);
  // Range checks.
  EXPECT_THROW(options_from_ini(Ini::parse_string(
                   "[workload]\nkind = allreduce\nphase_rate = 0\n")),
               erapid::ModelInvariantError);
  EXPECT_THROW(options_from_ini(Ini::parse_string(
                   "[workload]\nkind = tenants\ntenant_load = 1.5\n")),
               erapid::ModelInvariantError);
  EXPECT_THROW(options_from_ini(Ini::parse_string(
                   "[workload]\nkind = tenants\ntenants = 0\n")),
               erapid::ModelInvariantError);
  EXPECT_THROW(options_from_ini(Ini::parse_string("[workload]\nepisodes = 0\n")),
               erapid::ModelInvariantError);
  // Monitor deadline must be non-negative.
  EXPECT_THROW(
      options_from_ini(Ini::parse_string("[monitor]\nworkload_deadline = -1\n")),
      erapid::ModelInvariantError);
}

TEST(OptionsIo, WorkloadKindNamesRoundTripThroughParser) {
  const char* names[] = {"bernoulli", "allreduce", "alltoall",     "phases", "ptrans",
                         "fft",       "randomaccess", "beff", "tenants"};
  for (const char* name : names) {
    const auto kind = erapid::workload::parse_kind(name);
    ASSERT_TRUE(kind.has_value()) << name;
    EXPECT_EQ(erapid::workload::kind_name(*kind), name);
  }
  EXPECT_FALSE(erapid::workload::parse_kind("stencil").has_value());
}

TEST(OptionsIo, FileRoundTrip) {
  const std::string path = testing::TempDir() + "erapid_opts.ini";
  SimOptions o;
  o.load_fraction = 0.33;
  erapid::sim::save_options(path, o);
  const auto back = load_options(path);
  EXPECT_DOUBLE_EQ(back.load_fraction, 0.33);
  std::remove(path.c_str());
}

// ---- strict codecs ---------------------------------------------------------------

// Parses one `key = value` line of `section`; the value is taken verbatim.
SimOptions parse_one(const std::string& section, const std::string& line) {
  return options_from_ini(Ini::parse_string("[" + section + "]\n" + line + "\n"));
}

TEST(OptionsIo, NegativeUnsignedAndCycleValuesThrow) {
  EXPECT_THROW(parse_one("system", "boards = -1"), erapid::ModelInvariantError);
  EXPECT_THROW(parse_one("reconfig", "window = -5"), erapid::ModelInvariantError);
  EXPECT_THROW(parse_one("workload", "seed = -1"), erapid::ModelInvariantError);
  EXPECT_THROW(parse_one("workload", "warmup_cycles = -0"), erapid::ModelInvariantError);
  EXPECT_THROW(parse_one("degrade", "cooldown_cycles = -3"), erapid::ModelInvariantError);
}

TEST(OptionsIo, TrailingGarbageThrows) {
  EXPECT_THROW(parse_one("system", "boards = 8x"), erapid::ModelInvariantError);
  EXPECT_THROW(parse_one("workload", "load = 0.5.5"), erapid::ModelInvariantError);
  EXPECT_THROW(parse_one("reconfig", "window = 2000 cycles"), erapid::ModelInvariantError);
  // A same-line comment is part of the value, so it is garbage too.
  EXPECT_THROW(parse_one("reconfig", "ctrl_retry_limit = 3      ; retries"),
               erapid::ModelInvariantError);
  EXPECT_THROW(parse_one("reconfig", "mode = P-B ; NP-NB | P-NB | NP-B | P-B"),
               erapid::ModelInvariantError);
}

TEST(OptionsIo, NonNumericTextThrows) {
  EXPECT_THROW(parse_one("workload", "load = abc"), erapid::ModelInvariantError);
  EXPECT_THROW(parse_one("system", "boards = eight"), erapid::ModelInvariantError);
  EXPECT_THROW(parse_one("system", "boards = "), erapid::ModelInvariantError);
  EXPECT_THROW(parse_one("workload", "phases = uniform:abc\nkind = phases"),
               erapid::ModelInvariantError);
}

TEST(OptionsIo, NonFiniteRealsThrow) {
  for (const char* v : {"inf", "-inf", "nan", "1e999"}) {
    EXPECT_THROW(parse_one("workload", std::string("load = ") + v), erapid::ModelInvariantError)
        << v;
    EXPECT_THROW(parse_one("monitor", std::string("power_cap_mw = ") + v),
                 erapid::ModelInvariantError)
        << v;
  }
}

TEST(OptionsIo, OutOfRangeUnsignedThrows) {
  EXPECT_THROW(parse_one("system", "boards = 4294967296"), erapid::ModelInvariantError);
  EXPECT_THROW(parse_one("workload", "seed = 18446744073709551616"),
               erapid::ModelInvariantError);
}

TEST(OptionsIo, BoolAcceptsOnlyListedSpellings) {
  for (const char* v : {"true", "1", "yes", "on"}) {
    EXPECT_TRUE(parse_one("obs", std::string("trace_events = ") + v).obs.trace_events) << v;
  }
  for (const char* v : {"false", "0", "no", "off"}) {
    EXPECT_FALSE(parse_one("reconfig", std::string("shutdown_idle = ") + v)
                     .reconfig.mode.dpm.shutdown_idle)
        << v;
  }
  for (const char* v : {"ture", "TRUE", "2", "y", ""}) {
    EXPECT_THROW(parse_one("reconfig", std::string("shutdown_idle = ") + v),
                 erapid::ModelInvariantError)
        << v;
  }
}

// ---- lossless round trip ---------------------------------------------------------

TEST(OptionsIo, RoundTripIsLossless) {
  SimOptions o;
  o.load_fraction = 0.1234567891;
  o.obs.monitors.power_cap_mw = 1234567;
  o.reconfig.mode.dpm.l_min = 1.0 / 3.0;
  o.seed = std::numeric_limits<std::uint64_t>::max();
  o.fault.seed = std::numeric_limits<std::uint64_t>::max();
  o.workload.kind = erapid::workload::WorkloadKind::Phases;
  o.workload.phases = erapid::workload::parse_phase_specs("uniform:4:0.1234567891:7");

  const auto ini = options_to_ini(o);
  EXPECT_EQ(ini.get("workload.load"), "0.1234567891");
  EXPECT_EQ(ini.get("monitor.power_cap_mw"), "1234567");
  EXPECT_EQ(ini.get("workload.seed"), "18446744073709551615");

  const auto back = options_from_ini(ini);
  EXPECT_EQ(back.load_fraction, o.load_fraction);
  EXPECT_EQ(back.obs.monitors.power_cap_mw, o.obs.monitors.power_cap_mw);
  EXPECT_EQ(back.reconfig.mode.dpm.l_min, o.reconfig.mode.dpm.l_min);
  EXPECT_EQ(back.seed, o.seed);
  EXPECT_EQ(back.fault.seed, o.fault.seed);
  EXPECT_EQ(back.workload, o.workload);
  std::ostringstream first, second;
  ini.save(first);
  options_to_ini(back).save(second);
  EXPECT_EQ(first.str(), second.str());
}

// The serialized default configuration, byte for byte. Reals print in
// shortest round-trip form; every default prints as it did under the
// stream formatting this surface used before.
TEST(OptionsIo, DefaultSerializationIsPinned) {
  static const char* const kDefault = R"([des]
queue = heap

[fault]
ctrl_drop_prob = 0
seed = 1

[link]
arq_backoff_cycles = 32
arq_nak_cycles = 8
arq_retry_limit = 4

[monitor]
max_recovery_cycles = 0
p99_latency_ceiling = 0
power_cap_mw = 0
quiescence_deadline = 0
throughput_floor = 0
workload_deadline = 0

[obs]
counter_interval = 500
enabled = false
flight_recorder = flight_recorder.json
flight_recorder_depth = 0
monitor_fail_fast = false
telemetry_ewma_alpha = 0.3
telemetry_phase_alpha = 0.2
telemetry_phase_slack = 0.05
telemetry_phase_threshold = 0.25
telemetry_top_k = 8
telemetry_window = 2000
trace_events = false
trace_format = chrome

[reconfig]
b_max = 0.3
ctrl_retry_limit = 3
dbr_b_max = 0.3
dbr_b_min = 0
dpm_strategy = threshold
ewma_alpha = 0.5
hysteresis_windows = 2
l_max = 0.9
l_min = 0.7
lc_hop_cycles = 4
max_lanes_per_flow = 0
mode = NP-NB
rc_watchdog_cycles = 128
ring_hop_cycles = 16
shutdown_idle = true
window = 2000

[system]
boards = 8
channel_width_bits = 16
clusters = 1
credit_delay = 1
fiber_delay_cycles = 8
flit_bits = 64
injection_queue_packets = 64
nodes_per_board = 8
num_vcs = 4
packet_flits = 8
rx_queue_packets = 8
tx_feed_cycles_per_flit = 1
tx_queue_packets = 16
vc_buffer_flits = 8

[workload]
drain_limit = 150000
episodes = 2
gap_cycles = 256
horizon_cycles = 200000
hotspot_fraction = 0.2
hotspot_node = 0
kind = bernoulli
load = 0.5
measure_cycles = 30000
pattern = uniform
phase_rate = 0.9
seed = 1
session_cycles = 4000
session_gap_mean = 2000
tenant_load = 0.25
tenant_mix = uniform
tenants = 4
volume_packets = 16
warmup_cycles = 20000
)";
  std::ostringstream os;
  options_to_ini(SimOptions{}).save(os);
  EXPECT_EQ(os.str(), kDefault);
}

TEST(OptionsIo, EveryKeyIsUniqueAndItsDefaultParsesBack) {
  std::map<std::string, int> seen;
  for (const auto& key : erapid::sim::option_keys()) {
    EXPECT_EQ(++seen[key.name], 1) << key.name;
    if (key.default_value.empty()) continue;  // "off": the key is simply absent
    const auto dot = key.name.find('.');
    const auto o = parse_one(key.name.substr(0, dot),
                             key.name.substr(dot + 1) + " = " + key.default_value);
    std::ostringstream got, want;
    options_to_ini(o).save(got);
    options_to_ini(SimOptions{}).save(want);
    EXPECT_EQ(got.str(), want.str()) << key.name;
  }
}

// ---- README key reference ---------------------------------------------------------

std::vector<std::string> readme_lines() {
  std::ifstream in(ERAPID_README_PATH);
  EXPECT_TRUE(in.good()) << ERAPID_README_PATH;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// "| `section.key` | default | meaning |" → {key, default cell}; nullopt
// for any other line (the fault grammar table's rows are not keys).
std::optional<std::pair<std::string, std::string>> readme_key_row(const std::string& line) {
  if (line.rfind("| `", 0) != 0) return std::nullopt;
  const auto key_end = line.find("` | ", 3);
  if (key_end == std::string::npos) return std::nullopt;
  const std::string key = line.substr(3, key_end - 3);
  const bool key_like =
      key.find('.') != std::string::npos &&
      key.find_first_not_of("abcdefghijklmnopqrstuvwxyz0123456789_.") == std::string::npos;
  if (!key_like) return std::nullopt;
  const auto cell = key_end + 4;
  return std::pair(key, line.substr(cell, line.find(" |", cell) - cell));
}

// Every `| `section.key` | default | meaning |` row names a table key, every
// table key has a row, and a backticked default is the serialized default
// (a non-backticked one such as *(unset)* means the key is off by default).
TEST(OptionsIo, ReadmeKeyReferenceMatchesKeyTable) {
  std::map<std::string, std::string> defaults;
  for (const auto& key : erapid::sim::option_keys()) defaults[key.name] = key.default_value;

  std::map<std::string, std::string> documented;
  for (const auto& line : readme_lines()) {
    const auto row = readme_key_row(line);
    if (!row) continue;
    const auto& [key, cell] = *row;
    ASSERT_TRUE(defaults.count(key)) << "README documents unknown key " << key;
    const bool ticked = cell.size() > 1 && cell[0] == '`';
    documented[key] = ticked ? cell.substr(1, cell.find('`', 1) - 1) : "";
    EXPECT_EQ(documented[key], defaults[key]) << key << " default in README: " << cell;
  }
  for (const auto& [key, def] : defaults) {
    EXPECT_TRUE(documented.count(key)) << key << " has no README row";
  }
}

TEST(OptionsIo, ReadmeIniExamplesLoad) {
  int blocks = 0;
  std::string block;
  bool in_block = false;
  for (const auto& line : readme_lines()) {
    if (!in_block && line == "```ini") {
      in_block = true;
      block.clear();
    } else if (in_block && line == "```") {
      in_block = false;
      ++blocks;
      EXPECT_NO_THROW((void)options_from_ini(Ini::parse_string(block))) << block;
    } else if (in_block) {
      block += line + "\n";
    }
  }
  EXPECT_GE(blocks, 1);
}

// ---- Recorder ----------------------------------------------------------------

TEST(Recorder, SamplesAtFixedCadence) {
  erapid::topology::SystemConfig cfg;
  cfg.boards = 2;
  cfg.nodes_per_board = 1;
  erapid::reconfig::ReconfigConfig rc;
  erapid::des::Engine engine;
  erapid::sim::Network net(engine, cfg, rc);
  net.start();

  erapid::sim::Recorder rec(engine, net, 100);
  rec.start();
  engine.run_until(1050);
  EXPECT_EQ(rec.samples().size(), 10u);
  EXPECT_EQ(rec.samples()[0].cycle, 100u);
  EXPECT_EQ(rec.samples()[9].cycle, 1000u);
  // Two static lanes at P_high.
  EXPECT_NEAR(rec.samples()[5].power_mw, 2 * 43.03, 1e-9);
  EXPECT_EQ(rec.samples()[5].lanes_lit, 2u);
}

TEST(Recorder, StopHaltsSampling) {
  erapid::topology::SystemConfig cfg;
  cfg.boards = 2;
  cfg.nodes_per_board = 1;
  erapid::reconfig::ReconfigConfig rc;
  erapid::des::Engine engine;
  erapid::sim::Network net(engine, cfg, rc);
  net.start();
  erapid::sim::Recorder rec(engine, net, 50);
  rec.start();
  engine.run_until(200);
  rec.stop();
  engine.run_until(1000);
  EXPECT_EQ(rec.samples().size(), 4u);
}

TEST(Recorder, CsvExport) {
  erapid::topology::SystemConfig cfg;
  cfg.boards = 2;
  cfg.nodes_per_board = 1;
  erapid::reconfig::ReconfigConfig rc;
  erapid::des::Engine engine;
  erapid::sim::Network net(engine, cfg, rc);
  net.start();
  erapid::sim::Recorder rec(engine, net, 100);
  rec.start();
  engine.run_until(500);
  const std::string path = testing::TempDir() + "erapid_rec.csv";
  rec.write_csv(path);
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "cycle,power_mw,lanes_lit,delivered,backlog,grants,dvs_changes");
  int rows = 0;
  std::string line;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 5);
  std::remove(path.c_str());
}

TEST(Recorder, AggregatesPower) {
  erapid::topology::SystemConfig cfg;
  cfg.boards = 2;
  cfg.nodes_per_board = 1;
  erapid::reconfig::ReconfigConfig rc;
  erapid::des::Engine engine;
  erapid::sim::Network net(engine, cfg, rc);
  net.start();
  erapid::sim::Recorder rec(engine, net, 100);
  rec.start();
  engine.run_until(500);
  EXPECT_NEAR(rec.sampled_avg_power(), 2 * 43.03, 1e-9);
  EXPECT_NEAR(rec.peak_power(), 2 * 43.03, 1e-9);
}

// ---- JSON report ---------------------------------------------------------------

TEST(Report, JsonContainsKeyFields) {
  erapid::sim::SimResult r;
  r.accepted_fraction = 0.5;
  r.latency_avg = 123.5;
  r.power_avg_mw = 999.25;
  r.drained = true;
  r.control.lane_grants = 7;
  const auto json = erapid::sim::to_json(r);
  EXPECT_NE(json.find("\"accepted_fraction\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"latency_avg\": 123.5"), std::string::npos);
  EXPECT_NE(json.find("\"drained\": true"), std::string::npos);
  EXPECT_NE(json.find("\"lane_grants\": 7"), std::string::npos);
}

TEST(Report, NamedResultsDocument) {
  erapid::sim::SimResult a, b;
  a.accepted_fraction = 0.1;
  b.accepted_fraction = 0.2;
  const auto doc = erapid::sim::results_to_json({{"NP-NB", a}, {"P-B", b}});
  EXPECT_NE(doc.find("\"name\": \"NP-NB\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\": \"P-B\""), std::string::npos);
  EXPECT_NE(doc.find("\"results\""), std::string::npos);
}

TEST(Report, WriteFileRoundTrip) {
  const std::string path = testing::TempDir() + "erapid_report.json";
  erapid::sim::SimResult r;
  erapid::sim::write_results_json(path, {{"x", r}});
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("\"x\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
