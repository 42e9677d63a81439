#include "sim/options_io.hpp"

#include <algorithm>
#include <functional>
#include <optional>
#include <string_view>
#include <type_traits>
#include <utility>

#include "util/expect.hpp"
#include "util/number_text.hpp"
#include "workload/spec.hpp"

namespace erapid::sim {

namespace {

// ---- codecs: one INI value string ⇄ one typed value --------------------------

template <class T>
struct Codec {
  ValueKind kind;
  T (*parse)(std::string_view key, const std::string& text);
  std::string (*format)(const T& value);
};

template <class T>
T parse_unsigned(std::string_view key, const std::string& text) {
  const auto v = util::parse_unsigned<T>(text);
  ERAPID_EXPECT(v.has_value(),
                key << " must be an unsigned integer in range, got '" << text << "'");
  return *v;
}

double parse_real(std::string_view key, const std::string& text) {
  const auto v = util::parse_real(text);
  ERAPID_EXPECT(v.has_value(), key << " must be a finite real, got '" << text << "'");
  return *v;
}

bool parse_bool(std::string_view key, const std::string& text) {
  const auto v = util::parse_bool(text);
  ERAPID_EXPECT(v.has_value(),
                key << " must be " << util::kBoolSpellings << ", got '" << text << "'");
  return *v;
}

/// Unwraps a by-name lookup; nullopt means the name is unknown.
template <class T>
T known(std::string_view key, const std::string& text, std::optional<T> v) {
  ERAPID_EXPECT(v.has_value(), "unknown " << key << ": '" << text << "'");
  return *v;
}

std::optional<reconfig::NetworkMode> mode_named(std::string_view name) {
  using reconfig::NetworkMode;
  for (const NetworkMode& m :
       {NetworkMode::np_nb(), NetworkMode::p_nb(), NetworkMode::np_b(), NetworkMode::p_b()}) {
    if (m.name == name) return m;
  }
  return std::nullopt;
}

std::optional<reconfig::DpmStrategyKind> strategy_named(std::string_view name) {
  using reconfig::DpmStrategyKind;
  for (const DpmStrategyKind k :
       {DpmStrategyKind::Threshold, DpmStrategyKind::Hysteresis, DpmStrategyKind::Ewma}) {
    if (reconfig::to_string(k) == name) return k;
  }
  return std::nullopt;
}

using Policy = std::optional<resilience::ResponsePolicy>;
using Events = std::vector<fault::FaultEvent>;
using Phases = std::vector<workload::PhaseSpec>;
using PatternMix = std::vector<traffic::PatternKind>;

constexpr Codec<std::uint32_t> kU32{ValueKind::Unsigned, parse_unsigned<std::uint32_t>,
                                    util::format_number<std::uint32_t>};
constexpr Codec<std::uint64_t> kU64{ValueKind::Unsigned, parse_unsigned<std::uint64_t>,
                                    util::format_number<std::uint64_t>};
constexpr Codec<double> kReal{ValueKind::Real, parse_real, util::format_number<double>};
constexpr Codec<bool> kBool{ValueKind::Bool, parse_bool,
                            [](const bool& v) { return std::string(v ? "true" : "false"); }};
constexpr Codec<std::string> kText{ValueKind::Text,
                                   [](std::string_view, const std::string& s) { return s; },
                                   [](const std::string& s) { return s; }};

constexpr Codec<reconfig::NetworkMode> kMode{
    ValueKind::Text,
    [](std::string_view key, const std::string& s) { return known(key, s, mode_named(s)); },
    [](const reconfig::NetworkMode& m) { return std::string(m.name); }};
constexpr Codec<reconfig::DpmStrategyKind> kStrategy{
    ValueKind::Text,
    [](std::string_view key, const std::string& s) { return known(key, s, strategy_named(s)); },
    [](const reconfig::DpmStrategyKind& k) { return std::string(reconfig::to_string(k)); }};
constexpr Codec<des::QueueKind> kQueue{
    ValueKind::Text,
    [](std::string_view, const std::string& s) { return des::parse_queue_kind(s); },
    [](const des::QueueKind& k) { return std::string(des::queue_kind_name(k)); }};
constexpr Codec<traffic::PatternKind> kPattern{
    ValueKind::Text,
    [](std::string_view key, const std::string& s) {
      return known(key, s, traffic::parse_pattern(s));
    },
    [](const traffic::PatternKind& p) { return std::string(traffic::pattern_name(p)); }};
constexpr Codec<workload::WorkloadKind> kKind{
    ValueKind::Text,
    [](std::string_view key, const std::string& s) {
      return known(key, s, workload::parse_kind(s));
    },
    [](const workload::WorkloadKind& k) { return std::string(workload::kind_name(k)); }};
constexpr Codec<Policy> kPolicy{
    ValueKind::Text,
    [](std::string_view, const std::string& s) { return Policy(resilience::parse_policy(s)); },
    [](const Policy& p) { return p ? std::string(resilience::policy_name(*p)) : std::string(); }};
constexpr Codec<Events> kEvents{
    ValueKind::Text,
    [](std::string_view, const std::string& s) { return fault::FaultPlan::parse_events(s).events; },
    [](const Events& events) {
      fault::FaultPlan plan;
      plan.events = events;
      return plan.format_events();
    }};
constexpr Codec<Phases> kPhases{
    ValueKind::Text,
    [](std::string_view, const std::string& s) { return workload::parse_phase_specs(s); },
    [](const Phases& p) { return workload::format_phase_specs(p); }};
constexpr Codec<PatternMix> kPatternMix{
    ValueKind::Text,
    [](std::string_view, const std::string& s) { return workload::parse_pattern_mix(s); },
    [](const PatternMix& m) { return workload::format_pattern_mix(m); }};

// ---- per-key range checks: the violated rule, or nullptr ----------------------

constexpr auto any_value = [](const auto&) -> const char* { return nullptr; };
constexpr auto positive = [](const auto& v) -> const char* {
  return v > 0 ? nullptr : "must be positive";
};
constexpr auto non_negative = [](const double& v) -> const char* {
  return v >= 0.0 ? nullptr : "cannot be negative";
};
constexpr auto unit_weight = [](const double& v) -> const char* {
  return v > 0.0 && v <= 1.0 ? nullptr : "must be in (0, 1]";
};
constexpr auto non_empty = [](const std::string& v) -> const char* {
  return v.empty() ? "cannot be empty" : nullptr;
};
constexpr auto trace_format = [](const std::string& v) -> const char* {
  return v == "chrome" || v == "csv" ? nullptr : "must be chrome or csv";
};

// ---- emit-when predicates ------------------------------------------------------
//
// A key whose value means "off" stays out of the serialized config, which
// also keeps every written config valid on reload (phases only with
// kind = phases, trace_file only with kind = trace). The degrade section
// appears only when a policy is set: its knobs mean nothing without one,
// and policy-free configs stay byte-identical to pre-resilience ones.

constexpr auto always = [](const SimOptions&, const auto&) { return true; };
constexpr auto if_non_empty = [](const SimOptions&, const auto& v) { return !v.empty(); };
constexpr auto if_policy = [](const SimOptions&, const Policy& p) { return p.has_value(); };
constexpr auto if_degrade = [](const SimOptions& o, const auto&) { return o.degrade.any(); };

// ---- the key table ---------------------------------------------------------------

struct KeySpec {
  std::string_view key;
  ValueKind kind;
  std::function<void(SimOptions&, const std::string&)> apply;  ///< parse, check, store
  std::function<std::string(const SimOptions&)> format;
  std::function<bool(const SimOptions&)> emitted;
};

/// Accessor for the SimOptions member a row binds, const or not.
#define ERAPID_FIELD(path) [](auto& o) -> auto& { return o.path; }

template <class Field, class T, class Check = decltype(any_value),
          class When = decltype(always)>
KeySpec row(std::string_view key, Field field, Codec<T> codec, Check check = any_value,
            When when = always) {
  using Member = std::remove_cvref_t<decltype(field(std::declval<SimOptions&>()))>;
  static_assert(std::is_same_v<Member, T>, "codec type must match the bound member");
  return {key, codec.kind,
          [=](SimOptions& o, const std::string& text) {
            T v = codec.parse(key, text);
            const char* broken = check(v);
            ERAPID_EXPECT(broken == nullptr, key << ' ' << broken << ", got '" << text << "'");
            field(o) = std::move(v);
          },
          [=](const SimOptions& o) { return codec.format(field(o)); },
          [=](const SimOptions& o) { return when(o, field(o)); }};
}

// Rows apply in this order, whatever the INI order: reconfig.mode resets
// the whole DPM/DBR policy, so the threshold overrides must follow it.
const std::vector<KeySpec>& table() {
  static const std::vector<KeySpec> rows = {
      row("system.clusters", ERAPID_FIELD(system.clusters), kU32),
      row("system.boards", ERAPID_FIELD(system.boards), kU32),
      row("system.nodes_per_board", ERAPID_FIELD(system.nodes_per_board), kU32),
      row("system.channel_width_bits", ERAPID_FIELD(system.channel_width_bits), kU32),
      row("system.flit_bits", ERAPID_FIELD(system.flit_bits), kU32),
      row("system.packet_flits", ERAPID_FIELD(system.packet_flits), kU32),
      row("system.num_vcs", ERAPID_FIELD(system.num_vcs), kU32),
      row("system.vc_buffer_flits", ERAPID_FIELD(system.vc_buffer_flits), kU32),
      row("system.credit_delay", ERAPID_FIELD(system.credit_delay), kU32),
      row("system.tx_queue_packets", ERAPID_FIELD(system.tx_queue_packets), kU32),
      row("system.rx_queue_packets", ERAPID_FIELD(system.rx_queue_packets), kU32),
      row("system.fiber_delay_cycles", ERAPID_FIELD(system.fiber_delay_cycles), kU32),
      row("system.tx_feed_cycles_per_flit", ERAPID_FIELD(system.tx_feed_cycles_per_flit), kU32),
      row("system.injection_queue_packets", ERAPID_FIELD(system.injection_queue_packets), kU32),

      row("reconfig.mode", ERAPID_FIELD(reconfig.mode), kMode),
      row("reconfig.window", ERAPID_FIELD(reconfig.window), kU64),
      row("reconfig.ring_hop_cycles", ERAPID_FIELD(reconfig.ring_hop_cycles), kU64),
      row("reconfig.lc_hop_cycles", ERAPID_FIELD(reconfig.lc_hop_cycles), kU64),
      row("reconfig.dpm_strategy", ERAPID_FIELD(reconfig.dpm_strategy), kStrategy),
      row("reconfig.hysteresis_windows", ERAPID_FIELD(reconfig.dpm_params.hysteresis_windows),
          kU32),
      row("reconfig.ewma_alpha", ERAPID_FIELD(reconfig.dpm_params.ewma_alpha), kReal),
      row("reconfig.l_min", ERAPID_FIELD(reconfig.mode.dpm.l_min), kReal),
      row("reconfig.l_max", ERAPID_FIELD(reconfig.mode.dpm.l_max), kReal),
      row("reconfig.b_max", ERAPID_FIELD(reconfig.mode.dpm.b_max), kReal),
      row("reconfig.dbr_b_min", ERAPID_FIELD(reconfig.mode.dbr.b_min), kReal),
      row("reconfig.dbr_b_max", ERAPID_FIELD(reconfig.mode.dbr.b_max), kReal),
      row("reconfig.max_lanes_per_flow", ERAPID_FIELD(reconfig.mode.dbr.max_lanes_per_flow),
          kU32),
      row("reconfig.shutdown_idle", ERAPID_FIELD(reconfig.mode.dpm.shutdown_idle), kBool),
      row("reconfig.ctrl_retry_limit", ERAPID_FIELD(reconfig.ctrl_retry_limit), kU32),
      row("reconfig.rc_watchdog_cycles", ERAPID_FIELD(reconfig.rc_watchdog_cycles), kU64),

      row("link.arq_retry_limit", ERAPID_FIELD(system.arq_retry_limit), kU32),
      row("link.arq_backoff_cycles", ERAPID_FIELD(system.arq_backoff_cycles), kU32),
      row("link.arq_nak_cycles", ERAPID_FIELD(system.arq_nak_cycles), kU32),

      row("fault.events", ERAPID_FIELD(fault.events), kEvents, any_value, if_non_empty),
      row("fault.ctrl_drop_prob", ERAPID_FIELD(fault.ctrl_drop_prob), kReal),
      row("fault.seed", ERAPID_FIELD(fault.seed), kU64),

      row("des.queue", ERAPID_FIELD(des_queue), kQueue),

      row("workload.pattern", ERAPID_FIELD(pattern), kPattern),
      row("workload.hotspot_fraction", ERAPID_FIELD(hotspot_fraction), kReal),
      row("workload.hotspot_node", ERAPID_FIELD(hotspot_node), kU32),
      row("workload.load", ERAPID_FIELD(load_fraction), kReal),
      row("workload.seed", ERAPID_FIELD(seed), kU64),
      row("workload.warmup_cycles", ERAPID_FIELD(warmup_cycles), kU64),
      row("workload.measure_cycles", ERAPID_FIELD(measure_cycles), kU64),
      row("workload.drain_limit", ERAPID_FIELD(drain_limit), kU64),
      row("workload.kind", ERAPID_FIELD(workload.kind), kKind),
      row("workload.episodes", ERAPID_FIELD(workload.episodes), kU32),
      row("workload.volume_packets", ERAPID_FIELD(workload.volume_packets), kU32),
      row("workload.phase_rate", ERAPID_FIELD(workload.phase_rate), kReal),
      row("workload.gap_cycles", ERAPID_FIELD(workload.gap_cycles), kU64),
      row("workload.phases", ERAPID_FIELD(workload.phases), kPhases, any_value, if_non_empty),
      row("workload.tenants", ERAPID_FIELD(workload.tenants), kU32),
      row("workload.tenant_load", ERAPID_FIELD(workload.tenant_load), kReal),
      row("workload.tenant_mix", ERAPID_FIELD(workload.tenant_mix), kPatternMix),
      row("workload.session_cycles", ERAPID_FIELD(workload.session_cycles), kU64),
      row("workload.session_gap_mean", ERAPID_FIELD(workload.session_gap_mean), kU64),
      row("workload.horizon_cycles", ERAPID_FIELD(workload.horizon_cycles), kU64),
      row("workload.trace_file", ERAPID_FIELD(workload.trace_file), kText, any_value,
          if_non_empty),

      row("obs.enabled", ERAPID_FIELD(obs.enabled), kBool),
      row("obs.trace", ERAPID_FIELD(obs.trace_path), kText, any_value, if_non_empty),
      row("obs.trace_format", ERAPID_FIELD(obs.trace_format), kText, trace_format),
      row("obs.counter_interval", ERAPID_FIELD(obs.counter_interval), kU64, positive),
      row("obs.trace_events", ERAPID_FIELD(obs.trace_events), kBool),
      row("obs.monitor_fail_fast", ERAPID_FIELD(obs.monitor_fail_fast), kBool),
      row("obs.telemetry", ERAPID_FIELD(obs.telemetry_path), kText, any_value, if_non_empty),
      row("obs.telemetry_window", ERAPID_FIELD(obs.telemetry_window), kU64, positive),
      row("obs.telemetry_top_k", ERAPID_FIELD(obs.telemetry_top_k), kU32, positive),
      row("obs.telemetry_ewma_alpha", ERAPID_FIELD(obs.telemetry_ewma_alpha), kReal, unit_weight),
      row("obs.telemetry_phase_alpha", ERAPID_FIELD(obs.telemetry_phase_alpha), kReal,
          unit_weight),
      row("obs.telemetry_phase_slack", ERAPID_FIELD(obs.telemetry_phase_slack), kReal,
          non_negative),
      row("obs.telemetry_phase_threshold", ERAPID_FIELD(obs.telemetry_phase_threshold), kReal,
          positive),
      row("obs.flight_recorder_depth", ERAPID_FIELD(obs.flight_recorder_depth), kU64),
      row("obs.flight_recorder", ERAPID_FIELD(obs.flight_recorder_path), kText, non_empty),

      // Disabled checks (threshold 0) serialize too, so every dumped
      // config shows the full monitor surface.
      row("monitor.power_cap_mw", ERAPID_FIELD(obs.monitors.power_cap_mw), kReal, non_negative),
      row("monitor.throughput_floor", ERAPID_FIELD(obs.monitors.throughput_floor), kReal,
          non_negative),
      row("monitor.p99_latency_ceiling", ERAPID_FIELD(obs.monitors.p99_latency_ceiling), kReal,
          non_negative),
      row("monitor.quiescence_deadline", ERAPID_FIELD(obs.monitors.quiescence_deadline), kU64),
      row("monitor.max_recovery_cycles", ERAPID_FIELD(obs.monitors.max_recovery_cycles), kU64),
      row("monitor.workload_deadline", ERAPID_FIELD(obs.monitors.workload_deadline), kU64),

      row("degrade.power_cap", ERAPID_FIELD(degrade.power_cap), kPolicy, any_value, if_policy),
      row("degrade.throughput_floor", ERAPID_FIELD(degrade.throughput_floor), kPolicy, any_value,
          if_policy),
      row("degrade.p99_ceiling", ERAPID_FIELD(degrade.p99_ceiling), kPolicy, any_value,
          if_policy),
      row("degrade.recovery_deadline", ERAPID_FIELD(degrade.recovery_deadline), kPolicy,
          any_value, if_policy),
      row("degrade.cooldown_cycles", ERAPID_FIELD(degrade.cooldown_cycles), kU64, any_value,
          if_degrade),
      row("degrade.recover_margin", ERAPID_FIELD(degrade.recover_margin), kReal, any_value,
          if_degrade),
      row("degrade.recover_cycles", ERAPID_FIELD(degrade.recover_cycles), kU64, any_value,
          if_degrade),
      row("degrade.shed_step", ERAPID_FIELD(degrade.shed_step), kU32, any_value, if_degrade),
      row("degrade.max_shed_fraction", ERAPID_FIELD(degrade.max_shed_fraction), kReal, any_value,
          if_degrade),
  };
  return rows;
}

#undef ERAPID_FIELD

}  // namespace

SimOptions options_from_ini(const util::Ini& ini) {
  // Reject typos loudly: every present key must be a table row.
  for (const auto& [key, value] : ini.entries()) {
    ERAPID_EXPECT(std::any_of(table().begin(), table().end(),
                              [&](const KeySpec& k) { return k.key == key; }),
                  "unknown config key: '" << key << "'");
  }
  SimOptions o;
  for (const KeySpec& k : table()) {
    if (const auto text = ini.get(std::string(k.key))) k.apply(o, *text);
  }
  // Cross-field validation (workload kind vs phases/trace_file; degrade
  // policies vs armed monitor checks and DBR) — rejects a bad sweep config
  // at parse time, before any simulation runs.
  o.workload.validate();
  o.degrade.validate(o.obs, o.reconfig.mode.bandwidth_reconfig);
  return o;
}

SimOptions load_options(const std::string& path) {
  return options_from_ini(util::Ini::load_file(path));
}

util::Ini options_to_ini(const SimOptions& o) {
  util::Ini ini;
  for (const KeySpec& k : table()) {
    if (k.emitted(o)) ini.set(std::string(k.key), k.format(o));
  }
  return ini;
}

void save_options(const std::string& path, const SimOptions& opts) {
  options_to_ini(opts).save_file(path);
}

std::vector<OptionKey> option_keys() {
  const SimOptions def;
  std::vector<OptionKey> keys;
  for (const KeySpec& k : table()) keys.push_back({std::string(k.key), k.kind, k.format(def)});
  return keys;
}

}  // namespace erapid::sim
