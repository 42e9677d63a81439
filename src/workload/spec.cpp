#include "workload/spec.hpp"

#include <sstream>

#include "util/expect.hpp"
#include "util/number_text.hpp"

namespace erapid::workload {

std::string_view kind_name(WorkloadKind k) {
  switch (k) {
    case WorkloadKind::Bernoulli: return "bernoulli";
    case WorkloadKind::AllReduce: return "allreduce";
    case WorkloadKind::AllToAll: return "alltoall";
    case WorkloadKind::Phases: return "phases";
    case WorkloadKind::Ptrans: return "ptrans";
    case WorkloadKind::Fft: return "fft";
    case WorkloadKind::RandomAccess: return "randomaccess";
    case WorkloadKind::Beff: return "beff";
    case WorkloadKind::Tenants: return "tenants";
    case WorkloadKind::Trace: return "trace";
  }
  ERAPID_UNREACHABLE("unmodeled workload kind " << static_cast<int>(k));
}

std::optional<WorkloadKind> parse_kind(std::string_view name) {
  for (auto k : {WorkloadKind::Bernoulli, WorkloadKind::AllReduce, WorkloadKind::AllToAll,
                 WorkloadKind::Phases, WorkloadKind::Ptrans, WorkloadKind::Fft,
                 WorkloadKind::RandomAccess, WorkloadKind::Beff, WorkloadKind::Tenants,
                 WorkloadKind::Trace}) {
    if (kind_name(k) == name) return k;
  }
  return std::nullopt;
}

void WorkloadSpec::validate() const {
  ERAPID_EXPECT(episodes >= 1, "workload.episodes must be >= 1, got " << episodes);
  ERAPID_EXPECT(volume_packets >= 1,
                "workload.volume_packets must be >= 1, got " << volume_packets);
  ERAPID_EXPECT(phase_rate > 0.0 && phase_rate <= 16.0,
                "workload.phase_rate must be in (0, 16], got " << phase_rate);
  ERAPID_EXPECT(tenants >= 1 && tenants <= 64,
                "workload.tenants must be in [1, 64], got " << tenants);
  ERAPID_EXPECT(tenant_load > 0.0 && tenant_load <= 1.0,
                "workload.tenant_load must be in (0, 1], got " << tenant_load);
  ERAPID_EXPECT(!tenant_mix.empty(), "workload.tenant_mix must name at least one pattern");
  ERAPID_EXPECT(session_cycles >= 1,
                "workload.session_cycles must be >= 1, got " << session_cycles);
  ERAPID_EXPECT(session_gap_mean >= 1,
                "workload.session_gap_mean must be >= 1, got " << session_gap_mean);
  ERAPID_EXPECT(horizon_cycles >= 1,
                "workload.horizon_cycles must be >= 1, got " << horizon_cycles);
  if (kind == WorkloadKind::Phases) {
    ERAPID_EXPECT(!phases.empty(), "workload.kind=phases needs a workload.phases schedule");
  } else {
    ERAPID_EXPECT(phases.empty(),
                  "workload.phases is only meaningful with workload.kind=phases");
  }
  for (const PhaseSpec& p : phases) {
    ERAPID_EXPECT(p.volume_packets >= 1, "workload.phases: phase volume must be >= 1");
    ERAPID_EXPECT(p.rate >= 0.0 && p.rate <= 16.0,
                  "workload.phases: phase rate must be in [0, 16], got " << p.rate);
  }
  if (kind == WorkloadKind::Trace) {
    ERAPID_EXPECT(!trace_file.empty(), "workload.kind=trace needs workload.trace_file");
  } else {
    ERAPID_EXPECT(trace_file.empty(),
                  "workload.trace_file is only meaningful with workload.kind=trace");
  }
}

namespace {

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream is(text);
  while (std::getline(is, item, sep)) out.push_back(item);
  return out;
}

}  // namespace

std::vector<PhaseSpec> parse_phase_specs(const std::string& text) {
  std::vector<PhaseSpec> out;
  for (const std::string& entry : split(text, ',')) {
    const auto fields = split(entry, ':');
    ERAPID_EXPECT(fields.size() >= 2 && fields.size() <= 4,
                  "workload.phases entry '" + entry +
                      "' is not pattern:volume[:rate[:gap]]");
    PhaseSpec p;
    const auto pat = traffic::parse_pattern(fields[0]);
    ERAPID_EXPECT(pat.has_value(), "workload.phases: unknown pattern '" + fields[0] + "'");
    p.pattern = *pat;
    const auto volume = util::parse_unsigned<std::uint32_t>(fields[1]);
    ERAPID_EXPECT(volume && *volume > 0, "workload.phases: bad volume '" + fields[1] + "'");
    p.volume_packets = *volume;
    if (fields.size() >= 3) {
      const auto rate = util::parse_real(fields[2]);
      ERAPID_EXPECT(rate && *rate >= 0.0, "workload.phases: bad rate '" + fields[2] + "'");
      p.rate = *rate;
    }
    if (fields.size() >= 4) {
      const auto gap = util::parse_unsigned<CycleDelta>(fields[3]);
      ERAPID_EXPECT(gap.has_value(), "workload.phases: bad gap '" + fields[3] + "'");
      p.gap_after = *gap;
    }
    out.push_back(p);
  }
  ERAPID_EXPECT(!out.empty(), "workload.phases must list at least one phase");
  return out;
}

std::string format_phase_specs(const std::vector<PhaseSpec>& specs) {
  std::ostringstream os;
  bool first = true;
  for (const PhaseSpec& p : specs) {
    if (!first) os << ',';
    first = false;
    os << traffic::pattern_name(p.pattern) << ':' << p.volume_packets;
    // Trailing default fields are omitted; a gap forces the rate field so
    // the positional grammar stays unambiguous.
    if (p.rate > 0.0 || p.gap_after > 0) os << ':' << util::format_number(p.rate);
    if (p.gap_after > 0) os << ':' << p.gap_after;
  }
  return os.str();
}

std::vector<traffic::PatternKind> parse_pattern_mix(const std::string& text) {
  std::vector<traffic::PatternKind> out;
  for (const std::string& entry : split(text, ',')) {
    const auto pat = traffic::parse_pattern(entry);
    ERAPID_EXPECT(pat.has_value(), "workload.tenant_mix: unknown pattern '" + entry + "'");
    out.push_back(*pat);
  }
  ERAPID_EXPECT(!out.empty(), "workload.tenant_mix must name at least one pattern");
  return out;
}

std::string format_pattern_mix(const std::vector<traffic::PatternKind>& mix) {
  std::ostringstream os;
  bool first = true;
  for (const traffic::PatternKind k : mix) {
    if (!first) os << ',';
    first = false;
    os << traffic::pattern_name(k);
  }
  return os.str();
}

}  // namespace erapid::workload
