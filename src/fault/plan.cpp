#include "fault/plan.hpp"

#include <cstdlib>
#include <iomanip>
#include <sstream>

#include "util/expect.hpp"
#include "util/number_text.hpp"

namespace erapid::fault {

namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : s) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(cur);
  return out;
}

template <class T = std::uint64_t>
T parse_number(const std::string& tok, const std::string& spec) {
  const auto v = util::parse_unsigned<T>(tok);
  ERAPID_EXPECT(v.has_value(), "bad number '" + tok + "' in fault spec: '" + spec + "'");
  return *v;
}

/// Parses a "<letter><number>" token like "d2" / "w1" / "b0" / "n3".
std::uint32_t parse_tagged(const std::string& tok, char tag, const std::string& spec) {
  ERAPID_EXPECT(tok.size() >= 2 && tok[0] == tag,
                std::string("expected '") + tag + "<n>' in fault spec: '" + spec + "'");
  return parse_number<std::uint32_t>(tok.substr(1), spec);
}

power::PowerLevel parse_cap(const std::string& tok, const std::string& spec) {
  if (tok == "low") return power::PowerLevel::Low;
  if (tok == "mid") return power::PowerLevel::Mid;
  if (tok == "high") return power::PowerLevel::High;
  ERAPID_EXPECT(false, "bad degradation cap '" + tok + "' (low|mid|high) in fault spec: '" +
                           spec + "'");
  return power::PowerLevel::Low;
}

/// Parses a "p<double>" token like "p0.001"; the value must round-trip
/// exactly through format() (17 significant digits).
double parse_ber(const std::string& tok, const std::string& spec) {
  ERAPID_EXPECT(tok.size() >= 2 && tok[0] == 'p',
                "expected 'p<ber>' in fault spec: '" + spec + "'");
  const std::string num = tok.substr(1);
  char* end = nullptr;
  const double v = std::strtod(num.c_str(), &end);
  ERAPID_EXPECT(end == num.c_str() + num.size() && !num.empty(),
                "bad BER '" + num + "' in fault spec: '" + spec + "'");
  ERAPID_EXPECT(v > 0.0 && v <= 1.0,
                "BER must be in (0, 1] in fault spec: '" + spec + "'");
  return v;
}

std::string format_ber(double ber) {
  std::ostringstream os;
  os << std::setprecision(17) << ber;
  return os.str();
}

std::string cap_name(power::PowerLevel cap) {
  switch (cap) {
    case power::PowerLevel::Low: return "low";
    case power::PowerLevel::Mid: return "mid";
    case power::PowerLevel::High: return "high";
    case power::PowerLevel::Off: break;
  }
  ERAPID_UNREACHABLE("degradation cap cannot be OFF");
}

/// True when two events of the same kind fire at the same cycle against
/// the same target — a plan author error the parser rejects outright.
bool collides(const FaultEvent& a, const FaultEvent& b) {
  if (a.kind != b.kind || a.at != b.at) return false;
  switch (a.kind) {
    case FaultKind::LaneFail:
    case FaultKind::LaserDegrade:
    case FaultKind::BitError:
      return a.dest == b.dest && a.wavelength == b.wavelength;
    case FaultKind::CtrlDrop:
      return a.board == b.board && a.target == b.target;
    case FaultKind::RcCrash:
      return a.board == b.board;
  }
  ERAPID_UNREACHABLE("unmodeled fault kind " << static_cast<int>(a.kind));
}

void reject_duplicates(const std::vector<FaultEvent>& events) {
  for (std::size_t i = 0; i < events.size(); ++i) {
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      ERAPID_EXPECT(!collides(events[i], events[j]),
                    "duplicate same-cycle fault on one target: '" + events[i].format() +
                        "' vs '" + events[j].format() + "'");
    }
  }
}

}  // namespace

FaultEvent FaultEvent::parse(const std::string& spec) {
  const auto at_pos = spec.find('@');
  ERAPID_EXPECT(at_pos != std::string::npos, "fault spec missing '@cycle': '" + spec + "'");
  const std::string kind = spec.substr(0, at_pos);
  const auto toks = split(spec.substr(at_pos + 1), ':');
  ERAPID_EXPECT(!toks.empty(), "fault spec missing cycle: '" + spec + "'");

  FaultEvent e;
  e.at = parse_number(toks[0], spec);

  if (kind == "lane_fail") {
    ERAPID_EXPECT(toks.size() == 3 || toks.size() == 4,
                  "lane_fail@<cycle>:d<dest>:w<wavelength>[:r<repair>]: '" + spec + "'");
    e.kind = FaultKind::LaneFail;
    e.dest = BoardId{parse_tagged(toks[1], 'd', spec)};
    e.wavelength = WavelengthId{parse_tagged(toks[2], 'w', spec)};
    if (toks.size() == 4) {
      ERAPID_EXPECT(toks[3].size() >= 2 && toks[3][0] == 'r',
                    "expected 'r<cycle>' in fault spec: '" + spec + "'");
      e.repair_at = parse_number(toks[3].substr(1), spec);
      ERAPID_EXPECT(e.repair_at > e.at,
                    "repair cycle must come strictly after injection: '" + spec + "'");
    }
  } else if (kind == "bit_error") {
    ERAPID_EXPECT(toks.size() == 5,
                  "bit_error@<cycle>:d<dest>:w<wavelength>:p<ber>:<duration>: '" + spec + "'");
    e.kind = FaultKind::BitError;
    e.dest = BoardId{parse_tagged(toks[1], 'd', spec)};
    e.wavelength = WavelengthId{parse_tagged(toks[2], 'w', spec)};
    e.ber = parse_ber(toks[3], spec);
    e.duration = parse_number(toks[4], spec);
  } else if (kind == "rc_crash") {
    ERAPID_EXPECT(toks.size() == 2 || toks.size() == 3,
                  "rc_crash@<cycle>:b<board>[:r<repair>]: '" + spec + "'");
    e.kind = FaultKind::RcCrash;
    e.board = BoardId{parse_tagged(toks[1], 'b', spec)};
    if (toks.size() == 3) {
      ERAPID_EXPECT(toks[2].size() >= 2 && toks[2][0] == 'r',
                    "expected 'r<cycle>' in fault spec: '" + spec + "'");
      e.repair_at = parse_number(toks[2].substr(1), spec);
      ERAPID_EXPECT(e.repair_at > e.at,
                    "repair cycle must come strictly after injection: '" + spec + "'");
    }
  } else if (kind == "laser_degrade") {
    ERAPID_EXPECT(toks.size() == 5,
                  "laser_degrade@<cycle>:d<dest>:w<wavelength>:<low|mid|high>:<duration>: '" +
                      spec + "'");
    e.kind = FaultKind::LaserDegrade;
    e.dest = BoardId{parse_tagged(toks[1], 'd', spec)};
    e.wavelength = WavelengthId{parse_tagged(toks[2], 'w', spec)};
    e.cap = parse_cap(toks[3], spec);
    e.duration = parse_number(toks[4], spec);
  } else if (kind == "ctrl_drop") {
    ERAPID_EXPECT(toks.size() == 3 || toks.size() == 4,
                  "ctrl_drop@<cycle>:<ring|chain>:b<board>[:n<count>]: '" + spec + "'");
    e.kind = FaultKind::CtrlDrop;
    if (toks[1] == "ring") {
      e.target = CtrlTarget::Ring;
    } else if (toks[1] == "chain") {
      e.target = CtrlTarget::Chain;
    } else {
      ERAPID_EXPECT(false, "ctrl_drop target must be ring|chain: '" + spec + "'");
    }
    e.board = BoardId{parse_tagged(toks[2], 'b', spec)};
    e.count = toks.size() == 4 ? parse_tagged(toks[3], 'n', spec) : 1;
    ERAPID_EXPECT(e.count >= 1, "ctrl_drop count must be >= 1: '" + spec + "'");
  } else {
    ERAPID_EXPECT(false, "unknown fault kind '" + kind + "' in spec: '" + spec + "'");
  }
  return e;
}

std::string FaultEvent::format() const {
  std::ostringstream os;
  switch (kind) {
    case FaultKind::LaneFail:
      os << "lane_fail@" << at << ":d" << dest.value() << ":w" << wavelength.value();
      if (repair_at != 0) os << ":r" << repair_at;
      break;
    case FaultKind::BitError:
      os << "bit_error@" << at << ":d" << dest.value() << ":w" << wavelength.value()
         << ":p" << format_ber(ber) << ":" << duration;
      break;
    case FaultKind::RcCrash:
      os << "rc_crash@" << at << ":b" << board.value();
      if (repair_at != 0) os << ":r" << repair_at;
      break;
    case FaultKind::LaserDegrade:
      os << "laser_degrade@" << at << ":d" << dest.value() << ":w" << wavelength.value()
         << ":" << cap_name(cap) << ":" << duration;
      break;
    case FaultKind::CtrlDrop:
      os << "ctrl_drop@" << at << ":" << (target == CtrlTarget::Ring ? "ring" : "chain")
         << ":b" << board.value();
      if (count != 1) os << ":n" << count;
      break;
    default:
      ERAPID_UNREACHABLE("unmodeled fault kind " << static_cast<int>(kind));
  }
  return os.str();
}

FaultPlan FaultPlan::parse_events(const std::string& specs) {
  FaultPlan plan;
  std::string cur;
  auto flush = [&] {
    if (!cur.empty()) {
      plan.events.push_back(FaultEvent::parse(cur));
      cur.clear();
    }
  };
  for (const char c : specs) {
    if (c == ' ' || c == '\t' || c == ',' || c == ';') {
      flush();
    } else {
      cur += c;
    }
  }
  flush();
  reject_duplicates(plan.events);
  return plan;
}

std::string FaultPlan::format_events() const {
  std::string out;
  for (const auto& e : events) {
    if (!out.empty()) out += ' ';
    out += e.format();
  }
  return out;
}

void FaultPlan::validate(const topology::SystemConfig& cfg) const {
  const std::uint32_t B = cfg.num_boards_total();
  const std::uint32_t W = cfg.num_wavelengths();
  for (const auto& e : events) {
    switch (e.kind) {
      case FaultKind::LaneFail:
      case FaultKind::LaserDegrade:
      case FaultKind::BitError:
        ERAPID_EXPECT(e.dest.value() < B, "fault dest board out of range: " + e.format());
        ERAPID_EXPECT(e.wavelength.value() < W,
                      "fault wavelength out of range: " + e.format());
        break;
      case FaultKind::CtrlDrop:
      case FaultKind::RcCrash:
        ERAPID_EXPECT(e.board.value() < B, "fault board out of range: " + e.format());
        break;
      default:
        ERAPID_UNREACHABLE("unmodeled fault kind " << static_cast<int>(e.kind));
    }
    if (e.repair_at != 0) {
      ERAPID_EXPECT(e.repair_at > e.at,
                    "repair cycle must come strictly after injection: " + e.format());
    }
    if (e.kind == FaultKind::BitError) {
      ERAPID_EXPECT(e.ber > 0.0 && e.ber <= 1.0, "BER must be in (0, 1]: " + e.format());
    }
  }
  reject_duplicates(events);
  ERAPID_EXPECT(ctrl_drop_prob >= 0.0 && ctrl_drop_prob <= 1.0,
                "fault.ctrl_drop_prob must be in [0, 1]");
}

}  // namespace erapid::fault
