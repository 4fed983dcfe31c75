#include "perturb/timeline.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/json.hpp"

namespace speedbal::perturb {

namespace {

/// The kind named `word`; otherwise throws "<unknown> '<word>'" plus the
/// list of valid kinds.
PerturbKind parse_kind(const std::string& word, const char* unknown) {
  if (const auto kind = kPerturbKindNames.find(word)) return *kind;
  throw std::invalid_argument(std::string(unknown) + " '" + word +
                              "' (available: " + kPerturbKindNames.joined() +
                              ")");
}

/// "250ms", "2s", "1500us", bare number = microseconds.
SimTime parse_time(std::string_view text, std::string_view what) {
  std::string s(text);
  double mult = 1.0;
  if (s.size() >= 2 && s.substr(s.size() - 2) == "us") {
    s.resize(s.size() - 2);
  } else if (s.size() >= 2 && s.substr(s.size() - 2) == "ms") {
    mult = static_cast<double>(kMsec);
    s.resize(s.size() - 2);
  } else if (!s.empty() && s.back() == 's') {
    mult = static_cast<double>(kSec);
    s.resize(s.size() - 1);
  }
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size() || v < 0.0)
    throw std::invalid_argument("bad " + std::string(what) + " time: '" +
                                std::string(text) + "'");
  return static_cast<SimTime>(v * mult);
}

double parse_number(std::string_view text, std::string_view what) {
  std::string s(text);
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size())
    throw std::invalid_argument("bad " + std::string(what) + " value: '" +
                                std::string(text) + "'");
  return v;
}

/// How many of `<stem>_us`, `<stem>_ms` and `<stem>_s` the event object
/// `e` holds; the last one found is stored in `out`, in microseconds.
int read_time(const JsonValue& e, const std::string& stem, SimTime& out) {
  int found = 0;
  for (const auto& [suffix, unit] : {std::pair{"_us", kUsec},
                                     std::pair{"_ms", kMsec},
                                     std::pair{"_s", kSec}}) {
    if (const auto v = e.find(stem + suffix)) {
      out = static_cast<SimTime>(v->as_number() * static_cast<double>(unit));
      ++found;
    }
  }
  return found;
}

}  // namespace

std::string PerturbEvent::to_spec() const {
  std::ostringstream os;
  os << "at=" << at << "us " << perturb::to_string(kind);
  if (core >= 0) os << " core=" << core;
  switch (kind) {
    case PerturbKind::Dvfs:
      os << " scale=" << scale;
      break;
    case PerturbKind::DvfsRamp:
      os << " scale=" << scale << " over=" << ramp_over
         << "us steps=" << ramp_steps;
      break;
    case PerturbKind::WorkSpike:
      os << " work=" << static_cast<std::int64_t>(work_us) << "us";
      break;
    case PerturbKind::FailAffinity:
    case PerturbKind::FailProcfs:
      os << " count=" << count << " err=" << err;
      break;
    default:
      break;
  }
  return os.str();
}

void PerturbTimeline::add(PerturbEvent ev) {
  // Insertion sort keeps ties in insertion order (stable replay).
  const auto pos = std::upper_bound(
      events_.begin(), events_.end(), ev,
      [](const PerturbEvent& a, const PerturbEvent& b) { return a.at < b.at; });
  events_.insert(pos, ev);
}

PerturbEvent PerturbTimeline::parse_spec(std::string_view spec) {
  PerturbEvent ev;
  bool have_kind = false;
  std::istringstream tokens{std::string(spec)};
  std::string tok;
  while (tokens >> tok) {
    const auto eq = tok.find('=');
    if (eq == std::string::npos) {
      if (have_kind)
        throw std::invalid_argument("perturb spec has two event kinds: '" +
                                    tok + "' in '" + std::string(spec) + "'");
      ev.kind = parse_kind(tok, "unknown perturbation");
      have_kind = true;
      continue;
    }
    const std::string key = tok.substr(0, eq);
    const std::string value = tok.substr(eq + 1);
    if (key == "at") {
      ev.at = parse_time(value, "at");
    } else if (key == "core") {
      ev.core = static_cast<int>(parse_number(value, "core"));
    } else if (key == "scale") {
      ev.scale = parse_number(value, "scale");
      if (ev.scale <= 0.0)
        throw std::invalid_argument("perturb scale must be > 0, got '" +
                                    value + "'");
    } else if (key == "over") {
      ev.ramp_over = parse_time(value, "over");
    } else if (key == "steps") {
      ev.ramp_steps = static_cast<int>(parse_number(value, "steps"));
      if (ev.ramp_steps < 1)
        throw std::invalid_argument("perturb steps must be >= 1, got '" +
                                    value + "'");
    } else if (key == "work") {
      ev.work_us = static_cast<double>(parse_time(value, "work"));
    } else if (key == "count") {
      ev.count = static_cast<int>(parse_number(value, "count"));
    } else if (key == "err") {
      ev.err = static_cast<int>(parse_number(value, "err"));
    } else {
      throw std::invalid_argument("unknown perturb field '" + key + "' in '" +
                                  std::string(spec) + "'");
    }
  }
  if (!have_kind)
    throw std::invalid_argument("perturb spec missing an event kind in '" +
                                std::string(spec) + "' (available: " +
                                kPerturbKindNames.joined() + ")");
  return ev;
}

PerturbTimeline PerturbTimeline::parse_specs(std::string_view specs) {
  PerturbTimeline tl;
  std::size_t start = 0;
  while (start <= specs.size()) {
    std::size_t end = specs.find(';', start);
    if (end == std::string_view::npos) end = specs.size();
    const std::string_view one = specs.substr(start, end - start);
    if (one.find_first_not_of(" \t") != std::string_view::npos)
      tl.add(parse_spec(one));
    start = end + 1;
  }
  return tl;
}

std::string PerturbTimeline::to_specs() const {
  std::string out;
  for (const PerturbEvent& ev : events_) {
    if (!out.empty()) out += "; ";
    out += ev.to_spec();
  }
  return out;
}

PerturbTimeline PerturbTimeline::parse_json(std::string_view text) {
  const JsonValue doc = JsonValue::parse(std::string(text));
  const std::optional<JsonValue> events = doc.find("events");
  if (!events)
    throw std::invalid_argument("perturb JSON: missing top-level \"events\"");
  PerturbTimeline tl;
  for (const JsonValue& e : events->items()) {
    PerturbEvent ev;
    ev.kind =
        parse_kind(e.at("kind").as_string(), "perturb JSON: unknown kind");
    if (read_time(e, "at", ev.at) != 1)
      throw std::invalid_argument(
          "perturb JSON: each event needs exactly one of at_us/at_ms/at_s");
    if (const auto v = e.find("core"))
      ev.core = static_cast<int>(v->as_int());
    if (const auto v = e.find("scale")) {
      ev.scale = v->as_number();
      if (ev.scale <= 0.0)
        throw std::invalid_argument("perturb JSON: scale must be > 0");
    }
    if (read_time(e, "over", ev.ramp_over) > 1)
      throw std::invalid_argument(
          "perturb JSON: at most one of over_us/over_ms/over_s");
    if (const auto v = e.find("steps")) {
      ev.ramp_steps = static_cast<int>(v->as_int());
      if (ev.ramp_steps < 1)
        throw std::invalid_argument("perturb JSON: steps must be >= 1");
    }
    if (const auto v = e.find("work_us")) ev.work_us = v->as_number();
    if (const auto v = e.find("count"))
      ev.count = static_cast<int>(v->as_int());
    if (const auto v = e.find("err")) ev.err = static_cast<int>(v->as_int());
    tl.add(ev);
  }
  return tl;
}

PerturbTimeline PerturbTimeline::load_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in)
    throw std::invalid_argument("cannot open perturb timeline file '" + path +
                                "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_json(ss.str());
}

}  // namespace speedbal::perturb
