#include "step_trace.hpp"

#include <cstdio>
#include <fstream>

namespace perfbench {

StepTrace::StepTrace() : origin_(Clock::now()) {}

int StepTrace::begin(std::string name, int parent) {
  const Clock::time_point now = Clock::now();
  spans_.push_back({std::move(name), now, now, parent});
  return static_cast<int>(spans_.size() - 1);
}

void StepTrace::end(int id) {
  spans_[static_cast<std::size_t>(id)].stop = Clock::now();
}

void StepTrace::step(Clock::time_point start, Clock::time_point stop,
                     unsigned kinds, int parent) {
  const std::int64_t ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
          .count();
  all_.record(ns);
  auto add = [ns](KindStat& k) {
    ++k.steps;
    k.ns += ns;
  };
  if (kinds & kPass) add(pass_);
  if (kinds & kArrival) add(arrival_);
  if (kinds & kCompletion) add(completion_);
  if (kinds == 0) add(other_);

  if (step_index_++ % kKeepEvery != 0) return;
  std::string name = "step";
  if (kinds & kPass) name += ".pass";
  if (kinds & kArrival) name += ".arrival";
  if (kinds & kCompletion) name += ".completion";
  if (kinds == 0) name += ".other";
  spans_.push_back({std::move(name), start, stop, parent});
}

bool StepTrace::write_chrome_trace(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& meta) const {
  std::ofstream os(path);
  if (!os) return false;
  auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  os << "{\"otherData\":{";
  for (std::size_t i = 0; i < meta.size(); ++i)
    os << (i ? "," : "") << '"' << meta[i].first << "\":\"" << meta[i].second
       << '"';
  os << "},\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d}}",
                  i ? ",\n" : "", s.name.c_str(), us(s.start),
                  us(s.stop) - us(s.start), i, s.parent);
    os << buf;
  }
  os << "]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
