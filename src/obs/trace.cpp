#include "obs/trace.hpp"

namespace speedbal::obs {

void TraceCollector::counter(std::int64_t ts_us, std::string name,
                             std::vector<std::pair<std::string, double>> series) {
  TraceEvent ev;
  ev.kind = EventKind::Counter;
  ev.ts_us = ts_us;
  ev.name = std::move(name);
  ev.num_args = std::move(series);
  add(std::move(ev));
}

void TraceCollector::instant(std::int64_t ts_us, int track, std::string name,
                             std::string cat,
                             std::vector<std::pair<std::string, double>> num_args,
                             std::vector<std::pair<std::string, std::string>> str_args) {
  TraceEvent ev;
  ev.kind = EventKind::Instant;
  ev.ts_us = ts_us;
  ev.track = track;
  ev.name = std::move(name);
  ev.cat = std::move(cat);
  ev.num_args = std::move(num_args);
  ev.str_args = std::move(str_args);
  add(std::move(ev));
}

ChromeTraceWriter::ChromeTraceWriter(
    std::ostream& os, std::string_view process_name,
    const std::vector<std::pair<int, std::string>>& track_names)
    : os_(os), w_(os) {
  w_.begin_object();
  w_.kv("displayTimeUnit", "ms");
  w_.key("traceEvents").begin_array();
  w_.begin_object();
  w_.kv("ph", "M").kv("name", "process_name").kv("pid", 0).kv("tid", 0);
  w_.key("args").begin_object().kv("name", process_name).end_object();
  w_.end_object();
  for (const auto& [track, label] : track_names) {
    w_.begin_object();
    w_.kv("ph", "M").kv("name", "thread_name").kv("pid", 0).kv("tid", track);
    w_.key("args").begin_object().kv("name", label).end_object();
    w_.end_object();
  }
}

void ChromeTraceWriter::begin_event(EventKind kind, std::string_view name,
                                    std::string_view cat, std::int64_t ts_us,
                                    int track, std::int64_t dur_us,
                                    std::int64_t flow_id) {
  w_.begin_object();
  switch (kind) {
    case EventKind::Counter: w_.kv("ph", "C"); break;
    case EventKind::Instant: w_.kv("ph", "i"); break;
    case EventKind::Span: w_.kv("ph", "X"); break;
    case EventKind::FlowStart: w_.kv("ph", "s"); break;
    case EventKind::FlowStep: w_.kv("ph", "t"); break;
    case EventKind::FlowEnd: w_.kv("ph", "f"); break;
  }
  w_.kv("name", name);
  if (!cat.empty()) w_.kv("cat", cat);
  w_.kv("ts", ts_us);
  if (kind == EventKind::Span) w_.kv("dur", dur_us);
  if (kind == EventKind::Instant) w_.kv("s", "t");  // Thread-scoped tick.
  if (kind == EventKind::FlowStart || kind == EventKind::FlowStep ||
      kind == EventKind::FlowEnd) {
    w_.kv("id", flow_id);
    // Bind the arrow to the enclosing slice rather than the next one.
    if (kind == EventKind::FlowEnd) w_.kv("bp", "e");
  }
  w_.kv("pid", 0);
  // Counters are process-scoped tracks in the Chrome UI; pin them to tid 0.
  w_.kv("tid", kind == EventKind::Counter ? 0 : track);
}

JsonWriter& ChromeTraceWriter::args() {
  if (!args_open_) w_.key("args").begin_object();
  args_open_ = true;
  return w_;
}

void ChromeTraceWriter::end_event() {
  if (args_open_) w_.end_object();
  args_open_ = false;
  w_.end_object();
}

void ChromeTraceWriter::event(const TraceEvent& ev) {
  begin_event(ev.kind, ev.name, ev.cat, ev.ts_us, ev.track, ev.dur_us,
              ev.flow_id);
  for (const auto& [k, v] : ev.num_args) args().kv(k, v);
  for (const auto& [k, v] : ev.str_args) args().kv(k, v);
  end_event();
}

void ChromeTraceWriter::finish() {
  w_.end_array();
  w_.end_object();
  os_ << "\n";
}

}  // namespace speedbal::obs
