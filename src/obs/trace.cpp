#include "obs/trace.hpp"

#include <algorithm>

#include "util/json.hpp"

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

namespace {

void write_event(JsonWriter& w, const TraceEvent& ev) {
  w.begin_object();
  switch (ev.kind) {
    case EventKind::Counter: w.kv("ph", "C"); break;
    case EventKind::Instant: w.kv("ph", "i"); break;
    case EventKind::Span: w.kv("ph", "X"); break;
    case EventKind::FlowStart: w.kv("ph", "s"); break;
    case EventKind::FlowStep: w.kv("ph", "t"); break;
    case EventKind::FlowEnd: w.kv("ph", "f"); break;
  }
  w.kv("name", ev.name);
  if (!ev.cat.empty()) w.kv("cat", ev.cat);
  w.kv("ts", ev.ts_us);
  if (ev.kind == EventKind::Span) w.kv("dur", ev.dur_us);
  if (ev.kind == EventKind::Instant) w.kv("s", "t");  // Thread-scoped tick.
  if (ev.kind == EventKind::FlowStart || ev.kind == EventKind::FlowStep ||
      ev.kind == EventKind::FlowEnd) {
    w.kv("id", ev.flow_id);
    // Bind the arrow to the enclosing slice rather than the next one.
    if (ev.kind == EventKind::FlowEnd) w.kv("bp", "e");
  }
  w.kv("pid", 0);
  // Counters are process-scoped tracks in the Chrome UI; pin them to tid 0.
  w.kv("tid", ev.kind == EventKind::Counter ? 0 : ev.track);
  if (!ev.num_args.empty() || !ev.str_args.empty()) {
    w.key("args").begin_object();
    for (const auto& [k, v] : ev.num_args) w.kv(k, v);
    for (const auto& [k, v] : ev.str_args) w.kv(k, v);
    w.end_object();
  }
  w.end_object();
}

}  // namespace

void write_chrome_trace(std::ostream& os, const std::vector<TraceEvent>& events,
                        std::string_view process_name,
                        const std::vector<std::pair<int, std::string>>& track_names) {
  // Sort by timestamp (stable: preserves emission order at equal times) so
  // every track's events are time-ordered in the file.
  std::vector<const TraceEvent*> ordered;
  ordered.reserve(events.size());
  for (const auto& ev : events) ordered.push_back(&ev);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     return a->ts_us < b->ts_us;
                   });

  JsonWriter w(os);
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents").begin_array();

  // Metadata records naming the process and the per-core tracks.
  w.begin_object();
  w.kv("ph", "M").kv("name", "process_name").kv("pid", 0).kv("tid", 0);
  w.key("args").begin_object().kv("name", process_name).end_object();
  w.end_object();
  for (const auto& [track, label] : track_names) {
    w.begin_object();
    w.kv("ph", "M").kv("name", "thread_name").kv("pid", 0).kv("tid", track);
    w.key("args").begin_object().kv("name", label).end_object();
    w.end_object();
  }

  for (const TraceEvent* ev : ordered) write_event(w, *ev);
  w.end_array();
  w.end_object();
  os << "\n";
}

}  // namespace speedbal::obs
