#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/capped_log.hpp"
#include "util/json.hpp"

namespace speedbal::obs {

/// Event kinds, mapping onto Chrome trace-event phases: Counter -> "C",
/// Instant -> "i", Span -> "X" (complete event with a duration), and flow
/// arrows FlowStart/FlowStep/FlowEnd -> "s"/"t"/"f" (linking one logical
/// operation — e.g. a request — across tracks; all three share an id).
enum class EventKind { Counter, Instant, Span, FlowStart, FlowStep, FlowEnd };

/// One recorded trace event. Timestamps are microseconds on the run's
/// timebase: simulated time for the simulator, wall time since recorder
/// attach for the native balancer. `track` renders as the Chrome "tid" so
/// per-core activity lines up as one row per core.
struct TraceEvent {
  EventKind kind = EventKind::Instant;
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;   ///< Span only.
  std::int64_t flow_id = 0;  ///< Flow events only: the shared "id".
  int track = 0;
  std::string name;
  std::string cat;
  /// Small sets of numeric and string arguments ("args" in the JSON).
  std::vector<std::pair<std::string, double>> num_args;
  std::vector<std::pair<std::string, std::string>> str_args;
};

/// The free-form trace events no typed recorder log covers: serve load
/// counters and perturbation instants. Everything else in a Chrome trace
/// (run spans, request spans and flows, speed counters, migrations, serve
/// drops, pulls, epochs) is derived from its log at export.
struct TraceCollector : CappedLog<TraceEvent, (1 << 18)> {
  void counter(std::int64_t ts_us, std::string name,
               std::vector<std::pair<std::string, double>> series);
  void instant(std::int64_t ts_us, int track, std::string name, std::string cat,
               std::vector<std::pair<std::string, double>> num_args = {},
               std::vector<std::pair<std::string, std::string>> str_args = {});
};

/// Streams one Chrome trace-event JSON document ({"traceEvents": [...]}),
/// loadable in chrome://tracing and Perfetto, one event at a time. The
/// constructor writes the metadata records: `process_name` labels the
/// single process track and `track_names` (track id -> label) become
/// thread-name records. The caller then writes the events in file order,
/// timestamp order for a trace whose every track is time-ordered, and
/// finish() closes the document.
class ChromeTraceWriter {
 public:
  ChromeTraceWriter(
      std::ostream& os, std::string_view process_name,
      const std::vector<std::pair<int, std::string>>& track_names);

  /// Open one event: its phase, name, category (left out when empty),
  /// timestamp, the kind's own fields (a span's "dur", an instant's thread
  /// scope, a flow's "id"), pid and tid (0 for counters).
  void begin_event(EventKind kind, std::string_view name, std::string_view cat,
                   std::int64_t ts_us, int track, std::int64_t dur_us = 0,
                   std::int64_t flow_id = 0);
  /// The open event's "args" object, opened by the first call: an event
  /// that never calls it has no "args".
  JsonWriter& args();
  /// Close the open event (and its args).
  void end_event();
  /// One free-form event, args and all.
  void event(const TraceEvent& ev);
  void finish();

 private:
  std::ostream& os_;
  JsonWriter w_;
  bool args_open_ = false;
};

}  // namespace speedbal::obs
