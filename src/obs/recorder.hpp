#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/attribution.hpp"
#include "obs/decision_log.hpp"
#include "obs/migration_log.hpp"
#include "obs/overhead_meter.hpp"
#include "obs/rebalance_log.hpp"
#include "obs/segment_table.hpp"
#include "obs/share_log.hpp"
#include "obs/span.hpp"
#include "obs/speed_timeline.hpp"
#include "obs/trace.hpp"
#include "obs/tuning_log.hpp"
#include "util/stats.hpp"

namespace speedbal::obs {

/// Chrome-trace track layout for cluster runs: node n's core c renders as
/// track kNodeTrackBase + n * kNodeTrackStride + c, one labelled row per
/// (node, core); the rebalancer's own instants live on kClusterTrack. Kept
/// well above the single-machine layout (cores on their own ids, dispatch
/// 999, workers 1000+).
inline constexpr int kNodeTrackBase = 100000;
inline constexpr int kNodeTrackStride = 128;
inline constexpr int kClusterTrack = 99999;

/// The observability facade for one recorded run, shared by the simulator
/// and the native balancer: one CappedLog per record kind (free-form trace
/// events, speed samples, decisions, migrations, request spans, serve drops,
/// run segments, rebalance/share/tuning epochs), named aggregate counters, and
/// free-form metadata. Exports a Chrome trace-event JSON file (loadable in
/// chrome://tracing / Perfetto) and a flat JSON run report.
///
/// Producers hold a RunRecorder* that is null when observability is off, so
/// the disabled cost is a pointer test; every member is internally
/// synchronized, so sim code, the native balancer worker thread, and the
/// exporting thread need no external locking.
class RunRecorder {
 public:
  TraceCollector& trace() { return trace_; }
  const TraceCollector& trace() const { return trace_; }
  SpeedTimeline& timeline() { return timeline_; }
  const SpeedTimeline& timeline() const { return timeline_; }
  /// The managed cores, defining the meaning of each per-core slot of a
  /// SpeedSample. Set by the balancer that attaches the recorder.
  void set_cores(std::vector<int> cores);
  std::vector<int> cores() const;
  DecisionLog& decisions() { return decisions_; }
  const DecisionLog& decisions() const { return decisions_; }
  SpanTable& spans() { return spans_; }
  const SpanTable& spans() const { return spans_; }
  /// Requests the serve runtime dropped; the trace's "drop" instants are
  /// derived from it.
  DropLog& drops() { return drops_; }
  const DropLog& drops() const { return drops_; }
  /// Every migration, simulated or native; the report's "migrations"
  /// section and the trace's "migration" instants are derived from it.
  MigrationLog& migrations() { return migrations_; }
  const MigrationLog& migrations() const { return migrations_; }
  /// Per-task run segments, handed over by the simulated run that kept them
  /// at export time; "run" trace spans are derived from them lazily when
  /// the Chrome trace is written.
  RunSegmentTable& run_segments() { return run_segments_; }
  const RunSegmentTable& run_segments() const { return run_segments_; }
  /// Global (cluster-level) rebalancer epoch log; empty for one-node runs.
  RebalanceLog& rebalances() { return rebalances_; }
  const RebalanceLog& rebalances() const { return rebalances_; }
  /// ShareBalancer repartition epoch log; empty unless SHARE ran.
  ShareLog& shares() { return shares_; }
  const ShareLog& shares() const { return shares_; }
  /// Adaptive-controller tuning epoch log; empty unless --adaptive ran.
  TuningLog& tuning() { return tuning_; }
  const TuningLog& tuning() const { return tuning_; }
  /// Wall time the observability layer itself spent on the hot path (span
  /// capture). End-of-run report export is metered separately in
  /// export_overhead(): it is one bulk copy whose cost scales with
  /// simulated time, not with serving-path work, and folding it in made the
  /// hot-path budget gate trip whenever the simulator itself got faster.
  OverheadMeter& overhead() { return overhead_; }
  const OverheadMeter& overhead() const { return overhead_; }
  /// Wall time spent bulk-exporting results into the recorder at run end.
  OverheadMeter& export_overhead() { return export_overhead_; }
  const OverheadMeter& export_overhead() const { return export_overhead_; }

  /// Free-form run metadata rendered into both exports' headers.
  void set_meta(std::string key, std::string value);
  std::map<std::string, std::string> meta() const;

  /// Named latency histograms (e.g. "request_latency"), rendered as a
  /// percentile summary in the run report's "histograms" map. Re-adding a
  /// name merges into the existing histogram.
  void add_latency_histogram(const std::string& name,
                             const LatencyHistogram& hist);
  std::map<std::string, LatencyHistogram> histograms() const;

  /// Named aggregate counters (e.g. "migrations.speed"). Merged with the
  /// decision log's per-reason counts in the run report's "counters" map.
  void incr(const std::string& name, std::int64_t n = 1);
  void set_counter(const std::string& name, std::int64_t value);
  /// All counters, including the derived "pull_rejected.<reason>" /
  /// "pulls.performed" decision counts.
  std::map<std::string, std::int64_t> counters() const;

  /// Chrome trace export: the free-form trace events plus everything
  /// derived from the logs: "run" and request spans, counter tracks from
  /// the speed timeline ("global speed", "core speed", "queue length"),
  /// and instants for every migration, serve drop, performed pull and
  /// epoch.
  void write_chrome_trace(std::ostream& os) const;

  /// Flat JSON run report: metadata, counters, global-speed statistics, the
  /// per-interval sample array, and the decision log.
  void write_report_json(std::ostream& os) const;

 private:
  TraceCollector trace_;
  SpeedTimeline timeline_;
  DecisionLog decisions_;
  SpanTable spans_;
  DropLog drops_;
  MigrationLog migrations_;
  RunSegmentTable run_segments_;
  RebalanceLog rebalances_;
  ShareLog shares_;
  TuningLog tuning_;
  OverheadMeter overhead_;
  OverheadMeter export_overhead_;

  mutable std::mutex mu_;
  std::vector<int> cores_;
  std::map<std::string, std::string> meta_;
  std::map<std::string, std::int64_t> counters_;
  std::map<std::string, LatencyHistogram> histograms_;
};

/// Write one of the exports to `path` ("-" = stdout). Returns false (and
/// logs) when the file cannot be opened.
bool write_trace_file(const RunRecorder& rec, const std::string& path);
bool write_report_file(const RunRecorder& rec, const std::string& path);

}  // namespace speedbal::obs
