#include "obs/recorder.hpp"

#include <algorithm>
#include <fstream>
#include <functional>
#include <iostream>

#include "util/json.hpp"
#include "util/log.hpp"

namespace speedbal::obs {

void RunRecorder::set_meta(std::string key, std::string value) {
  std::lock_guard<std::mutex> lock(mu_);
  meta_[std::move(key)] = std::move(value);
}

std::map<std::string, std::string> RunRecorder::meta() const {
  std::lock_guard<std::mutex> lock(mu_);
  return meta_;
}

void RunRecorder::set_cores(std::vector<int> cores) {
  std::lock_guard<std::mutex> lock(mu_);
  cores_ = std::move(cores);
}

std::vector<int> RunRecorder::cores() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cores_;
}

void RunRecorder::add_latency_histogram(const std::string& name,
                                        const LatencyHistogram& hist) {
  std::lock_guard<std::mutex> lock(mu_);
  histograms_[name].merge(hist);
}

std::map<std::string, LatencyHistogram> RunRecorder::histograms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return histograms_;
}

void RunRecorder::incr(const std::string& name, std::int64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += n;
}

void RunRecorder::set_counter(const std::string& name, std::int64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] = value;
}

std::map<std::string, std::int64_t> RunRecorder::counters() const {
  std::map<std::string, std::int64_t> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = counters_;
  }
  const auto counts = decisions_.counts();
  for (std::size_t r = 0; r < counts.size(); ++r) {
    if (r == static_cast<std::size_t>(PullReason::Pulled))
      out["pulls.performed"] = counts[r];
    else
      out["pulls.rejected." + std::string(kPullReasonNames.names[r])] =
          counts[r];
  }
  if (trace_.dropped() > 0) out["trace.dropped"] = trace_.dropped();
  if (timeline_.dropped() > 0) out["speed_timeline.dropped"] = timeline_.dropped();
  if (spans_.dropped() > 0) out["spans.dropped"] = spans_.dropped();
  if (drops_.dropped() > 0) out["serve_drops.dropped"] = drops_.dropped();
  if (migrations_.dropped() > 0) out["telemetry.dropped"] = migrations_.dropped();
  if (run_segments_.dropped() > 0)
    out["run_segments.dropped"] = run_segments_.dropped();
  return out;
}

void RunRecorder::write_chrome_trace(std::ostream& os) const {
  auto events = trace_.snapshot();
  const auto cores = this->cores();

  // Run segments -> "run" spans on the executing core's track (node-scoped
  // tracks for cluster runs, so per-node activity stays one row per core).
  // Derived here, not on the hot path: the table holds compact PODs.
  for (const auto& seg : run_segments_.snapshot()) {
    TraceEvent ev;
    ev.kind = EventKind::Span;
    ev.ts_us = seg.start_us;
    ev.dur_us = seg.dur_us;
    ev.track = seg.node < 0 ? seg.core
                            : kNodeTrackBase + seg.node * kNodeTrackStride +
                                  seg.core;
    ev.name = "task " + std::to_string(seg.task);
    ev.cat = "run";
    events.push_back(std::move(ev));
  }

  // Request spans -> per-worker slices plus flow arrows tying each request's
  // arrival, dispatch, and completion into one chain (flow id = request id).
  // Derived at export time: the hot path only stores the compact span.
  const auto spans = spans_.snapshot();
  constexpr int kDispatchTrack = 999;
  constexpr int kWorkerTrackBase = 1000;
  int max_worker = -1;
  for (const RequestSpan& s : spans) {
    const int track = kWorkerTrackBase + (s.worker >= 0 ? s.worker : 0);
    max_worker = std::max(max_worker, s.worker);
    const std::string name = "req " + std::to_string(s.id);
    {
      TraceEvent ev;
      ev.kind = EventKind::Span;
      ev.ts_us = s.started_us;
      ev.dur_us = s.completed_us - s.started_us;
      ev.track = track;
      ev.name = name;
      ev.cat = "request";
      ev.num_args.emplace_back("class", static_cast<double>(s.cls));
      ev.num_args.emplace_back("queue_us", static_cast<double>(s.queue_us()));
      ev.num_args.emplace_back("exec_us", static_cast<double>(s.exec_us));
      ev.num_args.emplace_back("preempt_us",
                               static_cast<double>(s.preempt_us()));
      ev.num_args.emplace_back("stall_us", s.stall_us);
      ev.num_args.emplace_back("migrations", static_cast<double>(s.migrations));
      ev.str_args.emplace_back("blame", blame(s));
      events.push_back(std::move(ev));
    }
    {
      TraceEvent ev;
      ev.kind = EventKind::Span;
      ev.ts_us = s.arrival_us;
      ev.dur_us = s.queue_us();
      ev.track = kDispatchTrack;
      ev.name = name;
      ev.cat = "queue";
      events.push_back(std::move(ev));
    }
    TraceEvent flow;
    flow.name = name;
    flow.cat = "request";
    flow.flow_id = s.id;
    flow.kind = EventKind::FlowStart;
    flow.ts_us = s.arrival_us;
    flow.track = kDispatchTrack;
    events.push_back(flow);
    flow.kind = EventKind::FlowStep;
    flow.ts_us = s.started_us;
    flow.track = track;
    events.push_back(flow);
    flow.kind = EventKind::FlowEnd;
    flow.ts_us = s.completed_us;
    flow.track = track;
    events.push_back(std::move(flow));
  }

  // Speed timeline -> counter tracks. One "global speed" counter, one
  // multi-series "core speed" counter, one "queue length" counter.
  for (const auto& s : timeline_.snapshot()) {
    {
      TraceEvent ev;
      ev.kind = EventKind::Counter;
      ev.ts_us = s.ts_us;
      ev.name = "global speed";
      ev.num_args.emplace_back("speed", s.global);
      events.push_back(std::move(ev));
    }
    if (!s.core_speed.empty()) {
      TraceEvent ev;
      ev.kind = EventKind::Counter;
      ev.ts_us = s.ts_us;
      ev.name = "core speed";
      for (std::size_t i = 0; i < s.core_speed.size(); ++i) {
        const int core = i < cores.size() ? cores[i] : static_cast<int>(i);
        ev.num_args.emplace_back("c" + std::to_string(core), s.core_speed[i]);
      }
      events.push_back(std::move(ev));
    }
    if (!s.queue_len.empty()) {
      TraceEvent ev;
      ev.kind = EventKind::Counter;
      ev.ts_us = s.ts_us;
      ev.name = "queue length";
      for (std::size_t i = 0; i < s.queue_len.size(); ++i) {
        if (s.queue_len[i] < 0) continue;
        const int core = i < cores.size() ? cores[i] : static_cast<int>(i);
        ev.num_args.emplace_back("c" + std::to_string(core),
                                 static_cast<double>(s.queue_len[i]));
      }
      events.push_back(std::move(ev));
    }
  }

  // Rebalance epochs -> instants on the cluster track (migrations carry the
  // endpoints; every epoch carries the imbalance the decision saw).
  for (const auto& r : rebalances_.snapshot()) {
    TraceEvent ev;
    ev.kind = EventKind::Instant;
    ev.ts_us = r.ts_us;
    ev.track = kClusterTrack;
    ev.name = to_string(r.outcome);
    ev.cat = "rebalance";
    ev.num_args.emplace_back("imbalance", r.imbalance);
    ev.num_args.emplace_back("threshold", r.threshold);
    if (r.outcome == RebalanceOutcome::Migrated) {
      ev.num_args.emplace_back("pool", static_cast<double>(r.pool));
      ev.num_args.emplace_back("from_node", static_cast<double>(r.from_node));
      ev.num_args.emplace_back("to_node", static_cast<double>(r.to_node));
      ev.num_args.emplace_back("drained", static_cast<double>(r.drained));
    }
    events.push_back(std::move(ev));
  }

  // Share-repartition epochs -> instants on core 0's track (the partition
  // is a whole-machine decision; the shares travel as numeric args).
  for (const auto& r : shares_.snapshot()) {
    TraceEvent ev;
    ev.kind = EventKind::Instant;
    ev.ts_us = r.ts_us;
    ev.track = 0;
    ev.name = std::string("share:") + to_string(r.outcome);
    ev.cat = "share";
    ev.num_args.emplace_back("max_delta", r.max_delta);
    ev.num_args.emplace_back("floor_clamped",
                             static_cast<double>(r.floor_clamped));
    for (std::size_t i = 0; i < r.shares.size(); ++i)
      ev.num_args.emplace_back("w" + std::to_string(i), r.shares[i]);
    events.push_back(std::move(ev));
  }

  // Tuning epochs -> instants on core 0's track (a parameter change governs
  // the whole balancer; the constant-set in force travels as numeric args).
  for (const auto& r : tuning_.snapshot()) {
    TraceEvent ev;
    ev.kind = EventKind::Instant;
    ev.ts_us = r.ts_us;
    ev.track = 0;
    ev.name = std::string("tune:") + to_string(r.outcome);
    ev.cat = "tuning";
    ev.num_args.emplace_back("arm", static_cast<double>(r.arm));
    ev.num_args.emplace_back("interval_us", static_cast<double>(r.interval_us));
    ev.num_args.emplace_back("threshold", r.threshold);
    ev.num_args.emplace_back("dispersion", r.dispersion);
    ev.num_args.emplace_back("predicted", r.predicted);
    events.push_back(std::move(ev));
  }

  // Migrations -> instants on the destination core's track, named by cause.
  for (const auto& m : migrations_.snapshot()) {
    TraceEvent ev;
    ev.kind = EventKind::Instant;
    ev.ts_us = m.ts_us;
    ev.track = m.to;
    ev.name = "migration";
    ev.cat = "migrate";
    ev.num_args.emplace_back("task", static_cast<double>(m.task));
    ev.num_args.emplace_back("from", static_cast<double>(m.from));
    ev.num_args.emplace_back("to", static_cast<double>(m.to));
    ev.str_args.emplace_back("cause", to_string(m.cause));
    events.push_back(std::move(ev));
  }

  // Serve drops -> instants on the core of the worker whose queue was full.
  for (const auto& d : drops_.snapshot()) {
    TraceEvent ev;
    ev.kind = EventKind::Instant;
    ev.ts_us = d.ts_us;
    ev.track = d.core;
    ev.name = "drop";
    ev.cat = "serve";
    ev.num_args.emplace_back("request", static_cast<double>(d.request));
    ev.num_args.emplace_back("worker", static_cast<double>(d.worker));
    events.push_back(std::move(ev));
  }

  // Performed pulls -> instant events on the destination core's track.
  for (const auto& d : decisions_.snapshot()) {
    if (d.reason != PullReason::Pulled) continue;
    TraceEvent ev;
    ev.kind = EventKind::Instant;
    ev.ts_us = d.ts_us;
    ev.track = d.local;
    ev.name = "pull";
    ev.cat = "balance";
    ev.num_args.emplace_back("victim", static_cast<double>(d.victim));
    ev.num_args.emplace_back("from", static_cast<double>(d.source));
    ev.num_args.emplace_back("to", static_cast<double>(d.local));
    ev.num_args.emplace_back("local_speed", d.local_speed);
    ev.num_args.emplace_back("source_speed", d.source_speed);
    ev.num_args.emplace_back("global", d.global);
    events.push_back(std::move(ev));
  }

  std::string process = "speedbal";
  const auto meta = this->meta();
  if (const auto it = meta.find("tool"); it != meta.end()) process = it->second;

  std::vector<std::pair<int, std::string>> track_names;
  for (const int c : cores)
    track_names.emplace_back(c, "core " + std::to_string(c));
  {
    // Label every (node, core) track that run segments actually used.
    std::vector<int> node_tracks;
    for (const auto& seg : run_segments_.snapshot())
      if (seg.node >= 0)
        node_tracks.push_back(kNodeTrackBase + seg.node * kNodeTrackStride +
                              seg.core);
    std::sort(node_tracks.begin(), node_tracks.end());
    node_tracks.erase(std::unique(node_tracks.begin(), node_tracks.end()),
                      node_tracks.end());
    for (const int t : node_tracks) {
      const int node = (t - kNodeTrackBase) / kNodeTrackStride;
      const int core = (t - kNodeTrackBase) % kNodeTrackStride;
      track_names.emplace_back(t, "node " + std::to_string(node) + " core " +
                                      std::to_string(core));
    }
    if (rebalances_.size() > 0)
      track_names.emplace_back(kClusterTrack, "cluster rebalancer");
  }
  if (!spans.empty()) {
    track_names.emplace_back(kDispatchTrack, "dispatch");
    for (int wkr = 0; wkr <= std::max(max_worker, 0); ++wkr)
      track_names.emplace_back(kWorkerTrackBase + wkr,
                               "worker " + std::to_string(wkr));
  }

  obs::write_chrome_trace(os, events, process, track_names);
}

void RunRecorder::write_report_json(std::ostream& os) const {
  JsonWriter w(os);
  w.begin_object();

  w.key("meta").begin_object();
  for (const auto& [k, v] : meta()) w.kv(k, v);
  w.end_object();

  w.key("counters").begin_object();
  for (const auto& [k, v] : counters()) w.kv(k, v);
  w.end_object();

  if (const auto hists = histograms(); !hists.empty()) {
    w.key("histograms").begin_object();
    for (const auto& [name, h] : hists) {
      w.key(name).begin_object();
      w.kv("count", h.count());
      w.kv("min_ns", h.min());
      w.kv("max_ns", h.max());
      w.kv("mean_ns", h.mean());
      w.kv("p50_ns", h.percentile(50.0));
      w.kv("p90_ns", h.percentile(90.0));
      w.kv("p95_ns", h.percentile(95.0));
      w.kv("p99_ns", h.percentile(99.0));
      w.kv("p999_ns", h.percentile(99.9));
      w.end_object();
    }
    w.end_object();
  }

  // Sampled request spans and the per-class attribution table derived from
  // them — the report's "why was the tail slow" data.
  if (const auto spans = spans_.snapshot(); !spans.empty()) {
    w.key("requests").begin_array();
    for (const RequestSpan& s : spans) {
      w.begin_object();
      w.kv("id", s.id);
      w.kv("class", s.cls);
      w.kv("worker", s.worker);
      w.kv("arrival_us", s.arrival_us);
      w.kv("started_us", s.started_us);
      w.kv("completed_us", s.completed_us);
      w.kv("queue_us", s.queue_us());
      w.kv("exec_us", s.exec_us);
      w.kv("preempt_us", s.preempt_us());
      w.kv("stall_us", s.stall_us);
      w.kv("sojourn_us", s.sojourn_us());
      w.kv("migrations", s.migrations);
      w.kv("blame", blame(s));
      w.end_object();
    }
    w.end_array();

    const AttributionTable table = AttributionTable::build(spans);
    w.key("attribution").begin_array();
    for (const ClassAttribution& a : table.classes) {
      w.begin_object();
      w.kv("class", a.cls);
      w.kv("requests", a.requests);
      w.kv("queue_us", a.queue_us);
      w.kv("exec_us", a.exec_us);
      w.kv("preempt_us", a.preempt_us);
      w.kv("stall_us", a.stall_us);
      w.kv("migrations", a.migrations);
      w.kv("sojourn_p50_ns", a.sojourn_ns.percentile(50.0));
      w.kv("sojourn_p90_ns", a.sojourn_ns.percentile(90.0));
      w.kv("sojourn_p99_ns", a.sojourn_ns.percentile(99.0));
      w.kv("sojourn_mean_ns", a.sojourn_ns.mean());
      w.end_object();
    }
    w.end_array();
  }

  // The migration log with cause names, the input to obsquery's storm
  // detection.
  if (migrations_.size() > 0) {
    w.key("migrations").begin_array();
    for (const auto& m : migrations_.snapshot()) {
      w.begin_object();
      w.kv("t_us", m.ts_us);
      w.kv("task", m.task);
      w.kv("from", m.from);
      w.kv("to", m.to);
      w.kv("cause", to_string(m.cause));
      w.end_object();
    }
    w.end_array();
  }

  // Global rebalancer epoch log — the cluster-level analogue of
  // "decisions" below, one record per epoch with the imbalance it saw.
  if (rebalances_.size() > 0) {
    w.key("rebalances").begin_array();
    for (const auto& r : rebalances_.snapshot()) {
      w.begin_object();
      w.kv("t_us", r.ts_us);
      w.kv("epoch", r.epoch);
      w.kv("outcome", to_string(r.outcome));
      w.kv("imbalance", r.imbalance);
      w.kv("threshold", r.threshold);
      if (r.outcome == RebalanceOutcome::Migrated) {
        w.kv("pool", r.pool);
        w.kv("from_node", r.from_node);
        w.kv("to_node", r.to_node);
        w.kv("from_load", r.from_load);
        w.kv("to_load", r.to_load);
        w.kv("drained", r.drained);
      }
      w.end_object();
    }
    w.end_array();
  }

  // ShareBalancer repartition epoch log — one record per epoch with the
  // partition and the EWMA speeds the decision saw. Absent unless SHARE
  // ran, so pre-SHARE reports stay byte-identical.
  if (shares_.size() > 0) {
    w.key("shares").begin_array();
    for (const auto& r : shares_.snapshot()) {
      w.begin_object();
      w.kv("t_us", r.ts_us);
      w.kv("epoch", r.epoch);
      w.kv("outcome", to_string(r.outcome));
      w.kv("max_delta", r.max_delta);
      w.kv("hysteresis", r.hysteresis);
      w.kv("floor_clamped", r.floor_clamped);
      w.key("shares").begin_array();
      for (const double s : r.shares) w.value(s);
      w.end_array();
      w.key("speeds").begin_array();
      for (const double s : r.speeds) w.value(s);
      w.end_array();
      w.end_object();
    }
    w.end_array();
  }

  // Adaptive-controller tuning epoch log — one record per controller epoch
  // with the constant-set it left in force. Absent unless --adaptive ran,
  // so pre-adaptive reports stay byte-identical.
  if (tuning_.size() > 0) {
    w.key("tuning").begin_array();
    for (const auto& r : tuning_.snapshot()) {
      w.begin_object();
      w.kv("t_us", r.ts_us);
      w.kv("epoch", r.epoch);
      w.kv("outcome", to_string(r.outcome));
      w.kv("arm", r.arm);
      w.kv("prev_arm", r.prev_arm);
      w.kv("interval_us", r.interval_us);
      w.kv("threshold", r.threshold);
      w.kv("post_migration_block", r.post_migration_block);
      w.kv("cache_block_scale", r.cache_block_scale);
      w.kv("reward", r.reward);
      w.kv("dispersion", r.dispersion);
      w.kv("predicted", r.predicted);
      w.end_object();
    }
    w.end_array();
  }

  // Recorder self-accounting: log sizes and drops. The wall-clock overhead
  // meter is deliberately NOT serialized here — the
  // report must be byte-identical across replays of the same seed, and
  // wall time is not; the CLIs and bench report overhead instead.
  w.key("telemetry").begin_object();
  w.kv("spans", static_cast<std::int64_t>(spans_.size()));
  w.kv("spans_dropped", spans_.dropped());
  w.kv("records", static_cast<std::int64_t>(migrations_.size()));
  w.kv("records_dropped", migrations_.dropped());
  w.kv("run_segments", static_cast<std::int64_t>(run_segments_.size()));
  w.kv("run_segments_dropped", run_segments_.dropped());
  w.end_object();

  const auto samples = timeline_.snapshot();
  const GlobalStats stats = global_stats(samples);
  w.key("global_speed").begin_object();
  w.kv("samples", stats.samples);
  w.kv("mean", stats.mean);
  w.kv("variance", stats.variance);
  w.kv("min", stats.min);
  w.kv("max", stats.max);
  w.end_object();

  w.key("cores").begin_array();
  for (const int c : cores()) w.value(c);
  w.end_array();

  w.key("speed_timeline").begin_array();
  for (const auto& s : samples) {
    w.begin_object();
    w.kv("t_us", s.ts_us);
    w.kv("observer", s.observer);
    w.kv("global", s.global);
    w.key("core_speed").begin_array();
    for (const double v : s.core_speed) w.value(v);
    w.end_array();
    w.key("queue_len").begin_array();
    for (const int v : s.queue_len) w.value(v);
    w.end_array();
    w.key("below_threshold").begin_array();
    for (const bool v : s.below_threshold) w.value(v);
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.key("decisions").begin_object();
  w.key("by_reason").begin_object();
  const auto counts = decisions_.counts();
  for (std::size_t r = 0; r < counts.size(); ++r)
    w.kv(kPullReasonNames.names[r], counts[r]);
  w.end_object();
  w.kv("dropped_records", decisions_.dropped());
  w.key("records").begin_array();
  for (const auto& d : decisions_.snapshot()) {
    w.begin_object();
    w.kv("t_us", d.ts_us);
    w.kv("reason", to_string(d.reason));
    w.kv("local", d.local);
    w.kv("source", d.source);
    if (d.reason == PullReason::Pulled) {
      w.kv("victim", d.victim);
      w.kv("tie_break", d.tie_break);
      w.kv("warmup_charged_us", d.warmup_charged_us);
    }
    w.kv("sample_seq", d.sample_seq);
    w.kv("local_speed", d.local_speed);
    w.kv("source_speed", d.source_speed);
    w.kv("global", d.global);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.end_object();
  os << "\n";
}

namespace {

bool write_file(const std::string& path, const char* what,
                const std::function<void(std::ostream&)>& fn) {
  if (path == "-") {
    fn(std::cout);
    return true;
  }
  std::ofstream os(path);
  if (!os) {
    SB_LOG(Error) << "obs: cannot open " << what << " output file '" << path << "'";
    return false;
  }
  fn(os);
  return os.good();
}

}  // namespace

bool write_trace_file(const RunRecorder& rec, const std::string& path) {
  return write_file(path, "trace",
                    [&rec](std::ostream& os) { rec.write_chrome_trace(os); });
}

bool write_report_file(const RunRecorder& rec, const std::string& path) {
  return write_file(path, "report",
                    [&rec](std::ostream& os) { rec.write_report_json(os); });
}

}  // namespace speedbal::obs
