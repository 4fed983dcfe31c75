#include "obs/recorder.hpp"

#include <algorithm>
#include <fstream>
#include <functional>
#include <iostream>

#include "util/json.hpp"
#include "util/log.hpp"
#include "util/winner_tree.hpp"

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

namespace {

/// One log's share of a Chrome trace, written straight from the log. The
/// log's events are numbered in the order the log emits them, and `order`
/// lists the ones to write sorted by (timestamp, number): where a stable
/// sort by timestamp puts them.
struct EventStream {
  std::vector<std::uint32_t> order;
  std::function<std::int64_t(std::uint32_t)> ts;
  std::function<void(ChromeTraceWriter&, std::uint32_t)> write;
  std::size_t next = 0;

  std::int64_t head_ts() const {
    return next < order.size() ? ts(order[next])
                               : WinnerTree<std::int64_t>::kPad;
  }
};

/// The stream of events 0..n-1 for which keep(e) holds.
template <class Ts, class Write, class Keep>
EventStream make_stream(std::size_t n, Ts ts, Write write, Keep keep) {
  EventStream s;
  s.order.reserve(n);
  for (std::size_t e = 0; e < n; ++e)
    if (keep(e)) s.order.push_back(static_cast<std::uint32_t>(e));
  const auto before = [&ts](std::uint32_t a, std::uint32_t b) {
    const std::int64_t ta = ts(a);
    const std::int64_t tb = ts(b);
    return ta < tb || (ta == tb && a < b);
  };
  if (!std::is_sorted(s.order.begin(), s.order.end(), before))
    std::sort(s.order.begin(), s.order.end(), before);
  s.ts = std::move(ts);
  s.write = std::move(write);
  return s;
}

template <class Ts, class Write>
EventStream make_stream(std::size_t n, Ts ts, Write write) {
  return make_stream(n, std::move(ts), std::move(write),
                     [](std::size_t) { return true; });
}

/// One numeric trace argument; every one is written as a double.
void num_arg(JsonWriter& w, std::string_view key, double v) { w.kv(key, v); }

int node_track(const RunSegmentRecord& seg) {
  return kNodeTrackBase + seg.node * kNodeTrackStride + seg.core;
}

}  // namespace

void RunRecorder::write_chrome_trace(std::ostream& os) const {
  const auto cores = this->cores();
  std::string process = "speedbal";
  const auto meta = this->meta();
  if (const auto it = meta.find("tool"); it != meta.end()) process = it->second;

  // Every log is read in place, under its own lock, for the whole write:
  // an append that reallocated a log mid-write would leave the merge
  // reading freed records. No other path holds two log locks at once, so
  // taking them one by one in this fixed order cannot deadlock.
  const auto events = trace_.locked();
  const auto segments = run_segments_.locked();
  const auto spans = spans_.locked();
  const auto samples = timeline_.locked();
  const auto rebalances = rebalances_.locked();
  const auto shares = shares_.locked();
  const auto tuning = tuning_.locked();
  const auto migrations = migrations_.locked();
  const auto drops = drops_.locked();
  const auto decisions = decisions_.locked();

  // File order: by timestamp, and at equal timestamps in emission order,
  // the logs in the order below (free-form events, run segments, request
  // spans, speed samples, rebalance, share and tuning epochs, migrations,
  // serve drops, pulls) and each log in its own order. Each stream is in
  // that order already, so a first-minimum merge over the streams, ties to
  // the earlier stream, writes it without holding the events. Track labels
  // come first in the file, so the streams are built, and the labels they
  // need noted, before anything is written.
  std::vector<EventStream> streams;

  streams.push_back(make_stream(
      events->size(), [&](std::uint32_t e) { return (*events)[e].ts_us; },
      [&](ChromeTraceWriter& out, std::uint32_t e) {
        out.event((*events)[e]);
      }));

  // Run segments -> "run" spans on the executing core's track (node-scoped
  // tracks for cluster runs, so per-node activity stays one row per core;
  // every node track a segment uses gets a label).
  std::vector<bool> node_track_used;
  streams.push_back(make_stream(
      segments->size(),
      [&](std::uint32_t e) { return (*segments)[e].start_us; },
      [&](ChromeTraceWriter& out, std::uint32_t e) {
        const RunSegmentRecord& seg = (*segments)[e];
        out.begin_event(EventKind::Span, "task " + std::to_string(seg.task),
                        "run", seg.start_us,
                        seg.node < 0 ? seg.core : node_track(seg),
                        seg.dur_us);
        out.end_event();
      },
      [&](std::size_t e) {
        const RunSegmentRecord& seg = (*segments)[e];
        if (seg.node >= 0) {
          const auto t =
              static_cast<std::size_t>(node_track(seg) - kNodeTrackBase);
          if (t >= node_track_used.size()) node_track_used.resize(t + 1);
          node_track_used[t] = true;
        }
        return true;
      }));

  // Request spans -> five events each: the per-worker slice, the dispatch
  // queue slice, and flow arrows tying the request's arrival, dispatch and
  // completion into one chain (flow id = request id).
  constexpr int kDispatchTrack = 999;
  constexpr int kWorkerTrackBase = 1000;
  constexpr std::uint32_t kSpanEvents = 5;
  int max_worker = -1;
  const auto worker_track = [](const RequestSpan& s) {
    return kWorkerTrackBase + (s.worker >= 0 ? s.worker : 0);
  };
  streams.push_back(make_stream(
      spans->size() * kSpanEvents,
      [&](std::uint32_t e) {
        const RequestSpan& s = (*spans)[e / kSpanEvents];
        switch (e % kSpanEvents) {
          case 0: case 3: return s.started_us;
          case 1: case 2: return s.arrival_us;
          default: return s.completed_us;
        }
      },
      [&](ChromeTraceWriter& out, std::uint32_t e) {
        const RequestSpan& s = (*spans)[e / kSpanEvents];
        const std::string name = "req " + std::to_string(s.id);
        switch (e % kSpanEvents) {
          case 0: {
            out.begin_event(EventKind::Span, name, "request", s.started_us,
                            worker_track(s), s.completed_us - s.started_us);
            JsonWriter& w = out.args();
            num_arg(w, "class", s.cls);
            num_arg(w, "queue_us", static_cast<double>(s.queue_us()));
            num_arg(w, "exec_us", static_cast<double>(s.exec_us));
            num_arg(w, "preempt_us", static_cast<double>(s.preempt_us()));
            num_arg(w, "stall_us", s.stall_us);
            num_arg(w, "migrations", s.migrations);
            w.kv("blame", blame(s));
            break;
          }
          case 1:
            out.begin_event(EventKind::Span, name, "queue", s.arrival_us,
                            kDispatchTrack, s.queue_us());
            break;
          case 2:
            out.begin_event(EventKind::FlowStart, name, "request",
                            s.arrival_us, kDispatchTrack, 0, s.id);
            break;
          case 3:
            out.begin_event(EventKind::FlowStep, name, "request",
                            s.started_us, worker_track(s), 0, s.id);
            break;
          default:
            out.begin_event(EventKind::FlowEnd, name, "request",
                            s.completed_us, worker_track(s), 0, s.id);
            break;
        }
        out.end_event();
      },
      [&](std::size_t e) {
        max_worker = std::max(max_worker, (*spans)[e / kSpanEvents].worker);
        return true;
      }));

  // Speed samples -> counter tracks: one "global speed" counter, one
  // multi-series "core speed" counter, one "queue length" counter. A
  // sample's counters share its timestamp, so they go out together.
  const auto core_key = [&cores](std::size_t i) {
    return "c" + std::to_string(i < cores.size() ? cores[i]
                                                 : static_cast<int>(i));
  };
  streams.push_back(make_stream(
      samples->size(), [&](std::uint32_t e) { return (*samples)[e].ts_us; },
      [&](ChromeTraceWriter& out, std::uint32_t e) {
        const SpeedSample& s = (*samples)[e];
        out.begin_event(EventKind::Counter, "global speed", "", s.ts_us, 0);
        num_arg(out.args(), "speed", s.global);
        out.end_event();
        if (!s.core_speed.empty()) {
          out.begin_event(EventKind::Counter, "core speed", "", s.ts_us, 0);
          for (std::size_t i = 0; i < s.core_speed.size(); ++i)
            num_arg(out.args(), core_key(i), s.core_speed[i]);
          out.end_event();
        }
        if (!s.queue_len.empty()) {
          // Cores without a queue length (< 0) are left out.
          out.begin_event(EventKind::Counter, "queue length", "", s.ts_us, 0);
          for (std::size_t i = 0; i < s.queue_len.size(); ++i)
            if (s.queue_len[i] >= 0)
              num_arg(out.args(), core_key(i), s.queue_len[i]);
          out.end_event();
        }
      }));

  // Rebalance epochs -> instants on the cluster track (migrations carry the
  // endpoints; every epoch carries the imbalance the decision saw).
  streams.push_back(make_stream(
      rebalances->size(),
      [&](std::uint32_t e) { return (*rebalances)[e].ts_us; },
      [&](ChromeTraceWriter& out, std::uint32_t e) {
        const RebalanceRecord& r = (*rebalances)[e];
        out.begin_event(EventKind::Instant, to_string(r.outcome), "rebalance",
                        r.ts_us, kClusterTrack);
        JsonWriter& w = out.args();
        num_arg(w, "imbalance", r.imbalance);
        num_arg(w, "threshold", r.threshold);
        if (r.outcome == RebalanceOutcome::Migrated) {
          num_arg(w, "pool", r.pool);
          num_arg(w, "from_node", r.from_node);
          num_arg(w, "to_node", r.to_node);
          num_arg(w, "drained", static_cast<double>(r.drained));
        }
        out.end_event();
      }));

  // Share-repartition epochs -> instants on core 0's track (the partition
  // is a whole-machine decision; the shares travel as numeric args).
  streams.push_back(make_stream(
      shares->size(), [&](std::uint32_t e) { return (*shares)[e].ts_us; },
      [&](ChromeTraceWriter& out, std::uint32_t e) {
        const ShareRecord& r = (*shares)[e];
        out.begin_event(
            EventKind::Instant, std::string("share:") + to_string(r.outcome),
            "share", r.ts_us, 0);
        JsonWriter& w = out.args();
        num_arg(w, "max_delta", r.max_delta);
        num_arg(w, "floor_clamped", r.floor_clamped);
        for (std::size_t i = 0; i < r.shares.size(); ++i)
          num_arg(w, "w" + std::to_string(i), r.shares[i]);
        out.end_event();
      }));

  // Tuning epochs -> instants on core 0's track (a parameter change governs
  // the whole balancer; the constant-set in force travels as numeric args).
  streams.push_back(make_stream(
      tuning->size(), [&](std::uint32_t e) { return (*tuning)[e].ts_us; },
      [&](ChromeTraceWriter& out, std::uint32_t e) {
        const TuningRecord& r = (*tuning)[e];
        out.begin_event(
            EventKind::Instant, std::string("tune:") + to_string(r.outcome),
            "tuning", r.ts_us, 0);
        JsonWriter& w = out.args();
        num_arg(w, "arm", r.arm);
        num_arg(w, "interval_us", static_cast<double>(r.interval_us));
        num_arg(w, "threshold", r.threshold);
        num_arg(w, "dispersion", r.dispersion);
        num_arg(w, "predicted", r.predicted);
        out.end_event();
      }));

  // Migrations -> instants on the destination core's track, named by cause.
  streams.push_back(make_stream(
      migrations->size(),
      [&](std::uint32_t e) { return (*migrations)[e].ts_us; },
      [&](ChromeTraceWriter& out, std::uint32_t e) {
        const MigrationRecord& m = (*migrations)[e];
        out.begin_event(EventKind::Instant, "migration", "migrate", m.ts_us,
                        m.to);
        JsonWriter& w = out.args();
        num_arg(w, "task", m.task);
        num_arg(w, "from", m.from);
        num_arg(w, "to", m.to);
        w.kv("cause", to_string(m.cause));
        out.end_event();
      }));

  // Serve drops -> instants on the core of the worker whose queue was full.
  streams.push_back(make_stream(
      drops->size(), [&](std::uint32_t e) { return (*drops)[e].ts_us; },
      [&](ChromeTraceWriter& out, std::uint32_t e) {
        const DropRecord& d = (*drops)[e];
        out.begin_event(EventKind::Instant, "drop", "serve", d.ts_us, d.core);
        JsonWriter& w = out.args();
        num_arg(w, "request", static_cast<double>(d.request));
        num_arg(w, "worker", d.worker);
        out.end_event();
      }));

  // Performed pulls -> instants on the destination core's track.
  streams.push_back(make_stream(
      decisions->size(),
      [&](std::uint32_t e) { return (*decisions)[e].ts_us; },
      [&](ChromeTraceWriter& out, std::uint32_t e) {
        const DecisionRecord& d = (*decisions)[e];
        out.begin_event(EventKind::Instant, "pull", "balance", d.ts_us,
                        d.local);
        JsonWriter& w = out.args();
        num_arg(w, "victim", static_cast<double>(d.victim));
        num_arg(w, "from", d.source);
        num_arg(w, "to", d.local);
        num_arg(w, "local_speed", d.local_speed);
        num_arg(w, "source_speed", d.source_speed);
        num_arg(w, "global", d.global);
        out.end_event();
      },
      [&](std::size_t e) {
        return (*decisions)[e].reason == PullReason::Pulled;
      }));

  std::vector<std::pair<int, std::string>> track_names;
  for (const int c : cores)
    track_names.emplace_back(c, "core " + std::to_string(c));
  for (std::size_t t = 0; t < node_track_used.size(); ++t) {
    if (!node_track_used[t]) continue;
    const auto node = static_cast<int>(t) / kNodeTrackStride;
    const auto core = static_cast<int>(t) % kNodeTrackStride;
    track_names.emplace_back(kNodeTrackBase + static_cast<int>(t),
                             "node " + std::to_string(node) + " core " +
                                 std::to_string(core));
  }
  if (!rebalances->empty())
    track_names.emplace_back(kClusterTrack, "cluster rebalancer");
  if (!spans->empty()) {
    track_names.emplace_back(kDispatchTrack, "dispatch");
    for (int wkr = 0; wkr <= std::max(max_worker, 0); ++wkr)
      track_names.emplace_back(kWorkerTrackBase + wkr,
                               "worker " + std::to_string(wkr));
  }

  ChromeTraceWriter out(os, process, track_names);
  WinnerTree<std::int64_t> heads(static_cast<int>(streams.size()), 0);
  std::size_t left = 0;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    heads.update(static_cast<int>(i), streams[i].head_ts());
    left += streams[i].order.size();
  }
  // Timestamps stay below kPad, so a finished stream never wins while
  // events are left.
  for (; left > 0; --left) {
    const int i = heads.winner();
    EventStream& s = streams[static_cast<std::size_t>(i)];
    s.write(out, s.order[s.next++]);
    heads.update(i, s.head_ts());
  }
  out.finish();
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

  // Each record section is written from its log in place, under the log's
  // lock for that section only; the log's size(), dropped() and counters,
  // which take the same lock, are read outside the views.

  // Sampled request spans and the per-class attribution table derived from
  // them — the report's "why was the tail slow" data.
  if (const auto spans = spans_.locked(); !spans->empty()) {
    write_records(w.key("requests"), *spans);

    const AttributionTable table = AttributionTable::build(*spans);
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
  if (const auto migrations = migrations_.locked(); !migrations->empty())
    write_records(w.key("migrations"), *migrations);

  // Global rebalancer epoch log — the cluster-level analogue of
  // "decisions" below, one record per epoch with the imbalance it saw.
  if (const auto rebalances = rebalances_.locked(); !rebalances->empty())
    write_records(w.key("rebalances"), *rebalances);

  // ShareBalancer repartition epoch log — one record per epoch with the
  // partition and the EWMA speeds the decision saw. Absent unless SHARE
  // ran, so pre-SHARE reports stay byte-identical.
  if (const auto shares = shares_.locked(); !shares->empty())
    write_records(w.key("shares"), *shares);

  // Adaptive-controller tuning epoch log — one record per controller epoch
  // with the constant-set it left in force. Absent unless --adaptive ran,
  // so pre-adaptive reports stay byte-identical.
  if (const auto tuning = tuning_.locked(); !tuning->empty())
    write_records(w.key("tuning"), *tuning);

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

  const auto cores = this->cores();
  {
    const auto samples = timeline_.locked();
    const GlobalStats stats = global_stats(*samples);
    w.key("global_speed").begin_object();
    w.kv("samples", stats.samples);
    w.kv("mean", stats.mean);
    w.kv("variance", stats.variance);
    w.kv("min", stats.min);
    w.kv("max", stats.max);
    w.end_object();

    w.key("cores").begin_array();
    for (const int c : cores) w.value(c);
    w.end_array();

    write_records(w.key("speed_timeline"), *samples);
  }

  w.key("decisions").begin_object();
  w.key("by_reason").begin_object();
  const auto counts = decisions_.counts();
  for (std::size_t r = 0; r < counts.size(); ++r)
    w.kv(kPullReasonNames.names[r], counts[r]);
  w.end_object();
  w.kv("dropped_records", decisions_.dropped());
  write_records(w.key("records"), *decisions_.locked());
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
