#include "check/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace speedbal::check {

namespace {

/// Deterministic double rendering for violation details (%.17g round-trips,
/// so a replayed episode reproduces the same bytes).
std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void add(std::vector<Violation>& out, std::string invariant, std::string detail) {
  out.push_back(Violation{std::move(invariant), std::move(detail)});
}

/// Constants in force at time t: the last tuning record with ts_us <= t
/// (records are time-ordered; a record at exactly t governs decisions at t
/// because the controller applies changes before the pass's pull decision),
/// or nullptr before the first record (the base constants apply).
const obs::TuningRecord* tuning_at(const std::vector<obs::TuningRecord>& tuning,
                                   std::int64_t t) {
  const obs::TuningRecord* last = nullptr;
  for (const obs::TuningRecord& r : tuning) {
    if (r.ts_us > t) break;
    last = &r;
  }
  return last;
}

}  // namespace

std::string format_violations(const std::vector<Violation>& vs) {
  std::ostringstream os;
  for (const Violation& v : vs) os << v.invariant << ": " << v.detail << "\n";
  return os.str();
}

void check_time_conservation(const std::vector<CoreTimes>& cores,
                             std::vector<Violation>& out) {
  for (const CoreTimes& c : cores) {
    if (c.busy < 0 || c.busy > c.elapsed)
      add(out, "time-conservation",
          "core " + std::to_string(c.core) + ": busy " +
              std::to_string(c.busy) + "us outside [0, elapsed=" +
              std::to_string(c.elapsed) + "us]");
    if (c.exec_sum != c.busy)
      add(out, "speed-accounting",
          "core " + std::to_string(c.core) + ": sum of per-task exec " +
              std::to_string(c.exec_sum) + "us != core busy time " +
              std::to_string(c.busy) + "us");
  }
}

void check_task_placement(const std::vector<TaskSnapshot>& tasks,
                          std::vector<Violation>& out) {
  for (const TaskSnapshot& t : tasks) {
    const std::string who = "task " + std::to_string(t.id) + " (" + t.state +
                            ") at t=" + std::to_string(t.when) + "us";
    if (t.expect_queued) {
      if (t.queue_memberships != 1 || !t.on_own_queue)
        add(out, "task-conservation",
            who + ": on " + std::to_string(t.queue_memberships) +
                " run queues (own core " + std::to_string(t.core) + ": " +
                (t.on_own_queue ? "yes" : "no") + "), expected exactly its own");
      if (!t.allowed_on_core)
        add(out, "affinity",
            who + ": placed on core " + std::to_string(t.core) +
                " outside its affinity mask");
      if (!t.core_online)
        add(out, "affinity",
            who + ": placed on offline core " + std::to_string(t.core));
    } else if (t.queue_memberships != 0) {
      add(out, "task-conservation",
          who + ": on " + std::to_string(t.queue_memberships) +
              " run queues, expected none");
    }
  }
}

void check_speed_consistency(const std::vector<CoreSpeed>& speeds,
                             std::vector<Violation>& out) {
  for (const CoreSpeed& s : speeds)
    if (!(std::abs(s.current - s.model) < 1e-12))
      add(out, "speed-consistency",
          "core " + std::to_string(s.core) + " at t=" + std::to_string(s.when) +
              "us: task " + std::to_string(s.task) + " runs at speed " +
              fmt(s.current) + ", model speed " + fmt(s.model));
}

void check_speed_rules(const SpeedRuleInputs& in, std::vector<Violation>& out) {
  // Pulls = SpeedBalancer-cause migrations after the attach-time placement.
  std::vector<MigrationRecord> pulls;
  for (const MigrationRecord& m : in.migrations)
    if (m.cause == MigrationCause::SpeedBalancer && m.ts_us > 0)
      pulls.push_back(m);

  // NUMA-domain blocking (Section 5.2): pulls never cross node boundaries.
  if (in.block_numa && in.topo != nullptr)
    for (const MigrationRecord& m : pulls)
      if (!in.topo->same_numa(m.from, m.to))
        add(out, "numa-block",
            "pull of task " + std::to_string(m.task) + " at t=" +
                std::to_string(m.ts_us) + "us crosses NUMA: core " +
                std::to_string(m.from) + " -> " + std::to_string(m.to));

  // Post-migration cooldown (Section 5.2): both endpoints of a pull sit out
  // for post_migration_block intervals; the block the later pull must clear
  // is computed from the later pull's own pair (shared-cache scaling) and
  // from the constants in force at the later pull's time — the balancer
  // itself evaluates the cooldown against its current (possibly adapted)
  // parameters.
  for (std::size_t i = 0; i < pulls.size(); ++i) {
    SimTime interval = in.interval;
    int post_block = in.post_migration_block;
    double cache_scale = in.shared_cache_block_scale;
    if (const obs::TuningRecord* r = tuning_at(in.tuning, pulls[i].ts_us)) {
      interval = r->interval_us;
      post_block = r->post_migration_block;
      cache_scale = r->cache_block_scale;
    }
    SimTime block = static_cast<SimTime>(post_block) * interval;
    if (in.topo != nullptr && in.topo->same_cache(pulls[i].from, pulls[i].to))
      block = static_cast<SimTime>(static_cast<double>(block) * cache_scale);
    for (std::size_t j = 0; j < i; ++j) {
      const bool shares_endpoint =
          pulls[j].from == pulls[i].from || pulls[j].from == pulls[i].to ||
          pulls[j].to == pulls[i].from || pulls[j].to == pulls[i].to;
      if (!shares_endpoint) continue;
      const SimTime gap = pulls[i].ts_us - pulls[j].ts_us;
      if (gap < block)
        add(out, "cooldown",
            "pulls at t=" + std::to_string(pulls[j].ts_us) + "us (" +
                std::to_string(pulls[j].from) + "->" +
                std::to_string(pulls[j].to) + ") and t=" +
                std::to_string(pulls[i].ts_us) + "us (" +
                std::to_string(pulls[i].from) + "->" +
                std::to_string(pulls[i].to) + ") share a core " +
                std::to_string(gap) + "us apart, block is " +
                std::to_string(block) + "us");
    }
  }

  // Pull threshold T_s (Section 5.1): every logged pull was from a core
  // measured below T_s * global, into a core measured above the average.
  // T_s is the value in force at the decision's timestamp.
  std::int64_t pulled_decisions = 0;
  constexpr double kEps = 1e-9;
  for (const obs::DecisionRecord& d : in.decisions) {
    if (d.reason != obs::PullReason::Pulled) continue;
    ++pulled_decisions;
    double threshold = in.threshold;
    if (const obs::TuningRecord* r = tuning_at(in.tuning, d.ts_us))
      threshold = r->threshold;
    if (d.global <= 0.0) {
      add(out, "threshold",
          "pull at t=" + std::to_string(d.ts_us) +
              "us with non-positive global speed " + fmt(d.global));
      continue;
    }
    if (d.source_speed / d.global >= threshold + kEps)
      add(out, "threshold",
          "pull at t=" + std::to_string(d.ts_us) + "us from core " +
              std::to_string(d.source) + ": source speed " +
              fmt(d.source_speed) + " / global " + fmt(d.global) + " = " +
              fmt(d.source_speed / d.global) + " >= T_s=" + fmt(threshold));
    if (d.local_speed <= d.global - kEps)
      add(out, "threshold",
          "pull at t=" + std::to_string(d.ts_us) + "us into core " +
              std::to_string(d.local) + ": local speed " + fmt(d.local_speed) +
              " not above global " + fmt(d.global));
  }

  // Every pull is logged and every logged pull happened.
  if (pulled_decisions != static_cast<std::int64_t>(pulls.size()))
    add(out, "speed-accounting",
        std::to_string(pulls.size()) +
            " speed-balancer migrations after t=0 but " +
            std::to_string(pulled_decisions) + " Pulled decision records");
}

void check_oscillation(const TuningRuleInputs& in, std::vector<Violation>& out) {
  if (in.hot_potato_guard <= 0) return;  // Guard disabled: nothing to assert.
  // Last speed pull per task; a returning pull completes the ping-pong.
  std::map<std::int64_t, MigrationRecord> last;
  for (const MigrationRecord& m : in.migrations) {
    if (m.cause != MigrationCause::SpeedBalancer || m.ts_us <= 0) continue;
    const auto it = last.find(m.task);
    if (it != last.end()) {
      const MigrationRecord& p = it->second;
      SimTime interval = in.interval;
      if (const obs::TuningRecord* r = tuning_at(in.tuning, m.ts_us))
        interval = r->interval_us;
      const SimTime window =
          static_cast<SimTime>(in.hot_potato_guard) * interval;
      if (m.from == p.to && m.to == p.from && m.ts_us - p.ts_us < window)
        add(out, "oscillation",
            "task " + std::to_string(m.task) + " pulled core " +
                std::to_string(p.from) + "->" + std::to_string(p.to) +
                " at t=" + std::to_string(p.ts_us) + "us and back " +
                std::to_string(m.from) + "->" + std::to_string(m.to) +
                " at t=" + std::to_string(m.ts_us) + "us, " +
                std::to_string(m.ts_us - p.ts_us) +
                "us apart inside the guard window " + std::to_string(window) +
                "us (" + std::to_string(in.hot_potato_guard) +
                " x interval " + std::to_string(interval) + "us)");
    }
    last[m.task] = m;
  }
}

void check_tuning_stability(const TuningRuleInputs& in,
                            std::vector<Violation>& out) {
  const obs::TuningRecord* prev = nullptr;
  std::int64_t last_change_epoch = -1;
  for (const obs::TuningRecord& r : in.tuning) {
    const std::string who = "tuning epoch " + std::to_string(r.epoch) + " (" +
                            obs::to_string(r.outcome) + ") at t=" +
                            std::to_string(r.ts_us) + "us";
    if (prev != nullptr) {
      if (r.epoch <= prev->epoch)
        add(out, "tuning-thrash",
            who + ": epoch not after previous epoch " +
                std::to_string(prev->epoch));
      if (r.ts_us < prev->ts_us)
        add(out, "tuning-thrash",
            who + ": timestamp before previous record at t=" +
                std::to_string(prev->ts_us) + "us");
      if (r.prev_arm != prev->arm)
        add(out, "tuning-thrash",
            who + ": prev_arm " + std::to_string(r.prev_arm) +
                " breaks the chain from the previous record's arm " +
                std::to_string(prev->arm) +
                " (unlogged parameter change between epochs)");
    }
    if (!in.portfolio.empty()) {
      if (r.arm < 0 || r.arm >= static_cast<int>(in.portfolio.size())) {
        add(out, "tuning-thrash",
            who + ": arm " + std::to_string(r.arm) + " outside portfolio of " +
                std::to_string(in.portfolio.size()) + " arms");
      } else {
        const TuningArm& a = in.portfolio[static_cast<std::size_t>(r.arm)];
        if (r.interval_us != a.interval || r.threshold != a.threshold ||
            r.post_migration_block != a.post_migration_block ||
            r.cache_block_scale != a.shared_cache_block_scale)
          add(out, "tuning-thrash",
              who + ": constants interval=" + std::to_string(r.interval_us) +
                  "us T_s=" + fmt(r.threshold) + " block=" +
                  std::to_string(r.post_migration_block) + " cache_scale=" +
                  fmt(r.cache_block_scale) + " do not match portfolio arm " +
                  std::to_string(r.arm) + " (" + a.name + ")");
      }
    }
    const bool changed = r.arm != r.prev_arm;
    const bool changing_outcome =
        r.outcome == obs::TuningOutcome::Bootstrap ||
        r.outcome == obs::TuningOutcome::Switched ||
        r.outcome == obs::TuningOutcome::Anticipated;
    if (changed && !changing_outcome)
      add(out, "tuning-thrash",
          who + ": arm changed " + std::to_string(r.prev_arm) + " -> " +
              std::to_string(r.arm) + " under a non-changing outcome");
    if (!changed && changing_outcome)
      add(out, "tuning-thrash",
          who + ": outcome claims a parameter change but the arm stayed " +
              std::to_string(r.arm));
    if (changed) {
      if (last_change_epoch >= 0 &&
          r.epoch - last_change_epoch < in.min_dwell_epochs)
        add(out, "tuning-thrash",
            who + ": parameter change only " +
                std::to_string(r.epoch - last_change_epoch) +
                " epoch(s) after the change at epoch " +
                std::to_string(last_change_epoch) + ", min dwell is " +
                std::to_string(in.min_dwell_epochs));
      last_change_epoch = r.epoch;
    }
    prev = &r;
  }
}

void check_serve_counters(const ServeCounters& c, std::vector<Violation>& out) {
  if (c.offered != c.admitted + c.dropped)
    add(out, "serve-counters",
        "offered " + std::to_string(c.offered) + " != admitted " +
            std::to_string(c.admitted) + " + dropped " +
            std::to_string(c.dropped));
  if (c.completed > c.admitted)
    add(out, "serve-counters",
        "completed " + std::to_string(c.completed) + " > admitted " +
            std::to_string(c.admitted));
  if (c.latency_count != c.completed)
    add(out, "serve-counters",
        "latency histogram holds " + std::to_string(c.latency_count) +
            " samples for " + std::to_string(c.completed) + " completions");
  if (c.queue_wait_count != c.completed)
    add(out, "serve-counters",
        "queue-wait histogram holds " + std::to_string(c.queue_wait_count) +
            " samples for " + std::to_string(c.completed) + " completions");
}

void check_cluster_conservation(const ClusterCounters& c,
                                std::vector<Violation>& out) {
  const std::int64_t accounted =
      c.total_completed + c.total_dropped + c.in_transit_end + c.in_flight_end;
  if (c.total_generated != accounted)
    add(out, "cluster-conservation",
        "generated " + std::to_string(c.total_generated) + " != completed " +
            std::to_string(c.total_completed) + " + dropped " +
            std::to_string(c.total_dropped) + " + in-transit " +
            std::to_string(c.in_transit_end) + " + in-flight " +
            std::to_string(c.in_flight_end));
  const std::int64_t undelivered = c.offered - c.admitted - c.dropped;
  if (undelivered < 0 || undelivered > c.in_transit_end)
    add(out, "cluster-conservation",
        "offered " + std::to_string(c.offered) + " - admitted " +
            std::to_string(c.admitted) + " - dropped " +
            std::to_string(c.dropped) + " = " + std::to_string(undelivered) +
            " outside [0, in-transit " + std::to_string(c.in_transit_end) +
            "]");
  if (c.completed > c.admitted)
    add(out, "cluster-conservation",
        "completed " + std::to_string(c.completed) + " > admitted " +
            std::to_string(c.admitted));
  if (c.latency_count != c.completed)
    add(out, "cluster-conservation",
        "latency histogram holds " + std::to_string(c.latency_count) +
            " samples for " + std::to_string(c.completed) + " completions");
  if (c.queue_wait_count != c.completed)
    add(out, "cluster-conservation",
        "queue-wait histogram holds " + std::to_string(c.queue_wait_count) +
            " samples for " + std::to_string(c.completed) + " completions");
}

void check_share_conservation(const ShareRuleInputs& in,
                              std::vector<Violation>& out) {
  // FP slack: the target computation renormalizes an O(cores)-term sum, so
  // 1e-9 is far above accumulated rounding and far below any real leak.
  constexpr double kEps = 1e-9;
  for (const obs::ShareRecord& r : in.records) {
    const std::string who = "epoch " + std::to_string(r.epoch) + " (" +
                            to_string(r.outcome) + ") at t=" +
                            std::to_string(r.ts_us) + "us";
    if (static_cast<int>(r.shares.size()) != in.cores) {
      add(out, "share-conservation",
          who + ": " + std::to_string(r.shares.size()) +
              " shares for " + std::to_string(in.cores) + " managed cores");
      continue;
    }
    double sum = 0.0;
    for (std::size_t c = 0; c < r.shares.size(); ++c) {
      const double s = r.shares[c];
      sum += s;
      if (!(s > 0.0) || s > 1.0 + kEps)
        add(out, "share-conservation",
            who + ": core " + std::to_string(c) + " share " + fmt(s) +
                " outside (0, 1]");
      if (s < in.min_share - kEps)
        add(out, "share-conservation",
            who + ": core " + std::to_string(c) + " share " + fmt(s) +
                " below floor min_share=" + fmt(in.min_share));
    }
    if (std::abs(sum - 1.0) > kEps)
      add(out, "share-conservation",
          who + ": shares sum to " + fmt(sum) + " != 1 (work not conserved)");
    for (std::size_t c = 0; c < r.speeds.size(); ++c)
      if (!(r.speeds[c] > 0.0) || !std::isfinite(r.speeds[c]))
        add(out, "share-conservation",
            who + ": core " + std::to_string(c) + " smoothed speed " +
                fmt(r.speeds[c]) + " not positive and finite");
  }
}

void check_span_conservation(const std::vector<obs::RequestSpan>& spans,
                             std::vector<Violation>& out) {
  constexpr double kEps = 1e-6;  // FP slack for the fractional stall only.
  for (const obs::RequestSpan& s : spans) {
    const std::string who = "request " + std::to_string(s.id) + " (worker " +
                            std::to_string(s.worker) + ")";
    if (s.queue_us() < 0 || s.exec_us < 0 || s.preempt_us() < 0)
      add(out, "span-conservation",
          who + ": negative component queue=" + std::to_string(s.queue_us()) +
              "us exec=" + std::to_string(s.exec_us) + "us preempt=" +
              std::to_string(s.preempt_us()) + "us");
    if (s.queue_us() + s.exec_us + s.preempt_us() != s.sojourn_us())
      add(out, "span-conservation",
          who + ": components sum to " +
              std::to_string(s.queue_us() + s.exec_us + s.preempt_us()) +
              "us != sojourn " + std::to_string(s.sojourn_us()) + "us");
    if (s.stall_us < -kEps ||
        s.stall_us > static_cast<double>(s.exec_us) + kEps)
      add(out, "span-conservation",
          who + ": stall " + fmt(s.stall_us) + "us outside [0, exec=" +
              std::to_string(s.exec_us) + "us]");
  }
}

void check_sampling_identity(const std::string& with_obs,
                             const std::string& without_obs,
                             std::vector<Violation>& out) {
  if (with_obs != without_obs)
    add(out, "sampling-identity",
        "recorded run digest {" + with_obs + "} != unrecorded run digest {" +
            without_obs + "}");
}

int fuzz_histogram_merge(std::uint64_t seed, std::vector<Violation>& out) {
  Rng rng(seed);
  const int n = static_cast<int>(rng.uniform_int(200, 2000));
  const int shards = static_cast<int>(rng.uniform_int(2, 8));

  LatencyHistogram whole;
  std::vector<LatencyHistogram> parts(static_cast<std::size_t>(shards));
  for (int i = 0; i < n; ++i) {
    // Mix magnitudes across the log-bucket range: ns to tens of seconds,
    // plus occasional extremes (0, negative -> clamps, huge values).
    std::int64_t ns;
    const double kind = rng.uniform();
    if (kind < 0.02) ns = 0;
    else if (kind < 0.04) ns = -static_cast<std::int64_t>(rng.uniform_int(1, 1000));
    else if (kind < 0.06) ns = static_cast<std::int64_t>(1) << rng.uniform_int(40, 61);
    else ns = static_cast<std::int64_t>(std::exp(rng.uniform(0.0, 24.0)));
    whole.record(ns);
    parts[static_cast<std::size_t>(rng.uniform_int(0, shards - 1))].record(ns);
  }

  LatencyHistogram merged;
  for (const LatencyHistogram& p : parts) merged.merge(p);

  if (merged.count() != whole.count())
    add(out, "histogram-merge",
        "merged count " + std::to_string(merged.count()) + " != " +
            std::to_string(whole.count()) + " recorded");
  if (merged.min() != whole.min() || merged.max() != whole.max())
    add(out, "histogram-merge",
        "merged min/max " + std::to_string(merged.min()) + "/" +
            std::to_string(merged.max()) + " != whole " +
            std::to_string(whole.min()) + "/" + std::to_string(whole.max()));
  // Bucket contents must match exactly, which makes every percentile query
  // identical (percentiles depend only on buckets + count + min + max).
  for (const double p : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0})
    if (merged.percentile(p) != whole.percentile(p))
      add(out, "histogram-merge",
          "p" + fmt(p) + ": merged " + fmt(merged.percentile(p)) +
              " != whole " + fmt(whole.percentile(p)));
  // The mean's FP sum depends on addition order; require agreement to 1e-9
  // relative, far tighter than any real drift and far looser than FP noise.
  const double denom = std::max(1.0, std::abs(whole.mean()));
  if (std::abs(merged.mean() - whole.mean()) / denom > 1e-9)
    add(out, "histogram-merge",
        "merged mean " + fmt(merged.mean()) + " deviates from whole " +
            fmt(whole.mean()));
  return n;
}

}  // namespace speedbal::check
