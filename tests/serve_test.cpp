// Request-serving subsystem tests: dispatch policy behaviour, admission
// control, idle modes, and end-to-end serve runs under the balancers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <vector>

#include "obs/recorder.hpp"
#include "serve/dispatch.hpp"
#include "serve/scenarios.hpp"
#include "serve/server.hpp"
#include "topo/presets.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/winner_tree.hpp"

namespace speedbal::serve {
namespace {

// --- Dispatch unit behaviour -------------------------------------------------

/// The brute-force reference for the dispatch index's winner: the first
/// minimum of a linear scan, which is how dispatch picked before the index
/// existed.
int first_min(const std::vector<double>& keys) {
  int best = 0;
  for (int i = 1; i < static_cast<int>(keys.size()); ++i)
    if (keys[static_cast<std::size_t>(i)] < keys[static_cast<std::size_t>(best)])
      best = i;
  return best;
}

/// The index ServeRuntime keeps: every shard at 0.
WinnerTree<double> dispatch_index(int shards) { return {shards, 0.0}; }

WinnerTree<double> index_of(const std::vector<double>& keys) {
  WinnerTree<double> idx = dispatch_index(static_cast<int>(keys.size()));
  for (int i = 0; i < static_cast<int>(keys.size()); ++i)
    idx.update(i, keys[static_cast<std::size_t>(i)]);
  return idx;
}

TEST(Dispatch, RoundRobinCyclesThroughShards) {
  // Round-robin keeps no index: the runtime's cursor deals requests to the
  // shards in turn. At t=0 every worker is still in its bootstrap work, so
  // each request waits in the shard it was dealt to.
  Simulator sim(presets::generic(2));
  ServeParams params;
  params.workers = 3;
  params.dispatch = DispatchPolicy::RoundRobin;
  params.sample_interval = 0;
  ServeRuntime runtime(sim, params);
  const std::vector<CoreId> cores = {0, 1};
  runtime.open(cores, /*round_robin=*/true);
  const std::vector<std::vector<int>> expected = {
      {1, 0, 0}, {1, 1, 0}, {1, 1, 1}, {2, 1, 1}};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    Request r;
    r.id = static_cast<std::int64_t>(i);
    r.service_us = 100.0;
    ASSERT_TRUE(runtime.inject(r));
    for (int w = 0; w < 3; ++w)
      EXPECT_EQ(runtime.queued(w), expected[i][static_cast<std::size_t>(w)])
          << "after request " << i << ", shard " << w;
  }
}

TEST(Dispatch, JsqPicksShortestQueueCountingInService) {
  // JSQ keys are waiting + in service. Shard 0: empty but busy (1); shard 1:
  // idle (0); shard 2: four waiting behind one in service (5).
  EXPECT_EQ(index_of({1.0, 0.0, 5.0}).winner(), 1);
}

TEST(Dispatch, JsqBreaksTiesToLowestIndex) {
  WinnerTree<double> idx = dispatch_index(4);
  EXPECT_EQ(idx.winner(), 0);
  for (int i = 0; i < 4; ++i) idx.update(i, 2.0);
  EXPECT_EQ(idx.winner(), 0);
  idx.update(0, 3.0);
  EXPECT_EQ(idx.winner(), 1);
  idx.update(3, 1.0);
  EXPECT_EQ(idx.winner(), 3);
  idx.update(2, 1.0);
  EXPECT_EQ(idx.winner(), 2);
}

TEST(Dispatch, IndexPaddingNeverBeatsARealShard) {
  // Twelve shards pad to sixteen leaves whose keys are +inf: a real shard
  // ties them at +inf and still wins, being to their left.
  const double inf = std::numeric_limits<double>::infinity();
  WinnerTree<double> idx = dispatch_index(12);
  for (int i = 0; i < 12; ++i) idx.update(i, inf);
  EXPECT_EQ(idx.winner(), 0);
  idx.update(0, 1.0);
  idx.update(0, inf);
  EXPECT_EQ(idx.winner(), 0);
  idx.update(11, 5.0);
  EXPECT_EQ(idx.winner(), 11);
  idx.update(11, inf);
  idx.update(7, inf);
  EXPECT_EQ(idx.winner(), 0);
  EXPECT_EQ(idx.size(), 12);
}

TEST(Dispatch, LeastLoadedComparesPendingDemandNotCounts) {
  // Shard 0 holds one huge request; shard 1 holds three tiny ones. JSQ keys
  // (counts) pick shard 0; least-loaded keys (pending demand) pick shard 1.
  EXPECT_EQ(index_of({50000.0, 30.0}).winner(), 1);
  EXPECT_EQ(index_of({1.0, 3.0}).winner(), 0);
}

TEST(Dispatch, IndexMatchesFirstMinimumScanUnderRandomUpdates) {
  // Differential check against the linear scan, at power-of-two and odd
  // shard counts. JSQ keys are small counts, so ties are everywhere; the
  // least-loaded keys mix a few shared values (forced ties, including a
  // rounding-sized residue next to an exact zero) with arbitrary doubles.
  const std::vector<double> shared = {0.0, 5.551115123125783e-17, 0.5, 2000.25};
  for (const int n : {1, 2, 3, 32, 33, 65}) {
    for (const bool jsq : {true, false}) {
      Rng rng(static_cast<std::uint64_t>(1000 * n + (jsq ? 1 : 0)));
      WinnerTree<double> idx = dispatch_index(n);
      std::vector<double> keys(static_cast<std::size_t>(n), 0.0);
      ASSERT_EQ(idx.winner(), 0) << "n=" << n;
      for (int step = 0; step < 4000; ++step) {
        if (rng.uniform() < 0.01) {
          // Flatten: every shard at one shared key.
          const double k = jsq ? static_cast<double>(rng.uniform_int(0, 3))
                               : shared[rng.uniform_u64(shared.size())];
          for (int i = 0; i < n; ++i) {
            keys[static_cast<std::size_t>(i)] = k;
            idx.update(i, k);
          }
        } else {
          const int i = static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(n)));
          double k;
          if (jsq) {
            k = static_cast<double>(rng.uniform_int(0, 4));
          } else if (rng.uniform() < 0.5) {
            k = shared[rng.uniform_u64(shared.size())];
          } else {
            k = rng.uniform(0.0, 5000.0);
          }
          keys[static_cast<std::size_t>(i)] = k;
          idx.update(i, k);
        }
        ASSERT_EQ(idx.winner(), first_min(keys))
            << "n=" << n << (jsq ? " jsq" : " least-loaded") << " step=" << step;
      }
    }
  }
}

// --- Name parsing ------------------------------------------------------------

TEST(ServeNames, IdleModeRoundTripsAndRejectsUnknown) {
  EXPECT_EQ(parse_idle_mode("sleep"), IdleMode::Sleep);
  EXPECT_EQ(parse_idle_mode("yield"), IdleMode::Yield);
  EXPECT_STREQ(to_string(IdleMode::Sleep), "sleep");
  EXPECT_STREQ(to_string(IdleMode::Yield), "yield");
  try {
    parse_idle_mode("spin");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("available: sleep, yield"),
              std::string::npos)
        << e.what();
  }
}

TEST(ServeNames, ServePolicyErrorListsAllPolicies) {
  EXPECT_EQ(parse_serve_policy("SPEED"), Policy::Speed);
  EXPECT_EQ(parse_serve_policy("DWRR"), Policy::Dwrr);
  try {
    parse_serve_policy("FASTEST");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    for (const char* name : {"SPEED", "LOAD", "PINNED", "DWRR", "ULE", "NONE"})
      EXPECT_NE(msg.find(name), std::string::npos) << "missing " << name
                                                   << " in: " << msg;
  }
}

// --- End-to-end serve runs ---------------------------------------------------

/// A short pinned-worker run used to isolate one variable at a time.
ServeConfig base_config(const Topology& topo, int cores) {
  ServeConfig config;
  config.topo = topo;
  config.cores = cores;
  config.policy = Policy::Pinned;  // No balancer motion: dispatch is isolated.
  config.serve.workers = cores;
  config.service.kind = workload::ServiceKind::Exp;
  config.service.mean_us = 5000.0;
  config.duration = sec(5);
  config.warmup = msec(500);
  config.seed = 7;
  return config;
}

TEST(ServeRun, JsqBeatsRoundRobinOnP99UnderHeterogeneousCoreSpeeds) {
  // Cores 0-1 run at 2x, cores 2-3 at 1x. Round-robin sends each pinned
  // worker the same request rate, so at 85% total utilization the workers on
  // slow cores are individually overloaded and their queues dominate the
  // tail; JSQ routes by backlog and stays stable on every shard.
  const Topology topo = presets::asymmetric(4, 2, 2.0);
  ServeConfig config = base_config(topo, 4);
  config.arrival.rate_rps = rate_for_utilization(topo, 4, 0.85, 5000.0);

  config.serve.dispatch = DispatchPolicy::RoundRobin;
  const ServeResult rr = run_serve(config);
  config.serve.dispatch = DispatchPolicy::JoinShortestQueue;
  const ServeResult jsq = run_serve(config);

  ASSERT_GT(rr.stats.completed, 0);
  ASSERT_GT(jsq.stats.completed, 0);
  EXPECT_LT(jsq.stats.latency.percentile(99),
            rr.stats.latency.percentile(99) * 0.5)
      << "jsq p99 " << jsq.stats.latency.percentile(99) / 1e6 << "ms vs rr "
      << rr.stats.latency.percentile(99) / 1e6 << "ms";
  EXPECT_LE(jsq.stats.dropped, rr.stats.dropped);
}

TEST(ServeRun, AdmissionControlBoundsQueueDepthAndSheds) {
  // Offered load at 2x capacity with tiny queues: the runtime must shed the
  // excess at admission, never let a shard queue exceed its bound, and keep
  // the request accounting identity offered = admitted + dropped.
  ServeConfig config = base_config(presets::generic(2), 2);
  config.serve.queue_capacity = 4;
  config.arrival.rate_rps = rate_for_utilization(config.topo, 2, 2.0, 5000.0);
  config.duration = sec(3);

  const ServeResult r = run_serve(config);
  EXPECT_GT(r.stats.dropped, 0);
  EXPECT_GT(r.stats.completed, 0);
  EXPECT_LE(r.stats.max_queue_depth, 4);
  EXPECT_EQ(r.stats.offered, r.stats.admitted + r.stats.dropped);
  EXPECT_LE(r.stats.completed, r.stats.admitted);
  // Goodput saturates near capacity (2 cores / 5ms mean = 400 req/s).
  EXPECT_GT(r.goodput_rps, 300.0);
  EXPECT_LT(r.goodput_rps, 440.0);
}

TEST(ServeRun, UnboundedQueueNeverDrops) {
  ServeConfig config = base_config(presets::generic(2), 2);
  config.serve.queue_capacity = 0;  // Disable admission control.
  config.arrival.rate_rps = rate_for_utilization(config.topo, 2, 1.5, 5000.0);
  config.duration = sec(2);
  const ServeResult r = run_serve(config);
  EXPECT_EQ(r.stats.dropped, 0);
  EXPECT_EQ(r.stats.offered, r.stats.admitted);
}

TEST(ServeRun, SpeedMigratesBusyPollWorkersOffThrottledCores) {
  // The bench scenario in miniature: busy-poll workers, half the cores DVFS
  // to half speed mid-run. SPEED must move work (migrations happen) and
  // sustain the offered load without shedding.
  ServeConfig config = base_config(presets::generic(4), 4);
  config.policy = Policy::Speed;
  config.serve.workers = 8;
  config.serve.idle = IdleMode::Yield;
  // Offered at 70% of the *post-throttle* capacity (4 - 2*0.5 = 3).
  config.arrival.rate_rps = 0.7 * 3.0 * 1e6 / 5000.0;
  config.perturb = perturb::PerturbTimeline::parse_specs(
      "at=100ms dvfs core=0 scale=0.5; at=100ms dvfs core=1 scale=0.5");

  const ServeResult r = run_serve(config);
  EXPECT_GT(r.stats.completed, 0);
  EXPECT_GT(r.total_migrations, 0);
  EXPECT_EQ(r.stats.dropped, 0);
  // Goodput tracks the offered rate (420 req/s) through the throttle.
  EXPECT_GT(r.goodput_rps, 0.9 * config.arrival.rate_rps);
}

// --- Request spans -----------------------------------------------------------

/// The SpeedMigratesBusyPollWorkers scenario with tracing on: migrations and
/// DVFS give the spans non-trivial preempt/stall components.
ServeConfig traced_config(int span_sampling_log2, obs::RunRecorder* rec) {
  ServeConfig config = base_config(presets::generic(4), 4);
  config.policy = Policy::Speed;
  config.serve.workers = 8;
  config.serve.idle = IdleMode::Yield;
  config.serve.span_sampling_log2 = span_sampling_log2;
  config.arrival.rate_rps = 0.7 * 3.0 * 1e6 / 5000.0;
  config.duration = sec(3);
  config.perturb = perturb::PerturbTimeline::parse_specs(
      "at=100ms dvfs core=0 scale=0.5; at=100ms dvfs core=1 scale=0.5");
  config.recorder = rec;
  return config;
}

TEST(ServeSpans, EverySpanPartitionsItsSojournExactly) {
  obs::RunRecorder rec;
  const ServeResult r = run_serve(traced_config(0, &rec));
  const auto spans = rec.spans().snapshot();

  ASSERT_GT(r.stats.completed, 0);
  // 1/1 sampling: one span per measured completion, none dropped.
  EXPECT_EQ(static_cast<std::int64_t>(spans.size()), r.stats.completed);
  EXPECT_EQ(rec.spans().dropped(), 0);

  for (const auto& s : spans) {
    EXPECT_LE(s.arrival_us, s.started_us) << "request " << s.id;
    EXPECT_LE(s.started_us, s.completed_us) << "request " << s.id;
    EXPECT_GE(s.exec_us, 0) << "request " << s.id;
    EXPECT_GE(s.preempt_us(), 0) << "request " << s.id;
    EXPECT_EQ(s.queue_us() + s.exec_us + s.preempt_us(), s.sojourn_us())
        << "request " << s.id;
    EXPECT_GE(s.stall_us, 0.0) << "request " << s.id;
    EXPECT_LE(s.stall_us, static_cast<double>(s.exec_us) + 1e-6)
        << "request " << s.id;
    EXPECT_GE(s.worker, 0) << "request " << s.id;
  }
}

TEST(ServeSpans, SamplingSelectsIdSubsetWithIdenticalMeasurements) {
  obs::RunRecorder full_rec;
  const ServeResult full = run_serve(traced_config(0, &full_rec));
  obs::RunRecorder sampled_rec;
  const ServeResult sampled = run_serve(traced_config(6, &sampled_rec));

  // Sampling is observation only: the simulation is unchanged.
  EXPECT_EQ(full.stats.completed, sampled.stats.completed);
  EXPECT_EQ(full.stats.offered, sampled.stats.offered);
  EXPECT_EQ(full.total_migrations, sampled.total_migrations);
  EXPECT_DOUBLE_EQ(full.goodput_rps, sampled.goodput_rps);

  const auto all = full_rec.spans().snapshot();
  const auto subset = sampled_rec.spans().snapshot();
  ASSERT_GT(subset.size(), 0u);
  EXPECT_LT(subset.size(), all.size());

  std::map<std::int64_t, obs::RequestSpan> by_id;
  for (const auto& s : all) by_id[s.id] = s;
  for (const auto& s : subset) {
    EXPECT_EQ(s.id & 63, 0) << "request " << s.id << " should not be sampled";
    const auto it = by_id.find(s.id);
    ASSERT_NE(it, by_id.end()) << "request " << s.id;
    EXPECT_EQ(s.worker, it->second.worker) << "request " << s.id;
    EXPECT_EQ(s.arrival_us, it->second.arrival_us) << "request " << s.id;
    EXPECT_EQ(s.started_us, it->second.started_us) << "request " << s.id;
    EXPECT_EQ(s.completed_us, it->second.completed_us) << "request " << s.id;
    EXPECT_EQ(s.exec_us, it->second.exec_us) << "request " << s.id;
    EXPECT_DOUBLE_EQ(s.stall_us, it->second.stall_us) << "request " << s.id;
    EXPECT_EQ(s.migrations, it->second.migrations) << "request " << s.id;
  }
}

TEST(ServeSpans, RecorderPresenceDoesNotChangeTheRun) {
  obs::RunRecorder rec;
  const ServeResult traced = run_serve(traced_config(0, &rec));
  const ServeResult bare = run_serve(traced_config(0, nullptr));
  EXPECT_EQ(traced.stats.completed, bare.stats.completed);
  EXPECT_EQ(traced.stats.offered, bare.stats.offered);
  EXPECT_EQ(traced.stats.dropped, bare.stats.dropped);
  EXPECT_EQ(traced.generated, bare.generated);
  EXPECT_EQ(traced.total_migrations, bare.total_migrations);
  EXPECT_DOUBLE_EQ(traced.goodput_rps, bare.goodput_rps);
  EXPECT_EQ(traced.stats.latency.count(), bare.stats.latency.count());
  EXPECT_EQ(traced.stats.latency.min(), bare.stats.latency.min());
  EXPECT_EQ(traced.stats.latency.max(), bare.stats.latency.max());
}

TEST(ServeSpans, NegativeSamplingDisablesSpanCapture) {
  obs::RunRecorder rec;
  const ServeResult r = run_serve(traced_config(-1, &rec));
  EXPECT_GT(r.stats.completed, 0);
  EXPECT_EQ(rec.spans().size(), 0u);
}

// --- Completion routing ------------------------------------------------------

TEST(ServeRuntime, CompletionLookupIsIdKeyedAndRejectsForeignTasks) {
  // Regression for the O(workers) linear scan in on_work_complete: the
  // replacement maps TaskId -> worker index directly. A decoy task created
  // *before* open() offsets every worker's TaskId from its worker index, so
  // a lookup conflating the two misroutes every completion; the run below
  // only drains cleanly if routing is id-keyed.
  Simulator sim(presets::generic(2));
  TaskSpec decoy_spec;
  decoy_spec.name = "decoy";
  Task& decoy = sim.create_task(decoy_spec);  // TaskId 0: not a worker.

  ServeParams params;
  params.workers = 2;
  params.sample_interval = 0;
  ServeRuntime runtime(sim, params);
  const std::vector<CoreId> cores = {0, 1};
  runtime.open(cores, /*round_robin=*/true);

  constexpr int kRequests = 16;
  sim.schedule_at(msec(1), [&] {
    for (int i = 0; i < kRequests; ++i) {
      Request r;
      r.id = i;
      r.arrival = sim.now();
      r.service_us = 200.0;
      EXPECT_TRUE(runtime.inject(r));
    }
  });
  sim.run_until(sec(1));

  EXPECT_EQ(runtime.stats().completed, kRequests);
  EXPECT_EQ(runtime.in_flight(), 0);
  EXPECT_EQ(runtime.total_queued(), 0);

  // Tasks that are not this pool's workers must be rejected loudly — both
  // ids below the map's range (the decoy) and ids past its end (a task
  // created after the pool opened).
  EXPECT_THROW(runtime.on_work_complete(sim, decoy), std::logic_error);
  TaskSpec late_spec;
  late_spec.name = "late";
  Task& late = sim.create_task(late_spec);
  EXPECT_THROW(runtime.on_work_complete(sim, late), std::logic_error);
}

TEST(ServeRuntime, WithoutAHookEveryCompletionIsRecorded) {
  // No completion hook: the runtime owns the latency record, so both
  // histograms hold one sample per completed request. Half the requests
  // arrive before warmup ends and count nowhere.
  Simulator sim(presets::generic(2));
  ServeParams params;
  params.workers = 2;
  params.sample_interval = 0;
  params.warmup = msec(5);
  ServeRuntime runtime(sim, params);
  const std::vector<CoreId> cores = {0, 1};
  runtime.open(cores, /*round_robin=*/true);

  for (const SimTime at : {msec(1), msec(10)}) {
    sim.schedule_at(at, [&sim, &runtime, at, &params] {
      for (int i = 0; i < 8; ++i) {
        Request r;
        r.id = at / 1000 * 100 + i;
        r.arrival = sim.now();
        r.service_us = 300.0;
        r.recorded = at >= params.warmup;
        EXPECT_TRUE(runtime.inject(r));
      }
    });
  }
  sim.run_until(sec(1));

  const ServeStats& st = runtime.stats();
  EXPECT_EQ(st.completed, 8);
  EXPECT_EQ(st.latency.count(), st.completed);
  EXPECT_EQ(st.queue_wait.count(), st.completed);
}

TEST(ServeRuntime, LeastLoadedIndexIsFreshInsideTheCompletionHook) {
  // A cluster's completion hook may inject into the pool whose request just
  // finished, before the worker picks its next one, so the finished request
  // must already be off its shard's key. Three shards on three cores: A (3
  // ms) and B (2 ms) start at 1 ms, C (1.5 ms) at 2 ms. When B completes at
  // 3 ms the keys are 3000 / 0 / 1500, and the hook's request D belongs on
  // B's shard; a stale key (2000) would send it to C's.
  Simulator sim(presets::generic(4));
  ServeParams params;
  params.workers = 3;
  params.dispatch = DispatchPolicy::LeastLoaded;
  params.sample_interval = 0;
  ServeRuntime runtime(sim, params);
  const std::vector<CoreId> cores = {0, 1, 2};
  runtime.open(cores, /*round_robin=*/true);

  const auto make = [&sim](std::int64_t id, double service_us) {
    Request r;
    r.id = id;
    r.arrival = sim.now();
    r.service_us = service_us;
    return r;
  };
  std::vector<int> queued_after_d;
  runtime.set_completion_hook([&](const Request& done) {
    if (done.id != 1) return;  // B.
    ASSERT_TRUE(runtime.inject(make(3, 100.0)));
    for (int w = 0; w < 3; ++w) queued_after_d.push_back(runtime.queued(w));
  });
  sim.schedule_at(msec(1), [&] {
    ASSERT_TRUE(runtime.inject(make(0, 3000.0)));
    ASSERT_TRUE(runtime.inject(make(1, 2000.0)));
  });
  sim.schedule_at(msec(2), [&] { ASSERT_TRUE(runtime.inject(make(2, 1500.0))); });
  sim.run_until(sec(1));

  EXPECT_EQ(queued_after_d, (std::vector<int>{0, 1, 0}));
  EXPECT_EQ(runtime.stats().completed, 4);
}

TEST(ServeRuntime, LeastLoadedDrainedShardKeepsItsIndexTie) {
  // Shard 0 serves H0 (1 ms) and then drains a burst of 0.1 / 0.2 / 0.3 us
  // requests while shard 1 serves H1 (1 s). Subtracting the burst from its
  // running demand sum in FIFO order leaves a rounding residue (about
  // 5.6e-17), so unless the drained shard's demand returns to exactly 0,
  // shard 0 loses the tie with the equally idle shard 1 by a hair. Once
  // both are idle the probe must go to shard 0, the lower index.
  Simulator sim(presets::generic(2));
  ServeParams params;
  params.workers = 2;
  params.dispatch = DispatchPolicy::LeastLoaded;
  params.sample_interval = 0;
  params.span_sampling_log2 = 0;
  ServeRuntime runtime(sim, params);
  obs::RunRecorder rec;
  runtime.set_recorder(&rec);
  const std::vector<CoreId> cores = {0, 1};
  runtime.open(cores, /*round_robin=*/true);

  std::int64_t next_id = 0;
  const auto inject = [&](double service_us) {
    Request r;
    r.id = next_id++;
    r.arrival = sim.now();
    r.service_us = service_us;
    ASSERT_TRUE(runtime.inject(r));
  };
  sim.schedule_at(msec(1), [&] {
    inject(1000.0);  // H0 -> shard 0 (tie at 0, lowest index).
    inject(1e6);     // H1 -> shard 1.
    for (const double us : {0.1, 0.2, 0.3}) inject(us);  // Behind H0.
    EXPECT_EQ(runtime.queued(0), 3);
  });
  sim.schedule_at(sec(2), [&] { inject(50.0); });  // The probe, id 5.
  sim.run_until(sec(3));

  ASSERT_EQ(runtime.stats().completed, 6);
  int probe_worker = -1;
  for (const obs::RequestSpan& s : rec.spans().snapshot())
    if (s.id == 5) probe_worker = s.worker;
  EXPECT_EQ(probe_worker, 0);
}

TEST(ServeRun, CapacityAndRateHelpers) {
  const Topology topo = presets::asymmetric(4, 2, 2.0);
  EXPECT_DOUBLE_EQ(capacity(topo, 4), 6.0);
  EXPECT_DOUBLE_EQ(capacity(topo, 2), 4.0);
  // util * capacity * 1e6 / mean_us.
  EXPECT_DOUBLE_EQ(rate_for_utilization(topo, 4, 0.5, 5000.0), 600.0);
}

// --- Replica runner ----------------------------------------------------------
// run_replicas is checked on a stub run so each rule of the skeleton shows on
// its own: salted seeds, the recorder on replica 0 only, no per-replica
// export, replica-order merge, goodput averaged, one export of the merge.

struct StubConfig {
  std::uint64_t seed = 5;
  obs::RunRecorder* recorder = nullptr;
  bool export_result = true;
};

struct StubResult {
  std::vector<std::uint64_t> seeds;  ///< Replica seeds, in merge order.
  int recorded = 0;  ///< Replicas that saw the recorder.
  int exported = 0;  ///< Replicas allowed to export their own result.
  double goodput_rps = 0.0;
};

void export_result_to_recorder(const StubResult& result,
                               obs::RunRecorder& rec) {
  rec.incr("stub.exports");
  rec.set_counter("stub.replicas",
                  static_cast<std::int64_t>(result.seeds.size()));
}

StubResult stub_run(const StubConfig& config) {
  StubResult r;
  r.seeds = {config.seed};
  r.recorded = config.recorder != nullptr ? 1 : 0;
  r.exported = config.export_result ? 1 : 0;
  r.goodput_rps = static_cast<double>(config.seed % 1000);
  return r;
}

void stub_merge(StubResult& out, const StubResult& run) {
  out.seeds.insert(out.seeds.end(), run.seeds.begin(), run.seeds.end());
  out.recorded += run.recorded;
  out.exported += run.exported;
}

TEST(ReplicaRunner, SaltsSeedsRecordsReplicaZeroAndExportsTheMergeOnce) {
  for (const int jobs : {1, 3}) {
    obs::RunRecorder rec;
    StubConfig config;
    config.recorder = &rec;
    const StubResult out = run_replicas(config, 4, jobs, stub_run, stub_merge);
    ASSERT_EQ(out.seeds.size(), 4u) << "jobs=" << jobs;
    double goodput_sum = 0.0;
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(out.seeds[static_cast<std::size_t>(r)], replica_seed(5, r));
      goodput_sum += static_cast<double>(replica_seed(5, r) % 1000);
    }
    EXPECT_EQ(out.recorded, 1);
    EXPECT_EQ(out.exported, 0);
    EXPECT_DOUBLE_EQ(out.goodput_rps, goodput_sum / 4.0);
    const auto counters = rec.counters();
    EXPECT_EQ(counters.at("stub.exports"), 1);
    EXPECT_EQ(counters.at("stub.replicas"), 4);
  }
}

TEST(ReplicaRunner, OneRepeatIsThePlainRun) {
  obs::RunRecorder rec;
  StubConfig config;
  config.recorder = &rec;
  const StubResult out = run_replicas(config, 1, 4, stub_run, stub_merge);
  EXPECT_EQ(out.seeds, (std::vector<std::uint64_t>{5}));
  EXPECT_EQ(out.recorded, 1);
  EXPECT_EQ(out.exported, 1);  // The run exports its own result.
  EXPECT_EQ(rec.counters().count("stub.exports"), 0u);
}

TEST(ReplicaRunner, NoExportWhenTheCallerDisablesIt) {
  obs::RunRecorder rec;
  StubConfig config;
  config.recorder = &rec;
  config.export_result = false;
  const StubResult out = run_replicas(config, 3, 2, stub_run, stub_merge);
  EXPECT_EQ(out.recorded, 1);
  EXPECT_EQ(rec.counters().count("stub.exports"), 0u);
}

}  // namespace
}  // namespace speedbal::serve
