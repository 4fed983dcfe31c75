// Request-serving subsystem tests: dispatch policy behaviour, admission
// control, idle modes, and end-to-end serve runs under the balancers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <vector>

#include "obs/recorder.hpp"
#include "serve/dispatch.hpp"
#include "serve/scenarios.hpp"
#include "serve/server.hpp"
#include "topo/presets.hpp"
#include "util/parallel.hpp"

namespace speedbal::serve {
namespace {

// --- Dispatch unit behaviour -------------------------------------------------

TEST(Dispatch, RoundRobinCyclesThroughShards) {
  std::vector<ShardLoad> shards(3);
  std::uint64_t cursor = 0;
  EXPECT_EQ(pick_shard(DispatchPolicy::RoundRobin, shards, cursor), 0);
  EXPECT_EQ(pick_shard(DispatchPolicy::RoundRobin, shards, cursor), 1);
  EXPECT_EQ(pick_shard(DispatchPolicy::RoundRobin, shards, cursor), 2);
  EXPECT_EQ(pick_shard(DispatchPolicy::RoundRobin, shards, cursor), 0);
}

TEST(Dispatch, JsqPicksShortestQueueCountingInService) {
  // Shard 0: empty but busy (1 in flight); shard 1: idle; shard 2: deep.
  std::vector<ShardLoad> shards(3);
  shards[0].busy = true;
  shards[2].queued = 4;
  shards[2].busy = true;
  std::uint64_t cursor = 0;
  EXPECT_EQ(pick_shard(DispatchPolicy::JoinShortestQueue, shards, cursor), 1);
}

TEST(Dispatch, JsqBreaksTiesToLowestIndex) {
  std::vector<ShardLoad> shards(4);
  std::uint64_t cursor = 0;
  EXPECT_EQ(pick_shard(DispatchPolicy::JoinShortestQueue, shards, cursor), 0);
}

TEST(Dispatch, LeastLoadedComparesPendingDemandNotCounts) {
  // Shard 0 holds one huge request; shard 1 holds three tiny ones. JSQ would
  // pick shard 0; least-loaded must pick shard 1.
  std::vector<ShardLoad> shards(2);
  shards[0].queued = 1;
  shards[0].pending_us = 50000.0;
  shards[1].queued = 3;
  shards[1].pending_us = 30.0;
  std::uint64_t cursor = 0;
  EXPECT_EQ(pick_shard(DispatchPolicy::LeastLoaded, shards, cursor), 1);
  EXPECT_EQ(pick_shard(DispatchPolicy::JoinShortestQueue, shards, cursor), 0);
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

TEST(ServeNames, SetupNamesCoverEveryPolicy) {
  const auto names = serve_setup_names();
  EXPECT_EQ(names.size(), 7u);
  for (const char* n : {"SERVE-SPEED", "SERVE-LOAD", "SERVE-PINNED",
                        "SERVE-DWRR", "SERVE-ULE", "SERVE-NONE", "SERVE-SHARE"})
    EXPECT_NE(std::find(names.begin(), names.end(), n), names.end())
        << "missing " << n;
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
