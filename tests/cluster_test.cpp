// Cluster subsystem tests: pool dispatch policy, ServeRuntime migration
// hooks (drain/retire), the global rebalancer, conservation across nodes,
// and replica determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "check/invariants.hpp"
#include "cluster/cluster.hpp"
#include "cluster/policy.hpp"
#include "perturb/timeline.hpp"
#include "serve/server.hpp"
#include "topo/presets.hpp"
#include "util/rng.hpp"

namespace speedbal::cluster {
namespace {

// --- pick_pool unit behaviour ------------------------------------------------

TEST(ClusterDispatchPolicy, RoundRobinCyclesOverPools) {
  std::vector<PoolLoad> pools(3);
  std::uint64_t cursor = 0;
  Rng rng(1);
  EXPECT_EQ(pick_pool(ClusterDispatch::RoundRobin, 2, pools, cursor, rng), 0);
  EXPECT_EQ(pick_pool(ClusterDispatch::RoundRobin, 2, pools, cursor, rng), 1);
  EXPECT_EQ(pick_pool(ClusterDispatch::RoundRobin, 2, pools, cursor, rng), 2);
  EXPECT_EQ(pick_pool(ClusterDispatch::RoundRobin, 2, pools, cursor, rng), 0);
}

TEST(ClusterDispatchPolicy, LeastLoadedPicksMinAndBreaksTiesLow) {
  std::vector<PoolLoad> pools(4);
  pools[0].assigned = 3;
  pools[1].assigned = 1;
  pools[2].assigned = 1;
  pools[3].assigned = 5;
  std::uint64_t cursor = 0;
  Rng rng(1);
  EXPECT_EQ(pick_pool(ClusterDispatch::LeastLoaded, 2, pools, cursor, rng), 1);
}

TEST(ClusterDispatchPolicy, JsqDWithDPastPoolCountDegradesToFullJsq) {
  // d far beyond the pool count must sample every pool, i.e. behave as
  // plain least-loaded, never fault or loop.
  std::vector<PoolLoad> pools(3);
  pools[0].assigned = 7;
  pools[1].assigned = 2;
  pools[2].assigned = 9;
  std::uint64_t cursor = 0;
  Rng rng(99);
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(pick_pool(ClusterDispatch::JsqD, 64, pools, cursor, rng), 1);
}

TEST(ClusterDispatchPolicy, JsqDDrawCountIndependentOfLoads) {
  // Two rngs, same seed, different load vectors: after one pick each, the
  // rngs must still agree (the draw count depends only on d and n, so the
  // dispatch stream stays aligned across replicas with different traffic).
  std::vector<PoolLoad> a(6);
  std::vector<PoolLoad> b(6);
  for (int i = 0; i < 6; ++i) b[static_cast<std::size_t>(i)].assigned = 10 - i;
  std::uint64_t ca = 0;
  std::uint64_t cb = 0;
  Rng ra(42);
  Rng rb(42);
  pick_pool(ClusterDispatch::JsqD, 3, a, ca, ra);
  pick_pool(ClusterDispatch::JsqD, 3, b, cb, rb);
  EXPECT_EQ(ra.uniform_u64(1u << 30), rb.uniform_u64(1u << 30));
}

/// The textbook JSQ(d) sampler: a fresh identity id array on every pick, a
/// partial Fisher-Yates over it, and the least loaded of the sample with
/// ties to the lowest id.
int naive_jsq(int d, const std::vector<PoolLoad>& pools, Rng& rng) {
  const int n = static_cast<int>(pools.size());
  const int k = std::clamp(d, 1, n);
  std::vector<int> ids(static_cast<std::size_t>(n));
  std::iota(ids.begin(), ids.end(), 0);
  int best = -1;
  for (int i = 0; i < k; ++i) {
    const auto j = static_cast<int>(rng.uniform_int(i, n - 1));
    std::swap(ids[static_cast<std::size_t>(i)], ids[static_cast<std::size_t>(j)]);
    const int cand = ids[static_cast<std::size_t>(i)];
    const std::int64_t c = pools[static_cast<std::size_t>(cand)].assigned;
    if (best < 0 || c < pools[static_cast<std::size_t>(best)].assigned ||
        (c == pools[static_cast<std::size_t>(best)].assigned && cand < best))
      best = cand;
  }
  return best;
}

TEST(ClusterDispatchPolicy, JsqDMatchesNaiveFullResetSampler) {
  // Same pick and same RNG state as the naive sampler on every call. The
  // pool count changes from call to call, so the sampler's reused id array
  // must come back to the identity after each pick whatever n was.
  Rng load_rng(5);
  Rng fast(77);
  Rng naive(77);
  std::uint64_t cursor = 0;
  std::vector<PoolLoad> pools;
  const int sizes[] = {1, 2, 3, 256};
  for (int call = 0; call < 10000; ++call) {
    const int n = sizes[call % 4];
    const int ds[] = {1, 2, n, n + 5};
    const int d = ds[(call / 4) % 4];
    pools.assign(static_cast<std::size_t>(n), {});
    // Loads in a narrow range, so ties (and the lowest-id rule) are common.
    for (PoolLoad& p : pools) p.assigned = load_rng.uniform_int(0, 3);
    ASSERT_EQ(pick_pool(ClusterDispatch::JsqD, d, pools, cursor, fast),
              naive_jsq(d, pools, naive))
        << "call " << call << " n=" << n << " d=" << d;
    Rng fast_next = fast;
    Rng naive_next = naive;
    ASSERT_EQ(fast_next.next_u64(), naive_next.next_u64()) << "call " << call;
  }
}

TEST(ClusterDispatchPolicy, NamesRoundTrip) {
  for (ClusterDispatch d : {ClusterDispatch::RoundRobin,
                            ClusterDispatch::LeastLoaded,
                            ClusterDispatch::JsqD})
    EXPECT_EQ(parse_cluster_dispatch(to_string(d)), d);
  EXPECT_THROW(parse_cluster_dispatch("jsq2"), std::invalid_argument);
}

// --- ServeRuntime migration hooks --------------------------------------------

serve::Request make_request(std::int64_t id, SimTime arrival,
                            double service_us) {
  serve::Request r;
  r.id = id;
  r.arrival = arrival;
  r.service_us = service_us;
  r.recorded = true;
  return r;
}

TEST(PoolMigrationHooks, DrainReturnsWaitingRequestsInShardFifoOrder) {
  Simulator sim(presets::generic(2), {}, 1);
  serve::ServeParams params;
  params.workers = 2;
  params.queue_capacity = 16;
  params.dispatch = serve::DispatchPolicy::RoundRobin;
  serve::ServeRuntime rt(sim, params);
  const std::vector<CoreId> cores = {0, 1};
  rt.open(cores, /*round_robin=*/true);

  // Long requests head each shard into service; the rest wait.
  for (int i = 0; i < 6; ++i)
    ASSERT_TRUE(rt.inject(make_request(i, 0, 50000.0)));
  sim.run_until(usec(100));  // Workers pick up their heads.
  EXPECT_EQ(rt.in_flight(), 6);
  EXPECT_EQ(rt.total_queued(), 4);

  const std::vector<serve::Request> drained = rt.drain_queued();
  ASSERT_EQ(drained.size(), 4u);
  // Round-robin dispatch interleaved ids over 2 shards: shard 0 queued
  // {2, 4}, shard 1 queued {3, 5}; drain walks shard 0 then shard 1, FIFO.
  EXPECT_EQ(drained[0].id, 2);
  EXPECT_EQ(drained[1].id, 4);
  EXPECT_EQ(drained[2].id, 3);
  EXPECT_EQ(drained[3].id, 5);
  EXPECT_EQ(rt.total_queued(), 0);
  EXPECT_EQ(rt.in_flight(), 2);  // The two in-service requests stay.
}

TEST(PoolMigrationHooks, RetireAfterDrainFinishesWorkersAndRejectsInject) {
  Simulator sim(presets::generic(2), {}, 1);
  serve::ServeParams params;
  params.workers = 2;
  serve::ServeRuntime rt(sim, params);
  const std::vector<CoreId> cores = {0, 1};
  rt.open(cores, /*round_robin=*/true);

  ASSERT_TRUE(rt.inject(make_request(0, 0, 1000.0)));
  EXPECT_THROW(rt.retire(), std::logic_error);  // Still holds work.

  sim.run_until(msec(50));  // Let the request finish.
  EXPECT_EQ(rt.in_flight(), 0);
  rt.retire();
  EXPECT_TRUE(rt.retired());
  rt.retire();  // Idempotent.
  for (const Task* t : rt.workers())
    EXPECT_EQ(t->state(), TaskState::Finished);
  EXPECT_THROW(rt.inject(make_request(1, sim.now(), 1000.0)),
               std::logic_error);
}

TEST(PoolMigrationHooks, CompletionHookSeesEveryFinishedRequest) {
  Simulator sim(presets::generic(2), {}, 1);
  serve::ServeParams params;
  params.workers = 2;
  serve::ServeRuntime rt(sim, params);
  std::vector<std::int64_t> completed;
  rt.set_completion_hook(
      [&](const serve::Request& r) { completed.push_back(r.id); });
  const std::vector<CoreId> cores = {0, 1};
  rt.open(cores, /*round_robin=*/true);
  for (int i = 0; i < 5; ++i)
    ASSERT_TRUE(rt.inject(make_request(i, 0, 2000.0)));
  sim.run_until(msec(100));
  EXPECT_EQ(completed.size(), 5u);
  // The hook owns the latency record: the pool keeps its counters but
  // leaves its own histograms empty.
  EXPECT_EQ(rt.stats().completed, 5);
  EXPECT_EQ(rt.stats().latency.count(), 0);
  EXPECT_EQ(rt.stats().queue_wait.count(), 0);
}

// --- End-to-end cluster runs -------------------------------------------------

ClusterConfig base_config(int nodes) {
  ClusterConfig config;
  config.nodes = nodes;
  config.pools_per_node = 1;
  config.topo = presets::generic(4);
  config.cores = 4;
  config.policy = Policy::Pinned;  // No balancer motion inside nodes.
  config.serve.workers = 4;
  config.service.kind = workload::ServiceKind::Exp;
  config.service.mean_us = 5000.0;
  config.arrival.rate_rps =
      static_cast<double>(nodes) *
      serve::rate_for_utilization(config.topo, 4, 0.6, 5000.0);
  config.duration = sec(2);
  config.warmup = msec(200);
  config.seed = 7;
  return config;
}

void expect_conservation(const ClusterStats& s) {
  EXPECT_EQ(s.total_generated, s.total_completed + s.total_dropped +
                                   s.in_transit_end + s.in_flight_end)
      << "generated=" << s.total_generated
      << " completed=" << s.total_completed << " dropped=" << s.total_dropped
      << " in_transit=" << s.in_transit_end
      << " in_flight=" << s.in_flight_end;
  EXPECT_GE(s.offered - s.admitted - s.dropped, 0);
  EXPECT_LE(s.offered - s.admitted - s.dropped, s.in_transit_end);
  EXPECT_EQ(s.latency.count(), s.completed);
  EXPECT_EQ(s.queue_wait.count(), s.completed);
}

TEST(ClusterRun, ConservesRequestsAcrossNodes) {
  const ClusterResult res = run_cluster(base_config(4));
  ASSERT_GT(res.stats.completed, 0);
  expect_conservation(res.stats);
  std::int64_t by_node = 0;
  for (const std::int64_t n : res.completed_by_node) by_node += n;
  EXPECT_EQ(by_node, res.stats.completed);
}

TEST(ClusterRun, MigrationDrainsQueuedRequestsWithoutLosingAny) {
  // Node 0 runs at 1/10 speed from the start; round-robin dispatch keeps
  // feeding it, so its queues grow until the rebalancer moves the pool.
  // Conservation must hold exactly across the drain + re-delivery.
  ClusterConfig config = base_config(2);
  config.dispatch = ClusterDispatch::RoundRobin;
  config.serve.queue_capacity = 0;  // Unbounded: any loss breaks the count.
  config.rebalance.epoch = msec(50);
  config.rebalance.threshold = 0.3;
  for (int c = 0; c < 4; ++c) {
    perturb::PerturbEvent ev;
    ev.at = usec(1);
    ev.kind = perturb::PerturbKind::Dvfs;
    ev.core = c;
    ev.scale = 0.1;
    config.node_perturb[0].add(ev);
  }

  const ClusterResult res = run_cluster(config);
  ASSERT_GE(res.pool_migrations, 1);
  EXPECT_EQ(res.stats.total_dropped, 0);
  expect_conservation(res.stats);
  // The bulk of completions must land on the healthy node.
  ASSERT_EQ(res.completed_by_node.size(), 2u);
  EXPECT_GT(res.completed_by_node[1], res.completed_by_node[0]);
}

TEST(ClusterRun, RebalancerRecoversTailLatencyUnderMidRunSlowdown) {
  // A 4x DVFS slowdown hits node 0 mid-run. With load-oblivious round-robin
  // dispatch the only adaptive mechanism is the global rebalancer; enabling
  // it must cut both the p99 tail and the drop count versus rebalance-off.
  ClusterConfig config = base_config(4);
  config.dispatch = ClusterDispatch::RoundRobin;
  config.duration = sec(4);
  config.rebalance.epoch = msec(100);
  for (int c = 0; c < 4; ++c) {
    perturb::PerturbEvent ev;
    ev.at = msec(800);
    ev.kind = perturb::PerturbKind::Dvfs;
    ev.core = c;
    ev.scale = 0.25;
    config.node_perturb[0].add(ev);
  }

  const ClusterResult on = run_cluster(config);
  config.rebalance.enabled = false;
  const ClusterResult off = run_cluster(config);

  ASSERT_GE(on.pool_migrations, 1);
  EXPECT_EQ(off.pool_migrations, 0);
  expect_conservation(on.stats);
  expect_conservation(off.stats);
  EXPECT_LT(on.stats.latency.percentile(99),
            off.stats.latency.percentile(99))
      << "rebalance-on p99 " << on.stats.latency.percentile(99) / 1e6
      << "ms vs off " << off.stats.latency.percentile(99) / 1e6 << "ms";
  EXPECT_LE(on.stats.dropped, off.stats.dropped);
}

TEST(ClusterRun, SpeedAwareDestinationAvoidsThrottledNode) {
  // Once the throttled node's pool is evacuated, the machine *looks* idle —
  // a capacity-blind "coldest by load" destination would hand the pool
  // straight back and ping-pong it forever. The destination choice divides
  // by current effective capacity, so the run must end with no pool homed
  // on node 0 and a bounded migration count.
  ClusterConfig config = base_config(4);
  config.dispatch = ClusterDispatch::RoundRobin;
  config.duration = sec(3);
  config.rebalance.epoch = msec(50);
  for (int c = 0; c < 4; ++c) {
    perturb::PerturbEvent ev;
    ev.at = msec(200);
    ev.kind = perturb::PerturbKind::Dvfs;
    ev.core = c;
    ev.scale = 0.25;
    config.node_perturb[0].add(ev);
  }

  ClusterSim sim(config);
  const ClusterResult res = sim.run();
  ASSERT_GE(res.pool_migrations, 1);
  EXPECT_LE(res.pool_migrations, 3) << "rebalancer ping-pong";
  for (int p = 0; p < sim.num_pools(); ++p)
    EXPECT_NE(sim.pool_node(p), 0) << "pool " << p
                                   << " homed on the throttled node";
  expect_conservation(res.stats);
}

TEST(ClusterRun, JsqDPastLivePoolCountRunsAndConserves) {
  ClusterConfig config = base_config(2);
  config.dispatch = ClusterDispatch::JsqD;
  config.jsq_d = 64;  // Far beyond the 2 pools.
  const ClusterResult res = run_cluster(config);
  ASSERT_GT(res.stats.completed, 0);
  expect_conservation(res.stats);
}

TEST(ClusterRun, RepeatsAreByteIdenticalAcrossJobs) {
  ClusterConfig config = base_config(3);
  config.duration = sec(1);
  const ClusterResult serial = run_cluster_repeats(config, 3, 1);
  const ClusterResult parallel = run_cluster_repeats(config, 3, 4);
  EXPECT_EQ(serial.stats.completed, parallel.stats.completed);
  EXPECT_EQ(serial.stats.offered, parallel.stats.offered);
  EXPECT_EQ(serial.stats.dropped, parallel.stats.dropped);
  EXPECT_EQ(serial.generated, parallel.generated);
  EXPECT_EQ(serial.pool_migrations, parallel.pool_migrations);
  EXPECT_DOUBLE_EQ(serial.goodput_rps, parallel.goodput_rps);
  EXPECT_DOUBLE_EQ(serial.peak_imbalance, parallel.peak_imbalance);
  for (const double p : {50.0, 99.0, 99.9})
    EXPECT_DOUBLE_EQ(serial.stats.latency.percentile(p),
                     parallel.stats.latency.percentile(p));
  EXPECT_EQ(serial.completed_by_node, parallel.completed_by_node);
}

TEST(ClusterRun, AdmissionCapShedsInsteadOfQueueing) {
  ClusterConfig config = base_config(2);
  config.dispatch = ClusterDispatch::RoundRobin;
  config.node_admission_cap = 8;
  // Overload: 1.5x the cluster's capacity.
  config.arrival.rate_rps =
      2.0 * serve::rate_for_utilization(config.topo, 4, 1.5, 5000.0);
  const ClusterResult res = run_cluster(config);
  EXPECT_GT(res.stats.dropped, 0);
  expect_conservation(res.stats);
}

/// 32 SPEED nodes at utilization 0.8 behind JSQ(2), an admission cap, a
/// 100 ms rebalance epoch, and node 0 dropping to 1/10 clock at 300 ms.
ClusterConfig golden_config() {
  ClusterConfig config = base_config(32);
  config.policy = Policy::Speed;
  config.dispatch = ClusterDispatch::JsqD;
  config.jsq_d = 2;
  config.node_admission_cap = 12;
  config.arrival.rate_rps =
      32.0 * serve::rate_for_utilization(config.topo, 4, 0.8, 5000.0);
  config.rebalance.epoch = msec(100);
  config.rebalance.threshold = 0.3;
  for (int c = 0; c < 4; ++c) {
    perturb::PerturbEvent ev;
    ev.at = msec(300);
    ev.kind = perturb::PerturbKind::Dvfs;
    ev.core = c;
    ev.scale = 0.1;
    config.node_perturb[0].add(ev);
  }
  return config;
}

struct Golden {
  std::int64_t total_completed;
  std::int64_t total_dropped;
  std::int64_t pool_migrations;
  std::vector<std::int64_t> completed_by_node;
  double p50;
  double p99;
  double mean;
};

void expect_golden(const ClusterResult& res, const Golden& g) {
  EXPECT_EQ(res.stats.total_completed, g.total_completed);
  EXPECT_EQ(res.stats.total_dropped, g.total_dropped);
  EXPECT_EQ(res.pool_migrations, g.pool_migrations);
  EXPECT_EQ(res.completed_by_node, g.completed_by_node);
  // Exact, not near: the mean's floating-point sum depends on the order in
  // which node completions reach the cluster histogram.
  EXPECT_EQ(res.stats.latency.percentile(50), g.p50);
  EXPECT_EQ(res.stats.latency.percentile(99), g.p99);
  EXPECT_EQ(res.stats.latency.mean(), g.mean);
}

// Golden fingerprints: exact outputs of three fixed episodes. Any change to
// which node simulator runs when — and so to the order in which
// completions, deliveries and migrations interleave — moves these numbers.
TEST(ClusterGolden, JsqEpisodeWithRebalanceThrottleAndAdmissionCap) {
  expect_golden(
      run_cluster(golden_config()),
      {40537, 225, 5,
       {62,   1232, 1236, 1225, 1216, 1204, 1199, 1228, 1144, 1134, 1203,
        1166, 1230, 1146, 1173, 1197, 1197, 1155, 1156, 1211, 1196, 1186,
        1164, 1161, 1168, 1170, 1116, 1113, 1123, 1127, 1106, 1118},
       5112318.6701298701, 31442742.923636351, 7122860.8962755743});
}

TEST(ClusterGolden, RoundRobinZeroHopEpisode) {
  // hop = 0: every delivery lands at its arrival instant, so cluster events
  // and node events share timestamps throughout.
  ClusterConfig config = golden_config();
  config.dispatch = ClusterDispatch::RoundRobin;
  config.hop = 0;
  expect_golden(
      run_cluster(config),
      {39674, 1053, 4,
       {64,   1143, 1146, 1143, 1136, 1140, 1142, 1143, 1144, 1148, 1144,
        1137, 1138, 1142, 1168, 1174, 1138, 1143, 1140, 1143, 1135, 1143,
        1228, 1141, 1139, 1148, 1149, 1149, 1147, 1138, 1135, 1142},
       5008156.1068249261, 34345398.382702596, 7208442.5161471497});
}

TEST(ClusterGolden, NonePolicyEpisodeWithIdleNodes) {
  // NONE arms no balancer timer, so at utilization 0.2 a node often has
  // nothing pending between deliveries: the due set must skip such nodes
  // and still run every node with a due event, in ascending id. The
  // rebalancer moves pools off the throttled node 0 meanwhile.
  ClusterConfig config = golden_config();
  config.nodes = 8;
  config.policy = Policy::None;
  config.arrival.rate_rps =
      8.0 * serve::rate_for_utilization(config.topo, 4, 0.2, 5000.0);
  expect_golden(run_cluster(config),
                {2532, 0, 4, {24, 387, 389, 529, 285, 268, 223, 205},
                 3988593.777777778, 24498667.519999981, 5494787.8787878789});
}

TEST(ClusterRun, NodeInFlightSumsToInFlightAtEnd) {
  ClusterConfig config = golden_config();
  config.dispatch = ClusterDispatch::RoundRobin;
  ClusterSim sim(config);
  const ClusterResult res = sim.run();
  ASSERT_GE(res.pool_migrations, 1);
  ASSERT_GT(res.stats.total_dropped, 0);  // The cap was exercised.
  std::int64_t sum = 0;
  for (int n = 0; n < sim.num_nodes(); ++n) {
    EXPECT_GE(sim.node_in_flight(n), 0) << "node " << n;
    sum += sim.node_in_flight(n);
  }
  EXPECT_EQ(sum, res.stats.in_flight_end);
  expect_conservation(res.stats);
}

TEST(ClusterRun, RebalanceLogRecordsEveryEpochWithOutcome) {
  obs::RunRecorder rec;
  ClusterConfig config = base_config(2);
  config.rebalance.epoch = msec(100);
  config.recorder = &rec;
  const ClusterResult res = run_cluster(config);
  ASSERT_GT(res.stats.completed, 0);
  const auto log = rec.rebalances().snapshot();
  // duration 2s / epoch 100ms -> 19 epochs land inside the run.
  EXPECT_GE(log.size(), 10u);
  std::int64_t migrated = 0;
  for (const auto& r : log) {
    EXPECT_GE(r.imbalance, 0.0);
    if (r.outcome == obs::RebalanceOutcome::Migrated) ++migrated;
  }
  EXPECT_EQ(migrated, res.pool_migrations);
}

TEST(ClusterRun, ShareNodesLogConservingPartitionsIntoTheRecorder) {
  // Every SHARE node's balancer logs its repartition epochs into the
  // cluster recorder, so the share-conservation invariant sees them all.
  obs::RunRecorder rec;
  ClusterConfig config = base_config(4);
  config.topo = presets::by_name("biglittle2+2x3");
  config.policy = Policy::Share;
  config.serve.dispatch = serve::DispatchPolicy::Weighted;
  config.recorder = &rec;
  const ClusterResult res = run_cluster(config);
  ASSERT_GT(res.stats.completed, 0);
  const auto shares = rec.shares().snapshot();
  // Four nodes, 2 s at the 100 ms epoch: about 20 epochs per node.
  EXPECT_GT(shares.size(), 40u);
  std::vector<check::Violation> violations;
  check::check_share_conservation(
      {config.cores, config.share.min_share, shares}, violations);
  EXPECT_TRUE(violations.empty()) << check::format_violations(violations);
}

TEST(ClusterConfigValidation, RejectsBadShapes) {
  ClusterConfig config = base_config(2);
  config.nodes = 0;
  EXPECT_THROW(ClusterSim{config}, std::invalid_argument);
  config = base_config(2);
  config.warmup = config.duration;
  EXPECT_THROW(ClusterSim{config}, std::invalid_argument);
  config = base_config(2);
  config.hop = -1;
  EXPECT_THROW(ClusterSim{config}, std::invalid_argument);
}

}  // namespace
}  // namespace speedbal::cluster
