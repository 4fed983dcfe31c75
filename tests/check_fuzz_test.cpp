// Tier-1 coverage for the property-based fuzzing harness (src/check):
// fixed-seed fuzz episodes that must stay green, deliberately-broken
// balancer stubs proving each invariant class actually fires, and
// forged-observation unit proofs for every pure check function.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "check/episode.hpp"
#include "check/invariants.hpp"
#include "check/oracle.hpp"
#include "check/reference_queue.hpp"
#include "check/scenario.hpp"
#include "topo/presets.hpp"

namespace speedbal::check {
namespace {

// ---------------------------------------------------------------------------
// Fixed-seed fuzz episodes. 200 episodes total, split into blocks so ctest
// can spread them across jobs; the seeds are pinned so a regression here is
// reproducible with `fuzzsim --replay` on the printed spec.

void run_block(std::uint64_t first_seed, int count) {
  for (int i = 0; i < count; ++i) {
    const std::uint64_t seed = first_seed + static_cast<std::uint64_t>(i);
    const FuzzScenario sc = generate(seed);
    const EpisodeResult result = run_episode(sc);
    EXPECT_TRUE(result.violations.empty())
        << "seed " << seed << " (" << sc.summary() << ")\n"
        << "replay spec:\n"
        << sc.to_json() << "\n"
        << format_violations(result.violations);
    EXPECT_TRUE(result.completed || sc.mode == Mode::Serve)
        << "seed " << seed << " did not complete";
  }
}

TEST(CheckFuzz, EpisodesBlock1) { run_block(1, 25); }
TEST(CheckFuzz, EpisodesBlock2) { run_block(26, 25); }
TEST(CheckFuzz, EpisodesBlock3) { run_block(51, 25); }
TEST(CheckFuzz, EpisodesBlock4) { run_block(76, 25); }
TEST(CheckFuzz, EpisodesBlock5) { run_block(101, 25); }
TEST(CheckFuzz, EpisodesBlock6) { run_block(126, 25); }
TEST(CheckFuzz, EpisodesBlock7) { run_block(151, 25); }
TEST(CheckFuzz, EpisodesBlock8) { run_block(176, 25); }

TEST(CheckFuzz, ScenarioJsonRoundTripIsExact) {
  for (std::uint64_t seed : {1ULL, 17ULL, 4242ULL, 999983ULL}) {
    const FuzzScenario sc = generate(seed);
    const FuzzScenario back = FuzzScenario::from_json(sc.to_json());
    EXPECT_EQ(sc.to_json(), back.to_json()) << "seed " << seed;
    // The round-tripped spec replays to the same digest — the property
    // `fuzzsim --replay` depends on.
    EXPECT_EQ(run_episode(sc).digest(), run_episode(back).digest())
        << "seed " << seed;
  }
}

TEST(CheckFuzz, ServeDispatchIsDrawnAndOldSpecsDefaultToJsq) {
  // Serve episodes draw their shard dispatch from rr / least-loaded / jsq.
  std::vector<int> drawn(4, 0);
  for (std::uint64_t seed = 1; seed <= 200; ++seed)
    ++drawn[static_cast<std::size_t>(generate(seed).serve_dispatch)];
  EXPECT_GT(drawn[static_cast<std::size_t>(serve::DispatchPolicy::RoundRobin)], 0);
  EXPECT_GT(drawn[static_cast<std::size_t>(serve::DispatchPolicy::LeastLoaded)], 0);
  EXPECT_GT(drawn[static_cast<std::size_t>(serve::DispatchPolicy::JoinShortestQueue)], 0);
  EXPECT_EQ(drawn[static_cast<std::size_t>(serve::DispatchPolicy::Weighted)], 0);

  // A replay spec written before the field existed still loads, as JSQ.
  FuzzScenario sc = generate(4);
  sc.serve_dispatch = serve::DispatchPolicy::LeastLoaded;
  std::string json = sc.to_json();
  const std::string field = "\"serve_dispatch\":\"least-loaded\",";
  const std::size_t at = json.find(field);
  ASSERT_NE(at, std::string::npos) << json;
  json.erase(at, field.size());
  EXPECT_EQ(FuzzScenario::from_json(json).serve_dispatch,
            serve::DispatchPolicy::JoinShortestQueue);
}

TEST(CheckFuzz, ReplaySpecBytesArePinned) {
  // One generated scenario per shape: spmd, serve, cluster, SHARE and
  // adaptive, each with its perturb timeline.
  const std::pair<std::uint64_t, const char*> pinned[] = {
      {5,
       R"({"seed":5,"topo":"generic3","mode":"spmd","policy":"DWRR","cores":2,)"
       R"("threads":5,"phases":3,"work_per_phase_us":33303.1558277,)"
       R"("work_jitter":0,"barrier":"sleep","workers":3,"arrival":"diurnal",)"
       R"("service":"lognormal","utilization":0.881197416782,)"
       R"("mean_service_us":4946.88613529,"duration_us":1454857,)"
       R"("serve_busy_poll":false,"serve_dispatch":"jsq","nodes":3,)"
       R"("cluster_dispatch":"least-loaded","jsq_d":3,"hop_us":298.566268038,)"
       R"("cluster_rebalance":true,"perturb_node":1,"balance_interval_us":56690,)"
       R"("threshold":0.872120653591,"share_count":false,"min_share":0.02,)"
       R"("share_hysteresis":0.02,"adaptive":false,)"
       R"("perturb":["at=158960us hog-start core=1","at=294099us hog-stop core=1",)"
       R"("at=58868us spike core=0 work=6824us",)"
       R"("at=178733us spike core=0 work=10234us"],"broken":"none"})"},
      {4,
       R"({"seed":4,"topo":"generic4","mode":"serve","policy":"ULE","cores":4,)"
       R"("threads":8,"phases":3,"work_per_phase_us":30344.0923125,)"
       R"("work_jitter":0,"barrier":"yield","workers":5,"arrival":"poisson",)"
       R"("service":"pareto","utilization":0.801271013133,)"
       R"("mean_service_us":6208.10390815,"duration_us":795599,)"
       R"("serve_busy_poll":true,"serve_dispatch":"jsq","nodes":3,)"
       R"("cluster_dispatch":"least-loaded","jsq_d":6,"hop_us":417.34594917,)"
       R"("cluster_rebalance":true,"perturb_node":0,"balance_interval_us":21458,)"
       R"("threshold":0.888476830404,"share_count":false,"min_share":0.02,)"
       R"("share_hysteresis":0.02,"adaptive":false,)"
       R"("perturb":["at=303097us dvfs core=2 scale=0.832903",)"
       R"("at=577150us dvfs core=1 scale=1.25521",)"
       R"("at=530767us dvfs core=1 scale=0.977968"],"broken":"none"})"},
      {8,
       R"({"seed":8,"topo":"barcelona","mode":"cluster","policy":"PINNED",)"
       R"("cores":2,"threads":3,"phases":1,"work_per_phase_us":21263.5278556,)"
       R"("work_jitter":0.185413703926,"barrier":"yield","workers":2,)"
       R"("arrival":"poisson","service":"lognormal",)"
       R"("utilization":0.88201697085,"mean_service_us":7289.75909325,)"
       R"("duration_us":956642,"serve_busy_poll":true,"serve_dispatch":"jsq",)"
       R"("nodes":5,"cluster_dispatch":"jsq","jsq_d":8,"hop_us":210.097898201,)"
       R"("cluster_rebalance":true,"perturb_node":2,"balance_interval_us":27683,)"
       R"("threshold":0.831003304446,"share_count":false,"min_share":0.02,)"
       R"("share_hysteresis":0.02,"adaptive":false,)"
       R"("perturb":["at=91999us dvfs core=1 scale=1.01946"],"broken":"none"})"},
      {9,
       R"({"seed":9,"topo":"biglittle2+2x2","mode":"spmd","policy":"SHARE",)"
       R"("cores":2,"threads":2,"phases":3,"work_per_phase_us":22639.7685034,)"
       R"("work_jitter":0,"barrier":"yield","workers":3,"arrival":"bursty",)"
       R"("service":"fixed","utilization":0.894328581265,)"
       R"("mean_service_us":7527.88600447,"duration_us":773404,)"
       R"("serve_busy_poll":true,"serve_dispatch":"jsq","nodes":5,)"
       R"("cluster_dispatch":"jsq","jsq_d":1,"hop_us":62.5678237752,)"
       R"("cluster_rebalance":true,"perturb_node":2,"balance_interval_us":48319,)"
       R"("threshold":0.936906144133,"share_count":false,)"
       R"("min_share":0.0589596472057,"share_hysteresis":0.029127028766,)"
       R"("adaptive":false,"perturb":["at=88819us hog-start core=1",)"
       R"("at=156121us hog-stop core=1",)"
       R"("at=83010us dvfs-ramp core=0 scale=0.598172 over=37184us steps=12"],)"
       R"("broken":"none"})"},
      {25,
       R"({"seed":25,"topo":"nehalem","mode":"serve","policy":"SPEED","cores":6,)"
       R"("threads":14,"phases":3,"work_per_phase_us":16119.7307106,)"
       R"("work_jitter":0,"barrier":"spin","workers":10,"arrival":"bursty",)"
       R"("service":"fixed","utilization":0.55256756266,)"
       R"("mean_service_us":7704.45299914,"duration_us":1490338,)"
       R"("serve_busy_poll":false,"serve_dispatch":"rr","nodes":4,)"
       R"("cluster_dispatch":"rr","jsq_d":7,"hop_us":24.9480917688,)"
       R"("cluster_rebalance":true,"perturb_node":3,"balance_interval_us":40965,)"
       R"("threshold":0.804583522314,"share_count":false,"min_share":0.02,)"
       R"("share_hysteresis":0.02,"adaptive":true,)"
       R"("perturb":["at=347815us dvfs core=5 scale=0.724693"],"broken":"none"})"},
  };
  for (const auto& [seed, json] : pinned) {
    const FuzzScenario sc = generate(seed);
    EXPECT_EQ(sc.to_json(), json) << "seed " << seed;
    EXPECT_EQ(FuzzScenario::from_json(json).to_json(), json) << "seed " << seed;
  }
}

TEST(CheckFuzz, PreClusterSpecLoadsWithTodaysDefaults) {
  // A spec from before the cluster fields: no serve_dispatch, cluster, SHARE
  // or adaptive keys. Each one it lacks takes the FuzzScenario default.
  const std::string old_spec =
      R"({"seed":12,"topo":"generic4","mode":"serve","policy":"SPEED",)"
      R"("cores":3,"threads":4,"phases":2,"work_per_phase_us":10000,)"
      R"("work_jitter":0.1,"barrier":"spin","workers":4,"arrival":"bursty",)"
      R"("service":"fixed","utilization":0.6,"mean_service_us":2000,)"
      R"("duration_us":600000,"serve_busy_poll":true,)"
      R"("balance_interval_us":30000,"threshold":0.85,)"
      R"("perturb":["at=100ms dvfs core=1 scale=0.5"],"broken":"none"})";
  EXPECT_EQ(
      FuzzScenario::from_json(old_spec).to_json(),
      R"({"seed":12,"topo":"generic4","mode":"serve","policy":"SPEED",)"
      R"("cores":3,"threads":4,"phases":2,"work_per_phase_us":10000,)"
      R"("work_jitter":0.1,"barrier":"spin","workers":4,"arrival":"bursty",)"
      R"("service":"fixed","utilization":0.6,"mean_service_us":2000,)"
      R"("duration_us":600000,"serve_busy_poll":true,"serve_dispatch":"jsq",)"
      R"("nodes":3,"cluster_dispatch":"jsq","jsq_d":2,"hop_us":200,)"
      R"("cluster_rebalance":true,"perturb_node":0,)"
      R"("balance_interval_us":30000,"threshold":0.85,"share_count":false,)"
      R"("min_share":0.02,"share_hysteresis":0.02,"adaptive":false,)"
      R"("perturb":["at=100000us dvfs core=1 scale=0.5"],"broken":"none"})");
}

/// The message from_json throws for `spec`, or "" when it loads.
std::string from_json_error(const std::string& spec) {
  try {
    FuzzScenario::from_json(spec);
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

TEST(CheckFuzz, SpecWithoutSeedOrWithUnknownNamesThrows) {
  std::string spec = generate(4).to_json();
  const auto replaced = [&spec](const std::string& from,
                                const std::string& to) {
    std::string out = spec;
    const std::size_t at = out.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) out.replace(at, from.size(), to);
    return out;
  };
  EXPECT_EQ(from_json_error(replaced(R"("seed":4,)", "")),
            "JSON: missing key 'seed'");
  EXPECT_EQ(from_json_error(replaced(R"("mode":"serve")", R"("mode":"batch")")),
            "unknown mode: batch (available: spmd, serve, cluster)");
  EXPECT_EQ(
      from_json_error(replaced(R"("policy":"ULE")", R"("policy":"FASTEST")")),
      "unknown serve policy: FASTEST (available: LOAD, SPEED, PINNED, DWRR, "
      "ULE, NONE, SHARE)");
  EXPECT_EQ(from_json_error(spec), "");
}

TEST(CheckFuzz, JobsIdentityOracleOnBothModes) {
  // One SPMD and one serve scenario through the jobs=1 vs jobs=4 oracle.
  std::vector<Violation> violations;
  FuzzScenario spmd = generate(3);
  ASSERT_EQ(spmd.mode, Mode::Spmd);
  const std::string fp = check_jobs_identity(spmd, violations);
  EXPECT_FALSE(fp.empty());
  FuzzScenario serve = generate(4);
  ASSERT_EQ(serve.mode, Mode::Serve);
  check_jobs_identity(serve, violations);
  EXPECT_TRUE(violations.empty()) << format_violations(violations);
}

// ---------------------------------------------------------------------------
// Broken-stub episodes: each injected defect must be caught by exactly the
// advertised invariant class. This is the harness's own smoke detector — if
// a checker rots into a tautology, these fail.

void expect_caught(BrokenMode mode) {
  const FuzzScenario sc = broken_scenario(mode);
  const EpisodeResult result = run_episode(sc);
  const char* want = expected_violation(mode);
  bool caught = false;
  for (const Violation& v : result.violations) caught |= v.invariant == want;
  EXPECT_TRUE(caught) << "broken=" << to_string(mode) << " expected \"" << want
                      << "\" but got:\n"
                      << format_violations(result.violations);
}

TEST(CheckBrokenStub, CrossNumaPullIsCaught) {
  expect_caught(BrokenMode::CrossNuma);
}
TEST(CheckBrokenStub, CooldownViolationIsCaught) {
  expect_caught(BrokenMode::Cooldown);
}
TEST(CheckBrokenStub, ThresholdViolationIsCaught) {
  expect_caught(BrokenMode::Threshold);
}
TEST(CheckBrokenStub, LostTaskIsCaught) {
  expect_caught(BrokenMode::LoseTask);
}
TEST(CheckBrokenStub, HotPotatoPingPongIsCaught) {
  expect_caught(BrokenMode::HotPotato);
}

// ---------------------------------------------------------------------------
// Forged-observation proofs: every violation class fires from pure data, so
// no rebuild with a sabotaged balancer is needed to trust the checkers.

bool has(const std::vector<Violation>& vs, const std::string& slug) {
  for (const Violation& v : vs)
    if (v.invariant == slug) return true;
  return false;
}

TEST(CheckInvariants, TimeConservationFiresOnOverfullCore) {
  std::vector<Violation> out;
  check_time_conservation({{0, sec(1), sec(1) + 1, sec(1) + 1}}, out);
  EXPECT_TRUE(has(out, "time-conservation")) << format_violations(out);
}

TEST(CheckInvariants, SpeedAccountingFiresOnExecBusyMismatch) {
  std::vector<Violation> out;
  check_time_conservation({{0, sec(1), msec(500), msec(499)}}, out);
  EXPECT_TRUE(has(out, "speed-accounting")) << format_violations(out);
}

TEST(CheckInvariants, CleanCoreTimesPass) {
  std::vector<Violation> out;
  check_time_conservation({{0, sec(1), msec(500), msec(500)},
                           {1, sec(1), 0, 0},
                           {2, sec(1), sec(1), sec(1)}},
                          out);
  EXPECT_TRUE(out.empty()) << format_violations(out);
}

TEST(CheckInvariants, SpeedConsistencyFiresOnStaleSpeed) {
  std::vector<Violation> out;
  // Core 1 still runs at the speed of before a bus-demand change.
  check_speed_consistency({{0, 3, 0.5, 0.5, msec(5)},
                           {1, 4, 0.8, 0.5, msec(5)}},
                          out);
  ASSERT_EQ(out.size(), 1u) << format_violations(out);
  EXPECT_EQ(out[0].invariant, "speed-consistency");
  EXPECT_NE(out[0].detail.find("core 1 "), std::string::npos) << out[0].detail;
}

TEST(CheckInvariants, SpeedConsistencyPassesWithinTolerance) {
  std::vector<Violation> out;
  check_speed_consistency({{0, 3, 0.5, 0.5 + 1e-13, msec(5)},
                           {1, 4, 1.0, 1.0, msec(5)}},
                          out);
  EXPECT_TRUE(out.empty()) << format_violations(out);
}

TaskSnapshot good_runnable() {
  TaskSnapshot s;
  s.id = 7;
  s.state = "Runnable";
  s.expect_queued = true;
  s.core = 2;
  s.allowed_on_core = true;
  s.core_online = true;
  s.queue_memberships = 1;
  s.on_own_queue = true;
  s.when = msec(5);
  return s;
}

TEST(CheckInvariants, TaskConservationFiresOnLostTask) {
  std::vector<Violation> out;
  TaskSnapshot s = good_runnable();
  s.queue_memberships = 0;  // Runnable but on no queue: lost.
  s.on_own_queue = false;
  check_task_placement({s}, out);
  EXPECT_TRUE(has(out, "task-conservation")) << format_violations(out);
}

TEST(CheckInvariants, TaskConservationFiresOnDuplicatedTask) {
  std::vector<Violation> out;
  TaskSnapshot s = good_runnable();
  s.queue_memberships = 2;  // Enqueued twice: duplicated across migration.
  check_task_placement({s}, out);
  EXPECT_TRUE(has(out, "task-conservation")) << format_violations(out);
}

TEST(CheckInvariants, TaskConservationFiresOnQueuedSleeper) {
  std::vector<Violation> out;
  TaskSnapshot s = good_runnable();
  s.state = "Sleeping";
  s.expect_queued = false;  // Blocked tasks must not sit on a run queue.
  check_task_placement({s}, out);
  EXPECT_TRUE(has(out, "task-conservation")) << format_violations(out);
}

TEST(CheckInvariants, AffinityFiresOnDisallowedCore) {
  std::vector<Violation> out;
  TaskSnapshot s = good_runnable();
  s.allowed_on_core = false;
  check_task_placement({s}, out);
  EXPECT_TRUE(has(out, "affinity")) << format_violations(out);
}

TEST(CheckInvariants, AffinityFiresOnOfflineCore) {
  std::vector<Violation> out;
  TaskSnapshot s = good_runnable();
  s.core_online = false;
  check_task_placement({s}, out);
  EXPECT_TRUE(has(out, "affinity")) << format_violations(out);
}

TEST(CheckInvariants, CleanSnapshotsPass) {
  std::vector<Violation> out;
  TaskSnapshot sleeper = good_runnable();
  sleeper.state = "Sleeping";
  sleeper.expect_queued = false;
  sleeper.queue_memberships = 0;
  sleeper.on_own_queue = false;
  check_task_placement({good_runnable(), sleeper}, out);
  EXPECT_TRUE(out.empty()) << format_violations(out);
}

SpeedRuleInputs rule_inputs(const Topology& topo) {
  SpeedRuleInputs in;
  in.topo = &topo;
  in.threshold = 0.9;
  in.interval = msec(100);
  in.post_migration_block = 2;
  return in;
}

obs::DecisionRecord pulled(std::int64_t ts_us, int local, int source,
                           double source_speed, double global) {
  obs::DecisionRecord rec;
  rec.ts_us = ts_us;
  rec.local = local;
  rec.source = source;
  rec.victim = 0;
  rec.local_speed = global * 1.5;
  rec.source_speed = source_speed;
  rec.global = global;
  rec.reason = obs::PullReason::Pulled;
  return rec;
}

TEST(CheckInvariants, NumaBlockFiresOnCrossNodePull) {
  const Topology topo = presets::barcelona();  // 4 nodes x 4 cores.
  SpeedRuleInputs in = rule_inputs(topo);
  in.migrations.push_back(
      {msec(10), 0, 0, 4, MigrationCause::SpeedBalancer});  // Node 0 -> 1.
  in.decisions.push_back(pulled(10000, 4, 0, 0.5, 1.0));
  std::vector<Violation> out;
  check_speed_rules(in, out);
  EXPECT_TRUE(has(out, "numa-block")) << format_violations(out);
}

TEST(CheckInvariants, NumaBlockExemptsPlacementAtTimeZero) {
  const Topology topo = presets::barcelona();
  SpeedRuleInputs in = rule_inputs(topo);
  in.migrations.push_back({0, 0, 0, 4, MigrationCause::SpeedBalancer});
  std::vector<Violation> out;
  check_speed_rules(in, out);
  EXPECT_TRUE(out.empty()) << format_violations(out);
}

TEST(CheckInvariants, CooldownFiresOnBackToBackPulls) {
  const Topology topo = presets::generic(4);
  SpeedRuleInputs in = rule_inputs(topo);
  // Two pulls sharing core 1, 50ms apart; the block is 2 * 100ms.
  in.migrations.push_back({msec(10), 0, 0, 1, MigrationCause::SpeedBalancer});
  in.migrations.push_back({msec(60), 1, 1, 2, MigrationCause::SpeedBalancer});
  in.decisions.push_back(pulled(10000, 1, 0, 0.5, 1.0));
  in.decisions.push_back(pulled(60000, 2, 1, 0.5, 1.0));
  std::vector<Violation> out;
  check_speed_rules(in, out);
  EXPECT_TRUE(has(out, "cooldown")) << format_violations(out);
}

TEST(CheckInvariants, CooldownAllowsDisjointPairs) {
  const Topology topo = presets::generic(8);
  SpeedRuleInputs in = rule_inputs(topo);
  in.migrations.push_back({msec(10), 0, 0, 1, MigrationCause::SpeedBalancer});
  in.migrations.push_back({msec(60), 1, 2, 3, MigrationCause::SpeedBalancer});
  in.decisions.push_back(pulled(10000, 1, 0, 0.5, 1.0));
  in.decisions.push_back(pulled(60000, 3, 2, 0.5, 1.0));
  std::vector<Violation> out;
  check_speed_rules(in, out);
  EXPECT_TRUE(out.empty()) << format_violations(out);
}

TEST(CheckInvariants, ThresholdFiresOnFastSourcePull) {
  const Topology topo = presets::generic(4);
  SpeedRuleInputs in = rule_inputs(topo);
  in.migrations.push_back({msec(10), 0, 0, 1, MigrationCause::SpeedBalancer});
  in.decisions.push_back(pulled(10000, 1, 0, /*source_speed=*/0.95,
                                /*global=*/1.0));  // 0.95 >= T_s = 0.9.
  std::vector<Violation> out;
  check_speed_rules(in, out);
  EXPECT_TRUE(has(out, "threshold")) << format_violations(out);
}

TEST(CheckInvariants, SpeedAccountingFiresOnPhantomDecision) {
  const Topology topo = presets::generic(4);
  SpeedRuleInputs in = rule_inputs(topo);
  in.decisions.push_back(pulled(10000, 1, 0, 0.5, 1.0));  // No migration.
  std::vector<Violation> out;
  check_speed_rules(in, out);
  EXPECT_TRUE(has(out, "speed-accounting")) << format_violations(out);
}

TEST(CheckInvariants, ServeCountersFireOnLeak) {
  std::vector<Violation> out;
  ServeCounters c;
  c.offered = 10;
  c.admitted = 8;
  c.dropped = 1;  // 8 + 1 != 10: one request vanished at admission.
  c.completed = 8;
  c.latency_count = 8;
  c.queue_wait_count = 8;
  check_serve_counters(c, out);
  EXPECT_TRUE(has(out, "serve-counters")) << format_violations(out);

  out.clear();
  c.dropped = 2;
  c.latency_count = 7;  // Histogram lost a completion.
  check_serve_counters(c, out);
  EXPECT_TRUE(has(out, "serve-counters")) << format_violations(out);

  out.clear();
  c.latency_count = 8;
  check_serve_counters(c, out);
  EXPECT_TRUE(out.empty()) << format_violations(out);
}

TEST(CheckInvariants, HistogramMergeFuzzIsClean) {
  for (std::uint64_t seed : {11ULL, 22ULL, 33ULL, 44ULL, 55ULL}) {
    std::vector<Violation> out;
    const int samples = fuzz_histogram_merge(seed, out);
    EXPECT_GT(samples, 0);
    EXPECT_TRUE(out.empty()) << "seed " << seed << "\n"
                             << format_violations(out);
  }
}

obs::RequestSpan good_span() {
  obs::RequestSpan s;
  s.id = 42;
  s.worker = 1;
  s.arrival_us = 100;
  s.started_us = 250;
  s.completed_us = 1000;
  s.exec_us = 500;  // queue 150 + exec 500 + preempt 250 = sojourn 900.
  s.stall_us = 40.0;
  return s;
}

TEST(CheckInvariants, SpanConservationPassesOnExactPartition) {
  std::vector<Violation> out;
  check_span_conservation({good_span()}, out);
  EXPECT_TRUE(out.empty()) << format_violations(out);
}

TEST(CheckInvariants, SpanConservationFiresOnNegativeComponent) {
  std::vector<Violation> out;
  obs::RequestSpan s = good_span();
  s.started_us = 50;  // Started before arrival: negative queue time.
  check_span_conservation({s}, out);
  EXPECT_TRUE(has(out, "span-conservation")) << format_violations(out);

  out.clear();
  s = good_span();
  s.exec_us = 900;  // More exec than service interval: negative preempt.
  check_span_conservation({s}, out);
  EXPECT_TRUE(has(out, "span-conservation")) << format_violations(out);
}

TEST(CheckInvariants, SpanConservationFiresOnStallOutsideExec) {
  std::vector<Violation> out;
  obs::RequestSpan s = good_span();
  s.stall_us = 500.5;  // Warmup cannot exceed execution time.
  check_span_conservation({s}, out);
  EXPECT_TRUE(has(out, "span-conservation")) << format_violations(out);

  out.clear();
  s.stall_us = -1.0;
  check_span_conservation({s}, out);
  EXPECT_TRUE(has(out, "span-conservation")) << format_violations(out);
}

TEST(CheckInvariants, SamplingIdentityComparesDigestsByteForByte) {
  std::vector<Violation> out;
  check_sampling_identity("completed=5 offered=6", "completed=5 offered=6",
                          out);
  EXPECT_TRUE(out.empty()) << format_violations(out);
  check_sampling_identity("completed=5 offered=6", "completed=4 offered=6",
                          out);
  EXPECT_TRUE(has(out, "sampling-identity")) << format_violations(out);
}

TEST(CheckInvariants, EventQueueLockstepIsClean) {
  for (std::uint64_t seed : {11ULL, 22ULL, 33ULL, 44ULL, 55ULL}) {
    std::vector<Violation> out;
    const int fired = fuzz_event_queue(seed, 600, out);
    EXPECT_GT(fired, 0);
    EXPECT_TRUE(out.empty()) << "seed " << seed << "\n"
                             << format_violations(out);
  }
}

}  // namespace
}  // namespace speedbal::check
