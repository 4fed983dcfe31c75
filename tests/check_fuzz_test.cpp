// Tier-1 coverage for the property-based fuzzing harness (src/check):
// fixed-seed fuzz episodes that must stay green, deliberately-broken
// balancer stubs proving each invariant class actually fires, and
// forged-observation unit proofs for every pure check function.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
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
