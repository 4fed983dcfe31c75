// Checker-of-the-checker tests for the stability invariants (satellite of
// the adaptive controller): forged migration and tuning streams that must
// trip check_oscillation / check_tuning_stability, and clean streams that
// must not. Mirrors the forged-observation proofs in check_fuzz_test.cpp —
// every violation class fires from pure data, so trusting the checkers
// never requires rebuilding with a sabotaged balancer.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/invariants.hpp"

namespace speedbal::check {
namespace {

bool has(const std::vector<Violation>& vs, const std::string& slug) {
  for (const Violation& v : vs)
    if (v.invariant == slug) return true;
  return false;
}

MigrationRecord mig(SimTime t, TaskId task, CoreId from, CoreId to,
                    MigrationCause cause = MigrationCause::SpeedBalancer) {
  MigrationRecord m;
  m.ts_us = t;
  m.task = task;
  m.from = from;
  m.to = to;
  m.cause = cause;
  return m;
}

obs::TuningRecord trec(std::int64_t epoch, obs::TuningOutcome outcome,
                       int arm, int prev_arm, std::int64_t ts_us = -1) {
  obs::TuningRecord r;
  r.ts_us = ts_us >= 0 ? ts_us : epoch * 1000;
  r.epoch = epoch;
  r.outcome = outcome;
  r.arm = arm;
  r.prev_arm = prev_arm;
  return r;
}

/// Baseline inputs: 100ms interval, 3-interval guard, dwell 4 — the
/// defaults the live stacks run with.
TuningRuleInputs base_inputs() {
  TuningRuleInputs in;
  in.interval = msec(100);
  in.hot_potato_guard = 3;
  in.min_dwell_epochs = 4;
  return in;
}

// --- check_oscillation -------------------------------------------------------

TEST(CheckOscillation, PingPongInsideGuardWindowFires) {
  TuningRuleInputs in = base_inputs();
  in.migrations = {mig(msec(10), 7, 0, 1), mig(msec(20), 7, 1, 0)};
  std::vector<Violation> vs;
  check_oscillation(in, vs);
  ASSERT_TRUE(has(vs, "oscillation")) << format_violations(vs);
  // The detail names the task and both hops — actionable without a replay.
  EXPECT_NE(vs.front().detail.find("task 7"), std::string::npos);
}

TEST(CheckOscillation, SlowPingPongOutsideTheWindowIsClean) {
  // Same A->B->A shape, but the return lands past 3 x 100ms: the guard only
  // forbids *rapid* reversals, not ever returning home.
  TuningRuleInputs in = base_inputs();
  in.migrations = {mig(msec(10), 7, 0, 1), mig(msec(320), 7, 1, 0)};
  std::vector<Violation> vs;
  check_oscillation(in, vs);
  EXPECT_TRUE(vs.empty()) << format_violations(vs);
}

TEST(CheckOscillation, OnlySpeedPullsAfterLaunchCount) {
  TuningRuleInputs in = base_inputs();
  // Affinity / wake placement reversals are not balancer thrash...
  in.migrations = {mig(msec(10), 1, 0, 1, MigrationCause::Affinity),
                   mig(msec(20), 1, 1, 0, MigrationCause::Affinity)};
  // ...and neither is a t=0 launch placement paired with an early pull.
  in.migrations.push_back(mig(0, 2, 1, 0));
  in.migrations.push_back(mig(msec(5), 2, 0, 1));
  std::vector<Violation> vs;
  check_oscillation(in, vs);
  EXPECT_TRUE(vs.empty()) << format_violations(vs);
}

TEST(CheckOscillation, ForwardChainAndDistinctTasksAreClean) {
  TuningRuleInputs in = base_inputs();
  // A->B->C keeps moving forward; two tasks swapping cores is an exchange,
  // not a per-task oscillation.
  in.migrations = {mig(msec(10), 1, 0, 1), mig(msec(20), 1, 1, 2),
                   mig(msec(30), 2, 2, 3), mig(msec(40), 3, 3, 2)};
  std::vector<Violation> vs;
  check_oscillation(in, vs);
  EXPECT_TRUE(vs.empty()) << format_violations(vs);
}

TEST(CheckOscillation, GuardWindowFollowsTheTunedIntervalInForce) {
  // An adaptive run that switched to the fast arm (25ms interval) shrinks
  // the guard window to 75ms: an 80ms-apart reversal is legal there, but
  // would be thrash under the base constants. Both judgments come from the
  // same migration stream — only the tuning trajectory differs.
  TuningRuleInputs in = base_inputs();
  in.migrations = {mig(msec(30), 4, 0, 1), mig(msec(110), 4, 1, 0)};

  std::vector<Violation> fixed;
  check_oscillation(in, fixed);
  EXPECT_TRUE(has(fixed, "oscillation")) << format_violations(fixed);

  obs::TuningRecord fast = trec(1, obs::TuningOutcome::Anticipated, 1, 0,
                                /*ts_us=*/msec(5));
  fast.interval_us = msec(25);
  in.tuning = {fast};
  std::vector<Violation> tuned;
  check_oscillation(in, tuned);
  EXPECT_TRUE(tuned.empty()) << format_violations(tuned);
}

TEST(CheckOscillation, DisabledGuardAssertsNothing) {
  TuningRuleInputs in = base_inputs();
  in.hot_potato_guard = 0;
  in.migrations = {mig(msec(10), 7, 0, 1), mig(msec(11), 7, 1, 0)};
  std::vector<Violation> vs;
  check_oscillation(in, vs);
  EXPECT_TRUE(vs.empty()) << format_violations(vs);
}

// --- check_tuning_stability --------------------------------------------------

/// A well-formed trajectory against the default portfolio: bootstrap walk,
/// then keeps. Constants are filled from the portfolio so the membership
/// check passes.
std::vector<obs::TuningRecord> clean_trajectory(
    const std::vector<TuningArm>& arms) {
  const auto fill = [&arms](obs::TuningRecord r) {
    const TuningArm& a = arms[static_cast<std::size_t>(r.arm)];
    r.interval_us = a.interval;
    r.threshold = a.threshold;
    r.post_migration_block = a.post_migration_block;
    r.cache_block_scale = a.shared_cache_block_scale;
    return r;
  };
  return {fill(trec(4, obs::TuningOutcome::Bootstrap, 1, 0)),
          fill(trec(8, obs::TuningOutcome::Bootstrap, 2, 1)),
          fill(trec(12, obs::TuningOutcome::Bootstrap, 3, 2)),
          fill(trec(13, obs::TuningOutcome::Kept, 3, 3)),
          fill(trec(17, obs::TuningOutcome::Switched, 0, 3)),
          fill(trec(18, obs::TuningOutcome::Kept, 0, 0))};
}

TEST(CheckTuningStability, WellFormedTrajectoryIsClean) {
  TuningRuleInputs in = base_inputs();
  in.portfolio = default_portfolio(SpeedBalanceParams{});
  in.tuning = clean_trajectory(in.portfolio);
  std::vector<Violation> vs;
  check_tuning_stability(in, vs);
  EXPECT_TRUE(vs.empty()) << format_violations(vs);
}

TEST(CheckTuningStability, DwellViolationFires) {
  TuningRuleInputs in = base_inputs();  // min_dwell_epochs = 4.
  in.tuning = {trec(4, obs::TuningOutcome::Switched, 1, 0),
               trec(6, obs::TuningOutcome::Switched, 2, 1)};  // Only 2 apart.
  std::vector<Violation> vs;
  check_tuning_stability(in, vs);
  ASSERT_TRUE(has(vs, "tuning-thrash")) << format_violations(vs);
  EXPECT_NE(vs.front().detail.find("min dwell"), std::string::npos);
}

TEST(CheckTuningStability, FirstChangeIsDwellExempt) {
  // The very first change has no predecessor to dwell from — epoch 1 is
  // legal even with dwell 4.
  TuningRuleInputs in = base_inputs();
  in.tuning = {trec(1, obs::TuningOutcome::Switched, 1, 0),
               trec(5, obs::TuningOutcome::Switched, 2, 1)};
  std::vector<Violation> vs;
  check_tuning_stability(in, vs);
  EXPECT_TRUE(vs.empty()) << format_violations(vs);
}

TEST(CheckTuningStability, EpochAndTimestampRegressionsFire) {
  TuningRuleInputs in = base_inputs();
  in.tuning = {trec(5, obs::TuningOutcome::Kept, 0, 0, msec(500)),
               trec(5, obs::TuningOutcome::Kept, 0, 0, msec(400))};
  std::vector<Violation> vs;
  check_tuning_stability(in, vs);
  ASSERT_TRUE(has(vs, "tuning-thrash")) << format_violations(vs);
  ASSERT_EQ(vs.size(), 2u);  // One for the epoch, one for the timestamp.
}

TEST(CheckTuningStability, UnloggedParameterChangeBreaksTheChain) {
  // prev_arm must equal the previous record's arm; a gap means the
  // controller changed constants without logging an epoch.
  TuningRuleInputs in = base_inputs();
  in.tuning = {trec(4, obs::TuningOutcome::Switched, 1, 0),
               trec(9, obs::TuningOutcome::Switched, 3, 2)};
  std::vector<Violation> vs;
  check_tuning_stability(in, vs);
  ASSERT_TRUE(has(vs, "tuning-thrash")) << format_violations(vs);
  EXPECT_NE(vs.front().detail.find("chain"), std::string::npos);
}

TEST(CheckTuningStability, OutcomeMustMatchTheArmMovement) {
  TuningRuleInputs in = base_inputs();
  // Arm moved under a non-changing outcome...
  in.tuning = {trec(4, obs::TuningOutcome::Kept, 1, 0)};
  std::vector<Violation> vs;
  check_tuning_stability(in, vs);
  EXPECT_TRUE(has(vs, "tuning-thrash")) << format_violations(vs);
  // ...and a claimed switch that went nowhere.
  in.tuning = {trec(4, obs::TuningOutcome::Switched, 2, 2)};
  std::vector<Violation> vs2;
  check_tuning_stability(in, vs2);
  EXPECT_TRUE(has(vs2, "tuning-thrash")) << format_violations(vs2);
}

TEST(CheckTuningStability, PortfolioMembershipIsEnforced) {
  TuningRuleInputs in = base_inputs();
  in.portfolio = default_portfolio(SpeedBalanceParams{});

  // Arm index outside the portfolio.
  in.tuning = {trec(4, obs::TuningOutcome::Switched, 9, 0)};
  std::vector<Violation> vs;
  check_tuning_stability(in, vs);
  EXPECT_TRUE(has(vs, "tuning-thrash")) << format_violations(vs);

  // Right arm index, wrong constants: a record claiming the paper arm but
  // carrying a foreign interval.
  obs::TuningRecord forged = trec(4, obs::TuningOutcome::Kept, 0, 0);
  const TuningArm& paper = in.portfolio[0];
  forged.interval_us = paper.interval + 1;
  forged.threshold = paper.threshold;
  forged.post_migration_block = paper.post_migration_block;
  forged.cache_block_scale = paper.shared_cache_block_scale;
  in.tuning = {forged};
  std::vector<Violation> vs2;
  check_tuning_stability(in, vs2);
  ASSERT_TRUE(has(vs2, "tuning-thrash")) << format_violations(vs2);
  EXPECT_NE(vs2.front().detail.find("do not match portfolio arm"),
            std::string::npos);

  // Without a portfolio table (cluster nodes: trajectory unrecorded) the
  // membership check is skipped, not failed.
  in.portfolio.clear();
  std::vector<Violation> vs3;
  check_tuning_stability(in, vs3);
  EXPECT_TRUE(vs3.empty()) << format_violations(vs3);
}

}  // namespace
}  // namespace speedbal::check
