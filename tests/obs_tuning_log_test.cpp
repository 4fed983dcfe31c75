// TuningLog unit tests: the append-only controller-epoch log behind
// `obsquery --tuning` — ordering, per-outcome counters, the record cap, and
// the outcome name round-trip.

#include <gtest/gtest.h>

#include <vector>

#include "obs/tuning_log.hpp"

namespace speedbal::obs {
namespace {

TuningRecord rec(std::int64_t epoch, TuningOutcome outcome, int arm,
                 int prev_arm) {
  TuningRecord r;
  r.ts_us = epoch * 1000;
  r.epoch = epoch;
  r.outcome = outcome;
  r.arm = arm;
  r.prev_arm = prev_arm;
  return r;
}

TEST(TuningLog, SnapshotPreservesInsertionOrderAndFields) {
  TuningLog log;
  TuningRecord a = rec(1, TuningOutcome::Bootstrap, 1, 0);
  a.interval_us = 25000;
  a.threshold = 0.8;
  a.post_migration_block = 1;
  a.cache_block_scale = 0.5;
  a.reward = -0.1;
  a.dispersion = 0.2;
  a.predicted = 0.25;
  log.add(a);
  log.add(rec(2, TuningOutcome::Kept, 1, 1));

  const std::vector<TuningRecord> snap = log.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].epoch, 1);
  EXPECT_EQ(snap[0].interval_us, 25000);
  EXPECT_DOUBLE_EQ(snap[0].threshold, 0.8);
  EXPECT_EQ(snap[0].post_migration_block, 1);
  EXPECT_DOUBLE_EQ(snap[0].cache_block_scale, 0.5);
  EXPECT_DOUBLE_EQ(snap[0].reward, -0.1);
  EXPECT_DOUBLE_EQ(snap[0].dispersion, 0.2);
  EXPECT_DOUBLE_EQ(snap[0].predicted, 0.25);
  EXPECT_EQ(snap[1].epoch, 2);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.dropped(), 0);
}

TEST(TuningLog, CountsEveryOutcomeClass) {
  TuningLog log;
  log.add(rec(1, TuningOutcome::Bootstrap, 1, 0));
  log.add(rec(2, TuningOutcome::Kept, 1, 1));
  log.add(rec(3, TuningOutcome::Kept, 1, 1));
  log.add(rec(4, TuningOutcome::Switched, 2, 1));
  log.add(rec(5, TuningOutcome::Dwell, 2, 2));
  log.add(rec(6, TuningOutcome::Anticipated, 1, 2));
  EXPECT_EQ(log.count(TuningOutcome::Bootstrap), 1);
  EXPECT_EQ(log.count(TuningOutcome::Kept), 2);
  EXPECT_EQ(log.count(TuningOutcome::Switched), 1);
  EXPECT_EQ(log.count(TuningOutcome::Dwell), 1);
  EXPECT_EQ(log.count(TuningOutcome::Anticipated), 1);
}

TEST(TuningLog, CapDropsRecordsButKeepsCounting) {
  // The cap bounds memory, not the statistics: counters keep accumulating
  // so `obsquery --tuning` totals stay truthful on very long runs.
  TuningLog log;
  log.set_cap(2);
  for (int e = 1; e <= 5; ++e) log.add(rec(e, TuningOutcome::Kept, 0, 0));
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.dropped(), 3);
  EXPECT_EQ(log.count(TuningOutcome::Kept), 5);
  const std::vector<TuningRecord> snap = log.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].epoch, 1);  // Oldest records survive (append-only).
  EXPECT_EQ(snap[1].epoch, 2);
}

}  // namespace
}  // namespace speedbal::obs
